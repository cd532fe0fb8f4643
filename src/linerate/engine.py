"""Active measurement client.

Runs a parallel-connection transfer against a responder, samples every
connection's byte counter on one shared monotonic clock, probes latency on a
fresh connection beforehand, and checks interface counters over the transfer
for competing traffic so a polluted measurement is flagged instead of
silently reported.

The engine only collects raw data.  Every derived number (throughput,
jitter, steady-state detection) comes from the metrics module, so the
methodology behind a result is always inspectable and replaceable.
"""

import ipaddress
import logging
import math
import socket
import struct
import threading
import time
import uuid
from dataclasses import dataclass, field

from . import protocol, units
from .flowmodel import MEASURED, ThroughputTrace, sample_times
from .metrics import LatencyStats

log = logging.getLogger(__name__)

DEFAULT_DURATION_S = 10.0
DEFAULT_N_CONNECTIONS = 4  # fewer cannot reliably fill typical access links
DEFAULT_SAMPLE_INTERVAL_MS = 100.0
RECOMMENDED_MIN_CONNECTIONS = 4
PROBE_COUNT_DEFAULT = 10
PROBE_COUNT_MIN = 5
PROBE_TIMEOUT_S = 2.0
CONNECT_TIMEOUT_S = 10.0

CROSS_TRAFFIC_CAPACITY_FRACTION = 0.05
CROSS_TRAFFIC_FLOOR_BPS = 5e6
DEFAULT_COUNTER_PATH = "/proc/net/dev"

# Linux struct tcp_info: bytes_acked and bytes_received (u64) at offset 120,
# then segs_out and segs_in (u32).
TCP_INFO_LEN = 256
_TCP_INFO_COUNTS = struct.Struct("=QQII")
_TCP_INFO_COUNTS_OFFSET = 120
# Per-segment framing: Ethernet 14 B + IP header + TCP header with timestamps.
WIRE_HEADER_BYTES = {socket.AF_INET: 14 + 20 + 32, socket.AF_INET6: 14 + 40 + 32}

FLAG_CROSS_TRAFFIC = "cross_traffic_detected"
FLAG_CROSS_UNKNOWN = "cross_traffic_unknown"
FLAG_DEGENERATE = "degenerate_trace"
# No longer set: raw.server_load carries the load. Engines that wrote schema
# v1 set it on every measured record, so `verify` allows it on a v1 line, and
# on no v2 line; the benchmark's flag check names it too.
FLAG_SERVER_LOAD = "server_load_reported"
FLAG_FEW_CONNECTIONS = "below_recommended_connections"


class UnreachableTargetError(Exception):
    """Target did not accept a connection or never answered."""


class TestRefusedError(Exception):
    """Responder explicitly refused the test."""

    def __init__(self, reason: str):
        super().__init__(f"test refused: {reason}")
        self.reason = reason


def connection_flags(n_connections: int) -> set[str]:
    """The flags a test earns by its connection count alone."""
    if n_connections < RECOMMENDED_MIN_CONNECTIONS:
        return {FLAG_FEW_CONNECTIONS}
    return set()


@dataclass(frozen=True)
class TestSpec:
    """Everything needed to reproduce one test, fully serializable."""

    target: str  # host:port
    direction: str = "download"
    duration: float = DEFAULT_DURATION_S  # seconds
    n_connections: int = DEFAULT_N_CONNECTIONS
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL_MS  # ms
    target_id: str = ""
    nonce: bytes = field(default_factory=lambda: uuid.uuid4().bytes)

    def __post_init__(self):
        if self.direction not in ("download", "upload"):
            raise ValueError(f"direction must be download or upload, got {self.direction!r}")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
        # The HELLO carries the duration in ms as a u32 and the count as a u16.
        if int(self.duration * 1000) > 0xFFFFFFFF:
            raise ValueError("duration must be at most 4294967.295 s")
        if not 1 <= self.n_connections <= 0xFFFF:
            raise ValueError("n_connections must be between 1 and 65535")
        if not 0 < self.sample_interval <= self.duration * 1000.0:
            raise ValueError("sample_interval must be positive and fit inside duration")
        if len(self.nonce) != protocol.NONCE_LEN:
            raise ValueError(f"nonce must be {protocol.NONCE_LEN} bytes")
        units.parse_address(self.target)

    @property
    def host_port(self) -> tuple[str, int]:
        return units.parse_address(self.target)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "direction": self.direction,
            "duration": self.duration,
            "n_connections": self.n_connections,
            "sample_interval": self.sample_interval,
            "target_id": self.target_id,
            "nonce": self.nonce.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TestSpec":
        fields = dict(data)
        fields["nonce"] = bytes.fromhex(fields["nonce"])
        return cls(**fields)


@dataclass(frozen=True)
class RawTestRecord:
    """Raw outcome of one test: traces, probe stats, and context flags only."""

    spec: TestSpec
    per_connection_traces: tuple[ThroughputTrace, ...]
    aggregate_trace: ThroughputTrace
    latency: LatencyStats
    cross_traffic_bps: float | None
    flags: frozenset[str]
    server_summary: tuple[tuple[int, int, int], ...] | None = None
    server_load: tuple[int, int] | None = None  # (active_tests, max_tests)
    # This process's monotonic clock at t0, for lining up concurrent tests in
    # memory; it means nothing once stored, so records do not store it.
    started_at_monotonic: float | None = None
    # A simulated test's fluid-model inputs (flowmodel.model_inputs); None
    # for a measured one.
    model: dict | None = None
    # The test's own bytes on counted interfaces, which cross-traffic
    # detection subtracts; None when unreadable or not measured. In memory
    # only, like started_at_monotonic.
    wire_bytes: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "per_connection_traces", tuple(self.per_connection_traces))
        object.__setattr__(self, "flags", frozenset(self.flags))


def read_interface_byte_counters(path: str = DEFAULT_COUNTER_PATH):
    """Sum rx+tx bytes across non-loopback interfaces; None if unreadable."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError:
        return None
    total = 0
    parsed_any = False
    for line in lines:
        if ":" not in line:
            continue
        name, _, rest = line.partition(":")
        if name.strip() == "lo":
            continue
        cols = rest.split()
        if len(cols) < 9:
            continue
        try:
            total += int(cols[0]) + int(cols[8])  # rx bytes, tx bytes
        except ValueError:
            continue
        parsed_any = True
    return total if parsed_any else None


def tcp_wire_bytes(tcp_info: bytes, family: int) -> int:
    """Bytes one connection put on its interface, both directions, from TCP_INFO.

    Payload acked plus payload received, plus a full Ethernet + IP + TCP
    timestamp header for every segment sent or received.  The model errs
    toward subtracting too much: every segment is charged the largest header
    it can carry, so a test that saturates its link is not flagged as cross
    traffic just because of its own headers.
    """
    acked, received, segs_out, segs_in = _TCP_INFO_COUNTS.unpack_from(
        tcp_info, _TCP_INFO_COUNTS_OFFSET)
    return acked + received + (segs_out + segs_in) * WIRE_HEADER_BYTES[family]


def _crosses_counted_interface(local: str, peer: str) -> bool:
    """False for a loopback path: its bytes cross ``lo``, which the counters skip."""
    return peer != local and not ipaddress.ip_address(peer).is_loopback


def _read_wire_bytes(sock) -> int | None:
    """tcp_wire_bytes of a connected socket; None when TCP_INFO is unreadable."""
    option = getattr(socket, "TCP_INFO", None)
    if option is None:
        return None
    try:
        info = sock.getsockopt(socket.IPPROTO_TCP, option, TCP_INFO_LEN)
        return tcp_wire_bytes(info, sock.family)
    except (OSError, struct.error):  # refused, or a kernel struct too short
        return None


def cross_traffic_threshold_bps(capacity_hint_bps: float | None) -> float:
    if capacity_hint_bps:
        return max(CROSS_TRAFFIC_CAPACITY_FRACTION * capacity_hint_bps,
                   CROSS_TRAFFIC_FLOOR_BPS)
    return CROSS_TRAFFIC_FLOOR_BPS


def _connect(host, port) -> socket.socket:
    """A TCP_NODELAY connection to host:port, or UnreachableTargetError."""
    try:
        sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
    except OSError as exc:
        raise UnreachableTargetError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class Engine:
    """One client-side test runner.

    It keeps no state between tests: everything a test produces is on its
    record, so one engine may run several tests at once.
    """

    def __init__(self, counter_provider=None):
        self.read_counters = counter_provider or read_interface_byte_counters

    # -- latency ------------------------------------------------------------

    def probe_latency(self, target, count: int = PROBE_COUNT_DEFAULT,
                      interval_ms: float = 20.0) -> LatencyStats:
        """Echo-based RTT probe on a fresh connection; lost probes count as loss.

        A probe is lost when its reply times out or its connection fails.
        """
        if count < PROBE_COUNT_MIN:
            raise ValueError(f"need at least {PROBE_COUNT_MIN} probes, got {count}")
        host, port = units.parse_address(target) if isinstance(target, str) else target
        sock = _connect(host, port)
        rtts = []
        try:
            sock.settimeout(PROBE_TIMEOUT_S)
            for i in range(count):
                payload = b"probe-%04d" % i
                sent_at = time.monotonic()
                try:
                    protocol.send_frame(sock, protocol.ECHO, protocol.ZERO_NONCE, payload)
                    while True:
                        kind, _nonce, got = protocol.recv_frame(sock)
                        if kind == protocol.ECHO_REPLY and got == payload:
                            rtts.append((time.monotonic() - sent_at) * 1000.0)
                            break
                        # stale or foreign reply: keep reading until timeout
                except (OSError, protocol.ProtocolError):
                    pass  # this probe is lost; later ones may still succeed
                if i + 1 < count:
                    time.sleep(interval_ms / 1000.0)
        finally:
            sock.close()
        return LatencyStats(rtts=tuple(rtts), sent=count, received=len(rtts))

    # -- cross traffic --------------------------------------------------------

    def measure_cross_traffic(self, counted_at_start, started, own_wire_bytes,
                              capacity_hint_bps=None):
        """(foreign bps, flags) on the counted interfaces since ``started``.

        The counters' advance since ``counted_at_start`` less ``own_wire_bytes``,
        the test's own bytes on counted interfaces, is foreign.  A missing
        reading or unknown own bytes gives ``(None, {FLAG_CROSS_UNKNOWN})``.
        """
        counted_at_end = self.read_counters()
        elapsed = time.monotonic() - started
        if counted_at_start is None or counted_at_end is None or own_wire_bytes is None:
            return None, {FLAG_CROSS_UNKNOWN}
        bps = 8.0 * max(0, counted_at_end - counted_at_start - own_wire_bytes) / elapsed
        if bps > cross_traffic_threshold_bps(capacity_hint_bps):
            return bps, {FLAG_CROSS_TRAFFIC}
        return bps, set()

    # -- test run -------------------------------------------------------------

    def run_test(self, spec: TestSpec,
                 capacity_hint_bps: float | None = None) -> RawTestRecord:
        flags = connection_flags(spec.n_connections)

        if spec.direction == "upload":
            # The process's data ring is drawn while the probes sleep: the
            # draw releases the GIL, and _transfer waits for it if it runs late.
            protocol.draw_data_ring_soon()
        latency = self.probe_latency(spec.host_port, count=PROBE_COUNT_DEFAULT)

        control, server_load = self._handshake(spec)
        try:
            return self._transfer(spec, control, flags, latency, capacity_hint_bps,
                                  server_load)
        finally:
            control.close()

    def _handshake(self, spec):
        """The admitted test's control socket and its load; closed on any failure."""
        control = _connect(*spec.host_port)
        try:
            control.settimeout(CONNECT_TIMEOUT_S)
            hello = protocol.pack_hello(spec.direction, int(spec.duration * 1000),
                                        spec.n_connections)
            protocol.send_frame(control, protocol.HELLO, spec.nonce, hello)
            kind, nonce, payload = protocol.recv_frame(control)
            if kind == protocol.REFUSE:
                raise TestRefusedError(protocol.REASON_NAMES[protocol.unpack_refuse(payload)])
            if kind != protocol.HELLO_ACK or nonce != spec.nonce:
                # The ack must bind our nonce to exactly one server-side session.
                raise protocol.ProtocolError("hello not acked for this test")
            load = protocol.unpack_load(payload)
            return control, (load["active_tests"], load["max_tests"])
        except BaseException as exc:
            control.close()
            if isinstance(exc, protocol.ProtocolError):  # a malformed or foreign answer
                raise TestRefusedError("bad_params") from exc
            if isinstance(exc, OSError):
                raise UnreachableTargetError(f"handshake failed: {exc}") from exc
            raise

    def _transfer(self, spec, control, flags, latency, capacity_hint_bps, server_load):
        address = spec.host_port
        n = spec.n_connections
        counters = [0] * n
        opened = [False] * n
        failed = [False] * n
        wire = [0] * n  # own bytes on counted interfaces; None when unreadable
        ring = protocol.data_ring() if spec.direction == "upload" else None
        interval_ms = spec.sample_interval
        times = sample_times(spec.duration * 1000.0, interval_ms)

        # The responder's window started at HELLO, so ours starts as the
        # handshake returns; connection set-up falls inside both windows.
        # Cross traffic is counted over the same window, and the transfer
        # ends at the last sample.
        counted_at_t0 = self.read_counters()
        t0 = time.monotonic()
        deadline = t0 + times[-1] / 1000.0

        def move_bytes(index):
            # A connect that fails loses the connection. After that, EOF is
            # the responder ending the transfer cleanly; only a socket error
            # meaningfully before the deadline counts as a lost connection.
            try:
                with socket.create_connection(address, timeout=CONNECT_TIMEOUT_S) as sock:
                    opened[index] = True
                    counted = _crosses_counted_interface(sock.getsockname()[0],
                                                         sock.getpeername()[0])
                    try:
                        protocol.send_frame(sock, protocol.START_DATA, spec.nonce,
                                            protocol.pack_start_data(index))
                        sock.settimeout(0.2)
                        protocol.pump(sock, ring, deadline, counters, index)
                    finally:
                        if counted:
                            wire[index] = _read_wire_bytes(sock)
            except OSError:
                if not opened[index] or time.monotonic() < deadline - interval_ms / 1000.0:
                    failed[index] = True

        workers = [threading.Thread(target=move_bytes, args=(i,), daemon=True)
                   for i in range(n)]
        for worker in workers:
            worker.start()

        # One sampler walks the nominal sample times on the shared clock; each
        # snapshots every counter once, so the aggregate is an exact sum.
        snapshots = [[0] * n]
        for t_ms in times[1:]:
            if all(failed) and not any(opened):
                break  # every connect failed: nothing is left to sample
            delay = (t0 + t_ms / 1000.0) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            snapshots.append(list(counters))

        for worker in workers:
            worker.join(timeout=5.0)
        wire_bytes = None if None in wire else sum(wire)
        cross_bps, cross_flags = self.measure_cross_traffic(counted_at_t0, t0, wire_bytes,
                                                            capacity_hint_bps)
        flags |= cross_flags
        if not any(opened):
            raise UnreachableTargetError("no data connection could be opened")

        server_summary = self._collect_summary(control, spec)

        surviving = sum(1 for f in failed if not f)
        if surviving < n / 2:
            flags.add(FLAG_DEGENERATE)

        aggregate_trace = ThroughputTrace.from_columns(interval_ms, times, map(sum, snapshots),
                                                       MEASURED)
        per_connection_traces = tuple(map(aggregate_trace.with_counts, zip(*snapshots)))
        return RawTestRecord(
            spec=spec,
            per_connection_traces=per_connection_traces,
            aggregate_trace=aggregate_trace,
            latency=latency,
            cross_traffic_bps=cross_bps,
            flags=frozenset(flags),
            server_summary=server_summary,
            server_load=server_load,
            started_at_monotonic=t0,
            wire_bytes=wire_bytes,
        )

    def _collect_summary(self, control, spec):
        try:
            protocol.send_frame(control, protocol.DONE, spec.nonce)
            kind, _nonce, payload = protocol.recv_frame(control)
            if kind == protocol.DONE:
                return tuple(protocol.unpack_done_summary(payload))
        except (OSError, ConnectionError, protocol.ProtocolError):
            pass
        return None  # summary is advisory; losing it never fails the test
