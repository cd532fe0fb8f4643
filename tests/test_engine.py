"""Engine behavior: probes, loopback test runs, cross-traffic accounting."""

import socket
import struct
import threading
import time
import types

import pytest

from linerate import engine as engine_mod
from linerate import flowmodel, metrics, protocol, records
from linerate.engine import (
    Engine,
    RawTestRecord,
    UnreachableTargetError,
    cross_traffic_threshold_bps,
    read_interface_byte_counters,
)
from linerate.responder import Responder


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def quiet_engine() -> Engine:
    # Scripted flat counter: no cross traffic, no dependence on host interfaces.
    return Engine(counter_provider=lambda: 0)


def run_loopback(responder, **spec_overrides) -> RawTestRecord:
    defaults = dict(target="%s:%d" % responder.address, duration=2.0)
    defaults.update(spec_overrides)
    return quiet_engine().run_test(engine_mod.TestSpec(**defaults))


def hook_data_connects(monkeypatch, eng, before_connect):
    """Run before_connect() ahead of each connect eng makes after its handshake."""
    handshake_done = threading.Event()
    handshake = eng._handshake
    connect = socket.create_connection

    def handshake_then_mark(spec):
        result = handshake(spec)
        handshake_done.set()
        return result

    def data_connect(*args, **kwargs):
        if handshake_done.is_set():
            before_connect()
        return connect(*args, **kwargs)

    monkeypatch.setattr(eng, "_handshake", handshake_then_mark)
    monkeypatch.setattr(engine_mod.socket, "create_connection", data_connect)


@pytest.fixture
def responder():
    server = Responder("127.0.0.1", 0).start()
    yield server
    server.stop()


class EchoSkipServer:
    """Answers every echo except the given probe numbers. One connection."""

    def __init__(self, skip: set):
        self._skip = skip
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        with conn:
            seen = 0
            while True:
                try:
                    kind, nonce, payload = protocol.recv_frame(conn)
                except (ConnectionError, OSError):
                    return
                if kind != protocol.ECHO:
                    continue
                if seen not in self._skip:
                    protocol.send_frame(conn, protocol.ECHO_REPLY, nonce, payload)
                seen += 1

    def close(self):
        self._listener.close()


class ResetMidTransferServer:
    """Acks the handshake, then hard-resets every data connection early."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn):
        try:
            kind, nonce, payload = protocol.recv_frame(conn)
            if kind == protocol.ECHO:
                protocol.send_frame(conn, protocol.ECHO_REPLY, nonce, payload)
                while True:
                    kind, nonce, payload = protocol.recv_frame(conn)
                    if kind == protocol.ECHO:
                        protocol.send_frame(conn, protocol.ECHO_REPLY, nonce, payload)
                    else:
                        return
            if kind == protocol.HELLO:
                protocol.send_frame(conn, protocol.HELLO_ACK, nonce, protocol.pack_load(1, 8))
                while True:
                    kind, _n, _p = protocol.recv_frame(conn)
                    if kind == protocol.DONE:
                        protocol.send_frame(conn, protocol.DONE, nonce,
                                            protocol.pack_done_summary([]))
            elif kind == protocol.START_DATA:
                self._serve_data(conn)
        except (ConnectionError, OSError):
            pass

    def _serve_data(self, conn):
        conn.sendall(b"\x42" * 65536)
        time.sleep(0.3)
        # RST instead of FIN: an abrupt mid-test connection loss.
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        b"\x01\x00\x00\x00\x00\x00\x00\x00")
        conn.close()

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self._listener.close()


class ExactBytesServer(ResetMidTransferServer):
    """Sends exactly DATA_BYTES on every data connection, then closes cleanly."""

    DATA_BYTES = 3 * 1024 * 1024 + 12345

    def _serve_data(self, conn):
        conn.sendall(bytes(self.DATA_BYTES))
        conn.close()


class NoDataServer:
    """Answers the probe and the handshake, then stops listening. One thread."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            probe, _ = self._listener.accept()
            with probe:  # echo until the engine closes its probe connection
                while True:
                    kind, nonce, payload = protocol.recv_frame(probe)
                    protocol.send_frame(probe, protocol.ECHO_REPLY, nonce, payload)
        except (ConnectionError, OSError):
            pass
        control, _ = self._listener.accept()
        # Closed before the ack, so no data connection can reach the backlog.
        self._listener.close()
        with control:
            try:
                _kind, nonce, _payload = protocol.recv_frame(control)
                protocol.send_frame(control, protocol.HELLO_ACK, nonce,
                                    protocol.pack_load(1, 8))
                while protocol.recv_frame(control)[0] == protocol.DONE:
                    protocol.send_frame(control, protocol.DONE, nonce,
                                        protocol.pack_done_summary([]))
            except (ConnectionError, OSError):
                pass

    def close(self):
        self._listener.close()


class BadAnswerServer:
    """Echoes probes and answers a HELLO with one given frame. One thread.

    ``control_closed`` is set when the connection that got the answer reads EOF.
    """

    def __init__(self, kind, payload):
        self._answer = (kind, payload)
        self.control_closed = threading.Event()
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            answered = False
            with conn:
                conn.settimeout(10.0)
                try:
                    while True:
                        kind, nonce, payload = protocol.recv_frame(conn)
                        if kind == protocol.ECHO:
                            protocol.send_frame(conn, protocol.ECHO_REPLY, nonce, payload)
                        elif kind == protocol.HELLO:
                            protocol.send_frame(conn, self._answer[0], nonce, self._answer[1])
                            answered = True
                except ConnectionError:
                    if answered:
                        self.control_closed.set()
                except OSError:
                    pass

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self._listener.close()


class ClosingServer:
    """Accepts every connection and closes it at once, like a peer that vanishes."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            conn.close()

    def close(self):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self._thread.join()
        self._listener.close()


# A HELLO_ACK whose load payload is 3 bytes, and a REFUSE with no such reason.
MALFORMED_ANSWERS = pytest.mark.parametrize("kind, payload", [
    (protocol.HELLO_ACK, b"\x00\x01\x02"),
    (protocol.REFUSE, bytes([9])),
], ids=["short-ack", "unknown-reason"])


class TestSpecValidation:
    def test_defaults_meet_recommended_floor(self):
        spec = engine_mod.TestSpec(target="example.net:7777")
        assert spec.n_connections >= 4
        assert spec.duration >= 5.0
        assert spec.direction == "download"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            engine_mod.TestSpec(target="example.net:7777", direction="sideways")
        with pytest.raises(ValueError):
            engine_mod.TestSpec(target="example.net:7777", duration=0)
        with pytest.raises(ValueError):
            engine_mod.TestSpec(target="example.net:7777", n_connections=0)
        with pytest.raises(ValueError):
            engine_mod.TestSpec(target="example.net:7777", sample_interval=20_000, duration=10)
        with pytest.raises(ValueError):
            engine_mod.TestSpec(target="no-port-here")
        with pytest.raises(ValueError):
            engine_mod.TestSpec(target="example.net:7777", nonce=b"short")

    @pytest.mark.parametrize("target", ["127.0.0.1:99999", "127.0.0.1:65536", "127.0.0.1:-1"])
    def test_rejects_port_out_of_range(self, target):
        with pytest.raises(ValueError, match="host:port"):
            engine_mod.TestSpec(target=target)

    def test_rejects_infinite_duration(self):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            engine_mod.TestSpec(target="example.net:7777", duration=float("inf"))

    def test_rejects_what_the_hello_cannot_carry(self):
        with pytest.raises(ValueError, match="duration"):
            engine_mod.TestSpec(target="example.net:7777", duration=5_000_000)
        with pytest.raises(ValueError, match="n_connections"):
            engine_mod.TestSpec(target="example.net:7777", n_connections=70_000)
        largest = engine_mod.TestSpec(target="example.net:7777", duration=0xFFFFFFFF / 1000,
                                      n_connections=0xFFFF)
        protocol.pack_hello(largest.direction, int(largest.duration * 1000),
                            largest.n_connections)

    def test_serializes_round_trip(self):
        spec = engine_mod.TestSpec(target="198.51.100.7:7777", direction="upload",
                        duration=7.5, n_connections=6, target_id="srv-1")
        assert engine_mod.TestSpec.from_dict(spec.to_dict()) == spec

    def test_distinct_nonces_by_default(self):
        a = engine_mod.TestSpec(target="example.net:7777")
        b = engine_mod.TestSpec(target="example.net:7777")
        assert a.nonce != b.nonce


class TestProbeLatency:
    def test_loopback_ten_probes_all_answered(self, responder):
        stats = quiet_engine().probe_latency("%s:%d" % responder.address, count=10)
        assert stats.sent == 10
        assert stats.received == 10
        assert all(rtt < 5.0 for rtt in stats.rtts)
        assert metrics.loss_rate(stats.sent, stats.received) == 0.0

    def test_unreachable_port_raises(self):
        with pytest.raises(UnreachableTargetError):
            quiet_engine().probe_latency(f"127.0.0.1:{free_port()}", count=5)

    def test_nine_of_ten_answers_is_ten_percent_loss(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "PROBE_TIMEOUT_S", 0.3)
        server = EchoSkipServer(skip={3})
        try:
            stats = quiet_engine().probe_latency(server.address, count=10, interval_ms=5)
        finally:
            server.close()
        assert stats.sent == 10
        assert stats.received == 9
        assert metrics.loss_rate(stats.sent, stats.received) == pytest.approx(0.1)

    def test_peer_that_closes_loses_every_probe(self):
        server = ClosingServer()
        try:
            stats = quiet_engine().probe_latency(server.address, count=10)
        finally:
            server.close()
        assert (stats.sent, stats.received) == (10, 0)

    def test_too_few_probes_rejected(self, responder):
        with pytest.raises(ValueError):
            quiet_engine().probe_latency("%s:%d" % responder.address, count=4)


class TestCrossTraffic:
    def test_scripted_rate_measured_within_tolerance(self):
        # Counter advancing at exactly 50 Mbps on the engine's clock, over a
        # window that opened 0.25 s ago.
        counted = lambda at: int(50e6 / 8 * at)
        eng = Engine(counter_provider=lambda: counted(time.monotonic()))
        started = time.monotonic() - 0.25
        bps, flags = eng.measure_cross_traffic(counted(started), started, 0)
        assert bps == pytest.approx(50e6, rel=0.01)
        assert flags == {engine_mod.FLAG_CROSS_TRAFFIC}

    def test_own_session_bytes_are_subtracted(self, monkeypatch):
        # 8 MB counted over 2 s, 5 MB of it the test's own: 3 MB foreign.
        monkeypatch.setattr(engine_mod, "time", types.SimpleNamespace(monotonic=lambda: 12.0))
        eng = Engine(counter_provider=lambda: 9_000_000)
        assert eng.measure_cross_traffic(1_000_000, 10.0, 5_000_000) == (
            12e6, {engine_mod.FLAG_CROSS_TRAFFIC})
        # The same rate stays under the threshold of a 1 Gbit/s link.
        assert eng.measure_cross_traffic(1_000_000, 10.0, 5_000_000, 1e9) == (12e6, set())
        # More own bytes than the counters advanced is no foreign traffic.
        assert eng.measure_cross_traffic(1_000_000, 10.0, 9_000_000) == (0.0, set())

    def test_unavailable_provider_returns_none(self):
        unknown = (None, {engine_mod.FLAG_CROSS_UNKNOWN})
        started = time.monotonic() - 1.0
        assert Engine(counter_provider=lambda: None).measure_cross_traffic(
            0, started, 0) == unknown
        assert quiet_engine().measure_cross_traffic(None, started, 0) == unknown

    def test_unknown_own_wire_bytes_are_unknown(self):
        assert quiet_engine().measure_cross_traffic(0, time.monotonic() - 1.0, None) == (
            None, {engine_mod.FLAG_CROSS_UNKNOWN})

    def test_missing_counter_file_reads_none(self, tmp_path):
        assert read_interface_byte_counters(str(tmp_path / "nope")) is None

    def test_counter_file_parsing(self, tmp_path):
        counters = tmp_path / "dev"
        counters.write_text(
            "Inter-|   Receive                |  Transmit\n"
            " face |bytes packets errs drop fifo frame compressed multicast|"
            "bytes packets errs drop fifo colls carrier compressed\n"
            "    lo: 999999 10 0 0 0 0 0 0 999999 10 0 0 0 0 0 0\n"
            "  eth0: 1000 10 0 0 0 0 0 0 2000 10 0 0 0 0 0 0\n"
            "  eth1: 300 1 0 0 0 0 0 0 700 1 0 0 0 0 0 0\n"
        )
        # Loopback is excluded; eth0 and eth1 rx+tx sum remains.
        assert read_interface_byte_counters(str(counters)) == 1000 + 2000 + 300 + 700

    def test_threshold_rule(self):
        assert cross_traffic_threshold_bps(None) == 5e6
        assert cross_traffic_threshold_bps(1e9) == 50e6
        assert cross_traffic_threshold_bps(1e6) == 5e6  # floor wins on slow links

    def test_wire_bytes_from_a_tcp_info_struct(self):
        # Every byte outside the four counters is 0xff, so a wrong offset shows.
        info = bytearray(b"\xff" * engine_mod.TCP_INFO_LEN)
        struct.pack_into("=QQII", info, 120, 5_000_000, 70_000, 3_000, 400)
        payload = 5_000_000 + 70_000
        assert engine_mod.tcp_wire_bytes(bytes(info), socket.AF_INET) == payload + 3_400 * 66
        assert engine_mod.tcp_wire_bytes(bytes(info), socket.AF_INET6) == payload + 3_400 * 86

    @pytest.mark.parametrize("local, peer, counted", [
        ("127.0.0.1", "127.0.0.1", False),
        ("127.0.0.1", "127.0.0.53", False),
        ("::1", "::1", False),
        ("192.0.2.10", "192.0.2.10", False),  # own address: routed over lo
        ("192.0.2.10", "198.51.100.7", True),
        ("2001:db8::1", "2001:db8::2", True),
    ])
    def test_only_non_loopback_paths_are_counted(self, local, peer, counted):
        assert engine_mod._crosses_counted_interface(local, peer) is counted


class TestRunTest:
    def test_download_aggregate_dominates_each_connection(self, responder):
        record = run_loopback(responder, n_connections=4)
        aggregate = metrics.estimate_throughput(record.aggregate_trace, metrics.EstimationMethod())
        assert aggregate > 0
        for trace in record.per_connection_traces:
            assert aggregate >= metrics.estimate_throughput(trace, metrics.EstimationMethod())

    def test_aggregate_is_exact_sum_at_every_instant(self, responder):
        record = run_loopback(responder, n_connections=4)
        for k, (t_ms, total) in enumerate(record.aggregate_trace.samples):
            sample_sum = sum(trace.samples[k][1] for trace in record.per_connection_traces)
            assert total == sample_sum
            assert all(trace.samples[k][0] == t_ms for trace in record.per_connection_traces)

    def test_every_trace_holds_the_aggregates_plain_time_column(self, responder):
        record = run_loopback(responder, n_connections=3, duration=1.0)
        times = record.aggregate_trace.times
        assert type(times) is tuple and all(type(t) is float for t in times)
        assert all(trace.times is times for trace in record.per_connection_traces)

    def test_trace_covers_requested_duration(self, responder):
        record = run_loopback(responder, n_connections=2, duration=1.5)
        assert record.aggregate_trace.duration_ms == pytest.approx(1500.0)
        assert record.aggregate_trace.sample_interval == 100.0
        assert len(record.aggregate_trace.samples) == 16  # t=0 plus 15 ticks

    @pytest.mark.parametrize("duration,interval", [(1.06, 100.0), (1.0, 600.0)])
    def test_transfer_ends_at_its_last_sample_like_its_simulated_twin(
            self, responder, duration, interval):
        # Neither duration is a whole number of intervals: the last sample is
        # the last multiple of the interval inside the duration, not past it.
        record = run_loopback(responder, n_connections=2, duration=duration,
                              sample_interval=interval)
        times = record.aggregate_trace.times
        assert list(times) == flowmodel.sample_times(duration * 1000.0, interval)
        assert times[-1] <= duration * 1000.0
        model = flowmodel.model_inputs(flowmodel.LinkModel(capacity=1e9, rtt=1.0))
        assert records.simulate_raw(record.spec, model).aggregate_trace.times == times

    def test_wall_clock_is_time_bounded(self, responder):
        started = time.monotonic()
        run_loopback(responder, n_connections=2, duration=1.0)
        elapsed = time.monotonic() - started
        # probe (~0.2 s) + transfer (1.0 s) + teardown
        assert elapsed < 3.5

    def test_upload_moves_bytes_and_server_agrees(self, responder):
        record = run_loopback(responder, direction="upload", n_connections=2)
        client_total = record.aggregate_trace.total_bytes
        assert client_total > 0
        assert record.server_summary is not None
        server_total = sum(entry[1] for entry in record.server_summary)
        # The server can only have drained what the client sent; in-flight
        # bytes at the cutoff keep the two counts close but not equal.
        assert 0 < server_total <= client_total * 1.01
        assert server_total > client_total * 0.5

    def test_server_load_reported(self, responder):
        record = run_loopback(responder, n_connections=1)
        assert record.server_load == (1, responder.max_tests)
        assert engine_mod.FLAG_SERVER_LOAD not in record.flags

    def test_below_recommended_connections_flagged(self, responder):
        record = run_loopback(responder, n_connections=1)
        assert engine_mod.FLAG_FEW_CONNECTIONS in record.flags
        record4 = run_loopback(responder, n_connections=4)
        assert engine_mod.FLAG_FEW_CONNECTIONS not in record4.flags

    def test_two_sequential_runs_agree_within_twenty_percent(self, responder):
        first = run_loopback(responder, n_connections=4)
        second = run_loopback(responder, n_connections=4)
        a = metrics.estimate_throughput(first.aggregate_trace, metrics.EstimationMethod())
        b = metrics.estimate_throughput(second.aggregate_trace, metrics.EstimationMethod())
        assert abs(a - b) / max(a, b) < 0.2

    def test_refused_when_server_full(self):
        with Responder("127.0.0.1", 0, max_tests=1) as server:
            holder = socket.create_connection(server.address)
            try:
                protocol.send_frame(holder, protocol.HELLO, b"\x07" * 16,
                                    protocol.pack_hello("download", 30_000, 1))
                assert protocol.recv_frame(holder)[0] == protocol.HELLO_ACK
                with pytest.raises(engine_mod.TestRefusedError) as excinfo:
                    run_loopback(server, n_connections=1)
                assert excinfo.value.reason == "at_capacity"
            finally:
                holder.close()

    @MALFORMED_ANSWERS
    def test_malformed_answer_is_a_refusal_and_closes_the_control(self, kind, payload):
        server = BadAnswerServer(kind, payload)
        try:
            spec = engine_mod.TestSpec(target=server.address, duration=1.0)
            with pytest.raises(engine_mod.TestRefusedError) as excinfo:
                quiet_engine().run_test(spec)
            assert excinfo.value.reason == "bad_params"
            assert server.control_closed.wait(timeout=5.0)
        finally:
            server.close()

    def test_unreachable_target_raises(self):
        eng = quiet_engine()
        spec = engine_mod.TestSpec(target=f"127.0.0.1:{free_port()}", duration=1.0)
        with pytest.raises(UnreachableTargetError):
            eng.run_test(spec)

    def test_no_data_connection_raises_before_the_test_ends(self):
        server = NoDataServer()
        spec = engine_mod.TestSpec(target=server.address, duration=10.0)
        started = time.monotonic()
        try:
            with pytest.raises(UnreachableTargetError, match="no data connection"):
                quiet_engine().run_test(spec)
        finally:
            server.close()
        # probe (~0.2 s) + one sample interval
        assert time.monotonic() - started < 2.0

    @pytest.mark.parametrize("direction", ["download", "upload"])
    def test_data_connection_setup_falls_inside_the_window(self, responder, direction,
                                                            monkeypatch):
        # Each data connect takes 50 ms, as on a path with a 50 ms RTT.
        eng = quiet_engine()
        hook_data_connects(monkeypatch, eng, lambda: time.sleep(0.05))
        spec = engine_mod.TestSpec(target="%s:%d" % responder.address, direction=direction,
                                   duration=2.0, n_connections=4, sample_interval=100.0)
        record = eng.run_test(spec)
        assert engine_mod.FLAG_DEGENERATE not in record.flags
        (_, before_last), (_, last) = record.aggregate_trace.samples[-2:]
        assert last > before_last

    def test_connect_failing_after_the_deadline_is_a_lost_connection(self, responder,
                                                                     monkeypatch):
        # One data connection opens; three fail to connect only after the test ended.
        eng = quiet_engine()
        data_connects = []

        def fail_all_but_the_first():
            data_connects.append(None)
            if len(data_connects) > 1:
                time.sleep(1.2)
                raise ConnectionRefusedError("scripted late failure")

        hook_data_connects(monkeypatch, eng, fail_all_but_the_first)
        spec = engine_mod.TestSpec(target="%s:%d" % responder.address,
                                   duration=1.0, n_connections=4)
        record = eng.run_test(spec)
        assert engine_mod.FLAG_DEGENERATE in record.flags
        assert record.aggregate_trace.total_bytes > 0

    def test_connection_loss_flags_degenerate_trace(self):
        server = ResetMidTransferServer()
        try:
            record = quiet_engine().run_test(
                engine_mod.TestSpec(target=server.address, duration=1.5, n_connections=2),
            )
        finally:
            server.close()
        assert engine_mod.FLAG_DEGENERATE in record.flags

    def test_unknown_counter_source_flags_and_proceeds(self, responder):
        eng = Engine(counter_provider=lambda: None)
        spec = engine_mod.TestSpec(target="%s:%d" % responder.address, duration=1.0, n_connections=2)
        record = eng.run_test(spec)
        assert record.cross_traffic_bps is None
        assert engine_mod.FLAG_CROSS_UNKNOWN in record.flags
        assert engine_mod.FLAG_CROSS_TRAFFIC not in record.flags

    def test_heavy_background_rate_flags_cross_traffic(self, responder):
        eng = Engine(counter_provider=lambda: int(80e6 / 8 * time.monotonic()))
        spec = engine_mod.TestSpec(target="%s:%d" % responder.address, duration=1.0, n_connections=2)
        record = eng.run_test(spec)
        assert engine_mod.FLAG_CROSS_TRAFFIC in record.flags
        assert record.cross_traffic_bps > 5e6

    def test_foreign_bytes_during_the_transfer_flag_cross_traffic(self, responder,
                                                                  monkeypatch):
        # The counter stays flat until 0.3 s after the handshake, then jumps by
        # 10 MB (80 Mbit/s over the 1 s test): traffic that starts mid-test.
        acked_at = []

        def counters():
            return 10_000_000 if acked_at and time.monotonic() > acked_at[0] + 0.3 else 0

        eng = Engine(counter_provider=counters)
        handshake = eng._handshake

        def handshake_then_mark(spec):
            result = handshake(spec)
            acked_at.append(time.monotonic())
            return result

        monkeypatch.setattr(eng, "_handshake", handshake_then_mark)
        spec = engine_mod.TestSpec(target="%s:%d" % responder.address, duration=1.0,
                                   n_connections=2)
        record = eng.run_test(spec)
        assert engine_mod.FLAG_CROSS_TRAFFIC in record.flags
        assert record.cross_traffic_bps > 5e6

    @pytest.mark.parametrize("direction, foreign", [("download", 0), ("upload", 0),
                                                    ("download", 10_000_000)])
    def test_own_wire_bytes_are_subtracted_on_a_counted_path(self, responder, monkeypatch,
                                                             direction, foreign):
        # Treat the loopback path as a counted interface; the counter then
        # advances by exactly the wire bytes the workers computed, plus foreign.
        computed = []
        wire_bytes = engine_mod.tcp_wire_bytes

        def recording(info, family):
            computed.append(wire_bytes(info, family))
            return computed[-1]

        monkeypatch.setattr(engine_mod, "_crosses_counted_interface", lambda local, peer: True)
        monkeypatch.setattr(engine_mod, "tcp_wire_bytes", recording)
        eng = Engine(counter_provider=lambda: sum(computed) + (foreign if computed else 0))
        spec = engine_mod.TestSpec(target="%s:%d" % responder.address, direction=direction,
                                   duration=0.5, n_connections=2)
        record = eng.run_test(spec)
        assert len(computed) == 2
        # Upload bytes still in the send buffer are counted but not yet acked.
        assert sum(computed) > record.aggregate_trace.total_bytes / 2 > 0
        assert engine_mod.FLAG_CROSS_UNKNOWN not in record.flags
        if foreign:
            assert engine_mod.FLAG_CROSS_TRAFFIC in record.flags
            assert record.cross_traffic_bps > 5e6
        else:
            assert engine_mod.FLAG_CROSS_TRAFFIC not in record.flags
            assert record.cross_traffic_bps == 0.0

    def test_unreadable_tcp_info_on_a_counted_path_is_unknown(self, responder, monkeypatch):
        monkeypatch.setattr(engine_mod, "_crosses_counted_interface", lambda local, peer: True)
        monkeypatch.delattr(socket, "TCP_INFO", raising=False)
        spec = engine_mod.TestSpec(target="%s:%d" % responder.address, duration=0.5,
                                   n_connections=2)
        record = quiet_engine().run_test(spec)
        assert record.cross_traffic_bps is None
        assert engine_mod.FLAG_CROSS_UNKNOWN in record.flags
        assert record.aggregate_trace.total_bytes > 0

    def test_first_download_sample_is_not_empty(self, responder):
        # The responder's data pool is drawn before it acks, not after t0.
        record = run_loopback(responder, n_connections=4, duration=0.5, sample_interval=20.0)
        assert record.aggregate_trace.samples[1][1] > 0

    def test_own_bytes_are_exactly_the_bytes_moved(self):
        server = ExactBytesServer()
        try:
            record = quiet_engine().run_test(
                engine_mod.TestSpec(target=server.address, duration=1.0, n_connections=3),
            )
        finally:
            server.close()
        finals = [trace.samples[-1][1] for trace in record.per_connection_traces]
        assert finals == [ExactBytesServer.DATA_BYTES] * 3
        assert sum(finals) == record.aggregate_trace.total_bytes

    def test_download_client_counts_no_more_than_the_server_sent(self, responder):
        record = run_loopback(responder, duration=1.0, n_connections=2)
        server_total = sum(entry[1] for entry in record.server_summary)
        assert 0 < record.aggregate_trace.total_bytes <= server_total

    def test_upload_ring_drawn_once_per_process(self, fresh_data_ring, responder,
                                                monkeypatch):
        # Uploads and a download in one process, with the responder in it too:
        # every sender sends the one process ring, drawn once.
        draws, senders = [], []
        urandom, pump = protocol.os.urandom, protocol.pump

        def counting(size):
            if size >= protocol.POOL_BYTES:  # not the 16-byte spec nonces
                draws.append(size)
            return urandom(size)

        def recording(sock, ring, *args):
            if ring is not None:
                senders.append(ring)
            return pump(sock, ring, *args)

        monkeypatch.setattr(protocol.os, "urandom", counting)
        monkeypatch.setattr(protocol, "pump", recording)
        # A new Engine per test, as the CLI makes.
        for direction in ("upload", "upload", "download"):
            record = run_loopback(responder, direction=direction, duration=0.5,
                                  n_connections=1)
            assert record.aggregate_trace.total_bytes > 0
        assert draws == [protocol.POOL_BYTES]
        assert len(senders) == 3
        assert all(ring is protocol.data_ring() for ring in senders)

    def test_three_uploads_start_one_draw_thread(self, fresh_data_ring, responder,
                                                 monkeypatch):
        # The in-process responder's accepts ask for the draw too.
        draws = []
        thread = threading.Thread

        def recording(*args, **kwargs):
            if kwargs.get("target") is protocol.data_ring:
                draws.append(None)
            return thread(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", recording)
        for _ in range(3):
            record = run_loopback(responder, direction="upload", duration=0.3,
                                  n_connections=1)
            assert record.aggregate_trace.total_bytes > 0
        assert len(draws) == 1

    def test_upload_ring_drawn_on_another_thread_during_the_probes(
            self, fresh_data_ring, responder, monkeypatch):
        drawn_on, drawing = [], threading.Event()
        urandom, probe = protocol.os.urandom, Engine.probe_latency

        def recording(size):
            if size >= protocol.POOL_BYTES:
                drawn_on.append(threading.get_ident())
                drawing.set()
            return urandom(size)

        def probe_then_see_the_draw(self, *args, **kwargs):
            stats = probe(self, *args, **kwargs)
            # A draw that starts only after the probes return never sets it.
            assert drawing.wait(timeout=10.0)
            return stats

        monkeypatch.setattr(protocol.os, "urandom", recording)
        monkeypatch.setattr(Engine, "probe_latency", probe_then_see_the_draw)
        record = run_loopback(responder, direction="upload", duration=0.5, n_connections=1)
        assert record.aggregate_trace.total_bytes > 0
        assert len(drawn_on) == 1 and drawn_on[0] != threading.get_ident()

    def test_one_engine_runs_overlapping_tests(self, responder, monkeypatch):
        # Two tests at once on one engine, on a path forced to count as a
        # counted interface: each record carries its own connections' wire
        # bytes, told apart by the nonce each data connection sends.
        nonce_of, wire_of = {}, {}
        send_frame, read_wire_bytes = protocol.send_frame, engine_mod._read_wire_bytes

        def recording_send(sock, kind, nonce, *args):
            if kind == protocol.START_DATA:
                nonce_of[sock.getsockname()] = nonce
            return send_frame(sock, kind, nonce, *args)

        def recording_read(sock):
            wire_of[sock.getsockname()] = read_wire_bytes(sock)
            return wire_of[sock.getsockname()]

        monkeypatch.setattr(engine_mod, "_crosses_counted_interface", lambda local, peer: True)
        monkeypatch.setattr(protocol, "send_frame", recording_send)
        monkeypatch.setattr(engine_mod, "_read_wire_bytes", recording_read)
        eng = quiet_engine()
        specs = [engine_mod.TestSpec(target="%s:%d" % responder.address, direction=direction,
                                     duration=1.0, n_connections=n)
                 for direction, n in (("download", 2), ("upload", 3))]
        records = [None] * len(specs)

        def run(i):
            records[i] = eng.run_test(specs[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(specs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        starts = [record.started_at_monotonic for record in records]
        assert abs(starts[0] - starts[1]) < 1.0  # the transfers overlapped
        assert len(wire_of) == 5
        for spec, record in zip(specs, records):
            assert record.spec is spec
            assert record.aggregate_trace.total_bytes > 0
            own = [wire_of[address] for address, nonce in nonce_of.items()
                   if nonce == spec.nonce]
            assert len(own) == spec.n_connections
            assert record.wire_bytes == sum(own) > 0
