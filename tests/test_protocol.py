"""Frame codec round-trips and malformed-input rejection."""

import io
import mmap
import os
import socket
import struct
import sys
import threading
import time

import pytest

from linerate import protocol


class BufferSock:
    """Minimal recv-only socket stand-in over a byte string."""

    def __init__(self, data: bytes):
        self._buf = io.BytesIO(data)

    def recv(self, n: int) -> bytes:
        return self._buf.read(n)


class TestFrameCodec:
    def test_round_trip_header_fields(self):
        nonce = bytes(range(16))
        raw = protocol.encode_frame(protocol.ECHO, nonce, b"ping")
        kind, got_nonce, payload = protocol.recv_frame(BufferSock(raw))
        assert kind == protocol.ECHO
        assert got_nonce == nonce
        assert payload == b"ping"

    def test_empty_payload_round_trip(self):
        raw = protocol.encode_frame(protocol.DONE, protocol.ZERO_NONCE)
        kind, nonce, payload = protocol.recv_frame(BufferSock(raw))
        assert kind == protocol.DONE
        assert nonce == protocol.ZERO_NONCE
        assert payload == b""

    def test_length_prefix_counts_kind_nonce_payload(self):
        raw = protocol.encode_frame(protocol.ECHO, protocol.ZERO_NONCE, b"abc")
        (length,) = struct.unpack("!I", raw[:4])
        assert length == 1 + 16 + 3
        assert len(raw) == 4 + length

    def test_back_to_back_frames(self):
        raw = protocol.encode_frame(protocol.ECHO, protocol.ZERO_NONCE, b"one")
        raw += protocol.encode_frame(protocol.ECHO_REPLY, protocol.ZERO_NONCE, b"two")
        sock = BufferSock(raw)
        assert protocol.recv_frame(sock)[2] == b"one"
        assert protocol.recv_frame(sock)[2] == b"two"

    def test_bad_nonce_length_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(protocol.ECHO, b"short")

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame(99, protocol.ZERO_NONCE)

    def test_unknown_kind_rejected_on_decode(self):
        body = bytes([99]) + protocol.ZERO_NONCE
        raw = struct.pack("!I", len(body)) + body
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_frame(BufferSock(raw))

    def test_truncated_body_rejected(self):
        body = bytes([protocol.HELLO]) + b"\x00" * 3  # shorter than a nonce
        raw = struct.pack("!I", len(body)) + body
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_frame(BufferSock(raw))

    def test_oversize_length_rejected(self):
        raw = struct.pack("!I", protocol.MAX_FRAME_BODY + 1)
        with pytest.raises(protocol.ProtocolError):
            protocol.recv_frame(BufferSock(raw))

    def test_early_close_raises_connection_error(self):
        raw = protocol.encode_frame(protocol.ECHO, protocol.ZERO_NONCE, b"ping")
        with pytest.raises(ConnectionError):
            protocol.recv_frame(BufferSock(raw[:10]))

    def test_send_recv_over_real_socketpair(self):
        left, right = socket.socketpair()
        try:
            nonce = b"\xaa" * 16
            sender = threading.Thread(
                target=protocol.send_frame, args=(left, protocol.ECHO, nonce, b"x" * 4096)
            )
            sender.start()
            kind, got_nonce, payload = protocol.recv_frame(right)
            sender.join()
            assert (kind, got_nonce, payload) == (protocol.ECHO, nonce, b"x" * 4096)
        finally:
            left.close()
            right.close()


class TestPayloadCodecs:
    def test_hello_round_trip(self):
        payload = protocol.pack_hello("upload", 10_000, 4)
        assert len(payload) == 9
        fields = protocol.unpack_hello(payload)
        assert fields == {
            "version": protocol.PROTOCOL_VERSION,
            "direction": "upload",
            "duration_ms": 10_000,
            "n_connections": 4,
        }

    def test_hello_carries_explicit_version(self):
        fields = protocol.unpack_hello(protocol.pack_hello("download", 5_000, 1, version=99))
        assert fields["version"] == 99

    def test_hello_wrong_size_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_hello(b"\x00" * 8)

    def test_load_round_trip(self):
        fields = protocol.unpack_load(protocol.pack_load(3, 8))
        assert fields == {"active_tests": 3, "max_tests": 8}

    def test_refuse_round_trip_all_reasons(self):
        for reason in protocol.REASON_NAMES:
            assert protocol.unpack_refuse(protocol.pack_refuse(reason)) == reason

    def test_refuse_unknown_reason_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.pack_refuse(77)
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_refuse(b"\x4d")

    def test_start_data_round_trip(self):
        assert protocol.unpack_start_data(protocol.pack_start_data(3)) == 3

    def test_done_summary_round_trip(self):
        entries = [(0, 12_345_678, 10_000), (1, 98_765, 9_998)]
        assert protocol.unpack_done_summary(protocol.pack_done_summary(entries)) == entries

    def test_done_summary_empty(self):
        assert protocol.unpack_done_summary(protocol.pack_done_summary([])) == []

    def test_done_summary_truncated_rejected(self):
        payload = protocol.pack_done_summary([(0, 1, 2)])
        with pytest.raises(protocol.ProtocolError):
            protocol.unpack_done_summary(payload[:-1])

    def test_direction_codes_are_inverse(self):
        for name in ("download", "upload"):
            assert protocol.direction_name(protocol.direction_code(name)) == name
        with pytest.raises(protocol.ProtocolError):
            protocol.direction_code("sideways")


def test_concurrent_first_calls_draw_one_data_ring(fresh_data_ring, monkeypatch):
    draws, rings = [], []
    urandom = protocol.os.urandom

    def counting(size):
        draws.append(size)
        time.sleep(0.01)  # hold the draw open while the other callers arrive
        return urandom(size)

    monkeypatch.setattr(protocol.os, "urandom", counting)
    callers = [threading.Thread(target=lambda: rings.append(protocol.data_ring()))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert draws == [protocol.POOL_BYTES]
    assert len(rings) == 8 and all(ring is rings[0] for ring in rings)
    assert len(rings[0].view) == protocol.POOL_BYTES + protocol.CHUNK_BYTES
    if rings[0].fd is not None:  # the memfd holds the same bytes
        assert os.pread(rings[0].fd, len(rings[0].view) + 1, 0) == rings[0].view


def test_background_draws_start_one_thread_per_process(fresh_data_ring, monkeypatch):
    started = []
    thread = threading.Thread

    def recording(*args, **kwargs):
        started.append(kwargs.get("target"))
        return thread(*args, **kwargs)

    monkeypatch.setattr(protocol.threading, "Thread", recording)
    callers = [thread(target=protocol.draw_data_ring_soon) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    protocol._drawing.join(timeout=10.0)
    assert not protocol._drawing.is_alive()
    protocol.draw_data_ring_soon()  # and none once the ring is drawn
    assert started == [protocol.data_ring]
    assert protocol._data_ring is not None


@pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="no os.memfd_create")
def test_ring_view_is_a_read_only_map_of_its_memfd(small_ring):
    view = small_ring.view
    assert view.readonly and type(view.obj) is mmap.mmap
    assert len(view) == protocol.CHUNK_BYTES + 12_345 + protocol.CHUNK_BYTES
    assert os.pread(small_ring.fd, len(view) + 1, 0) == view
    assert view[-protocol.CHUNK_BYTES :] == view[: protocol.CHUNK_BYTES]
    if os.path.isdir("/proc/self/fd"):  # the map's descriptor is the file's only one
        file = os.fstat(small_ring.fd)
        same = 0
        for name in os.listdir("/proc/self/fd"):
            try:
                same += os.path.samestat(os.fstat(int(name)), file)
            except OSError:
                pass
        assert same == 1


def test_ring_without_memfd_is_a_view_of_bytes(monkeypatch):
    monkeypatch.delattr(os, "memfd_create", raising=False)
    pool = os.urandom(protocol.CHUNK_BYTES + 12_345)
    ring = protocol.ring(pool)
    assert ring.fd is None and type(ring.view.obj) is bytes
    assert ring.view == pool + pool[: protocol.CHUNK_BYTES]
    assert ring.period == len(pool)


def tcp_pair() -> tuple[socket.socket, socket.socket]:
    with socket.create_server(("127.0.0.1", 0)) as listener:
        near = socket.create_connection(listener.getsockname())
        far, _ = listener.accept()
    return near, far


def reset(sock):
    """Close sock so that its peer sees a TCP reset, not an orderly EOF."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def pump_in_thread(sock, ring, deadline, counts, index=0, offset=0):
    """Start pump on a thread; the list it returns gets what pump raised."""
    raised = []

    def run():
        try:
            protocol.pump(sock, ring, deadline, counts, index, offset)
        except OSError as exc:
            raised.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, raised


def receive_until_eof(near, far):
    """Pump on near receives 1,000,003 bytes from far, counts them and returns at EOF."""
    counts = [0]
    try:
        def write_then_close():
            far.sendall(b"z" * 1_000_003)
            far.shutdown(socket.SHUT_WR)

        writer = threading.Thread(target=write_then_close)
        writer.start()
        near.settimeout(0.05)
        started = time.monotonic()
        protocol.pump(near, None, started + 20.0, counts, 0)
        assert time.monotonic() - started < 10.0  # returned at EOF, not the deadline
        writer.join(timeout=5.0)
        assert counts == [1_000_003]
    finally:
        near.close()
        far.close()


@pytest.mark.usefixtures("pump_path")
class TestPump:
    def test_sent_stream_is_the_ring_period_repeated(self, small_ring):
        # The period is whatever the ring holds beyond its trailing chunk.
        ring = small_ring
        pool = bytes(ring.view[: ring.period])
        left, right = socket.socketpair()
        sent = [0, 0]
        left.settimeout(0.05)
        try:
            sender, _raised = pump_in_thread(left, ring, time.monotonic() + 30.0, sent, 1)
            nbytes = 3 * len(pool) + 1
            blob = bytearray()
            right.settimeout(0.5)
            give_up = time.monotonic() + 10.0
            while len(blob) < nbytes and time.monotonic() < give_up:
                try:
                    blob += right.recv(nbytes - len(blob))
                except TimeoutError:
                    pass
            right.shutdown(socket.SHUT_RDWR)  # the sender's next send fails
            sender.join(timeout=5.0)
            assert not sender.is_alive()
            assert blob == (pool * 4)[:nbytes]
            assert sent[0] == 0 and sent[1] >= nbytes
        finally:
            left.close()
            right.close()

    def test_sent_stream_starts_at_its_offset(self, small_ring):
        # Offsets just before the wrap: the first chunk reads into the ring's
        # trailing copy, and later ones from the pool's start.
        ring = small_ring
        pool = bytes(ring.view[: ring.period])
        for offset in (ring.period - protocol.CHUNK_BYTES + 1, ring.period - 1):
            left, right = socket.socketpair()
            sent = [0]
            left.settimeout(0.05)
            sender, _raised = pump_in_thread(left, ring, time.monotonic() + 30.0, sent,
                                             offset=offset)
            try:
                right.settimeout(10.0)
                nbytes = 2 * protocol.CHUNK_BYTES + 1
                assert protocol.recv_exact(right, nbytes) == (pool * 3)[offset : offset + nbytes]
            finally:
                right.shutdown(socket.SHUT_RDWR)  # the sender's next send fails
                sender.join(timeout=5.0)
                left.close()
                right.close()
            assert not sender.is_alive()

    def test_receive_counts_every_byte_until_eof(self):
        receive_until_eof(*socket.socketpair())

    def test_receive_over_tcp_counts_every_byte_until_eof(self):
        # MSG_TRUNC discards only on TCP; an AF_UNIX receiver still copies.
        receive_until_eof(*tcp_pair())

    def test_receiver_opens_no_descriptor_of_its_own(self, open_fds):
        near, far = tcp_pair()
        counts = [0]
        try:
            before = open_fds()  # the two sockets are already open
            near.settimeout(0.05)
            receiver, raised = pump_in_thread(near, None, time.monotonic() + 30.0, counts)
            far.sendall(b"z" * 100_000)
            give_up = time.monotonic() + 10.0
            while counts[0] < 100_000 and time.monotonic() < give_up:
                time.sleep(0.01)
            during = open_fds()  # read while pump is still receiving
            far.shutdown(socket.SHUT_RDWR)  # the receiver reads EOF
            receiver.join(timeout=5.0)
            assert not receiver.is_alive() and raised == []
            assert counts == [100_000]
            assert during <= before
        finally:
            near.close()
            far.close()

    def test_sender_whose_peer_never_reads_returns_within_one_timeout_of_the_deadline(
            self, open_fds, small_ring):
        ring = small_ring
        before = open_fds()
        left, right = socket.socketpair()
        counts = [0]
        try:
            left.settimeout(0.2)
            # Long enough to fill both socket buffers.
            deadline = time.monotonic() + 0.5
            sender, raised = pump_in_thread(left, ring, deadline, counts)
            sender.join(timeout=5.0)
            late = time.monotonic() - deadline
            assert not sender.is_alive()
            assert 0.0 <= late < 0.2 + 0.15  # one timeout, plus scheduling slack
            assert raised == [] and counts[0] > 0
        finally:
            left.close()
            right.close()
        assert open_fds() <= before

    def test_receiver_of_a_silent_peer_returns_within_one_timeout_of_the_deadline(
            self, open_fds):
        before = open_fds()
        left, right = socket.socketpair()
        counts = [0]
        try:
            right.settimeout(0.2)
            deadline = time.monotonic() + 0.5
            cpu = time.thread_time()
            protocol.pump(right, None, deadline, counts, 0)
            late = time.monotonic() - deadline
            assert 0.0 <= late < 0.2 + 0.15  # one timeout, plus scheduling slack
            assert time.thread_time() - cpu < 0.25  # it waited, it did not spin
            assert counts == [0]
        finally:
            left.close()
            right.close()
        assert open_fds() <= before

    def test_sender_reset_by_its_peer_raises_and_keeps_its_count(self, open_fds, small_ring):
        ring = small_ring
        before = open_fds()
        near, far = tcp_pair()
        counts = [0]
        try:
            near.settimeout(0.05)
            sender, raised = pump_in_thread(near, ring, time.monotonic() + 30.0, counts)
            far.settimeout(5.0)
            received = len(protocol.recv_exact(far, 100_000))
            reset(far)
            sender.join(timeout=5.0)
            assert not sender.is_alive()
            assert len(raised) == 1 and isinstance(raised[0], OSError)
            assert counts[0] >= received
        finally:
            near.close()
            far.close()
        assert open_fds() <= before

    def test_receiver_reset_by_its_peer_raises_and_keeps_its_count(self, open_fds):
        before = open_fds()
        near, far = tcp_pair()
        counts = [0]
        try:
            near.settimeout(0.05)
            receiver, raised = pump_in_thread(near, None, time.monotonic() + 30.0, counts)
            far.sendall(b"z" * 100_000)
            give_up = time.monotonic() + 10.0
            while counts[0] < 100_000 and time.monotonic() < give_up:
                time.sleep(0.01)
            reset(far)
            receiver.join(timeout=5.0)
            assert not receiver.is_alive()
            assert len(raised) == 1 and isinstance(raised[0], OSError)
            assert counts == [100_000]
        finally:
            near.close()
            far.close()
        assert open_fds() <= before
