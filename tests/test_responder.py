"""Responder behavior over real loopback sockets."""

import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib

import pytest

from linerate import protocol
from linerate import responder as responder_mod
from linerate.protocol import POOL_BYTES as DATA_POOL_BYTES
from linerate.responder import MAX_TEST_DURATION_MS, Responder


def new_nonce() -> bytes:
    return os.urandom(protocol.NONCE_LEN)


def open_control(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def say_hello(sock, nonce, direction="download", duration_ms=2_000,
              n_connections=1, version=protocol.PROTOCOL_VERSION):
    payload = protocol.pack_hello(direction, duration_ms, n_connections, version=version)
    protocol.send_frame(sock, protocol.HELLO, nonce, payload)
    return protocol.recv_frame(sock)


def open_data(address, nonce, index=0) -> socket.socket:
    sock = socket.create_connection(address, timeout=10.0)
    protocol.send_frame(sock, protocol.START_DATA, nonce, protocol.pack_start_data(index))
    return sock


def fetch_summary(sock, nonce):
    protocol.send_frame(sock, protocol.DONE, nonce)
    kind, got_nonce, payload = protocol.recv_frame(sock)
    assert kind == protocol.DONE
    assert got_nonce == nonce
    return protocol.unpack_done_summary(payload)


def echo_round_trip(sock, payload=b"probe") -> float:
    t0 = time.monotonic()
    protocol.send_frame(sock, protocol.ECHO, protocol.ZERO_NONCE, payload)
    kind, _nonce, got = protocol.recv_frame(sock)
    rtt = time.monotonic() - t0
    assert kind == protocol.ECHO_REPLY
    assert got == payload
    return rtt


@pytest.fixture
def responder():
    server = Responder("127.0.0.1", 0).start()
    yield server
    server.stop()


class TestHandshake:
    def test_first_hello_on_idle_server(self, responder):
        nonce = new_nonce()
        with open_control(responder.address) as sock:
            kind, got_nonce, payload = say_hello(sock, nonce)
            assert kind == protocol.HELLO_ACK
            assert got_nonce == nonce
            load = protocol.unpack_load(payload)
            assert load == {"active_tests": 1, "max_tests": responder.max_tests}

    def test_version_mismatch_refused(self, responder):
        with open_control(responder.address) as sock:
            kind, _nonce, payload = say_hello(sock, new_nonce(), version=99)
            assert kind == protocol.REFUSE
            assert protocol.unpack_refuse(payload) == protocol.REASON_VERSION_MISMATCH

    def test_zero_connections_refused(self, responder):
        with open_control(responder.address) as sock:
            kind, _nonce, payload = say_hello(sock, new_nonce(), n_connections=0)
            assert kind == protocol.REFUSE
            assert protocol.unpack_refuse(payload) == protocol.REASON_BAD_PARAMS

    def test_huge_duration_refused_without_state_change(self, responder):
        before = responder.active_tests()
        with open_control(responder.address) as sock:
            kind, _nonce, payload = say_hello(sock, new_nonce(), duration_ms=2**32 - 1)
            assert kind == protocol.REFUSE
            assert protocol.unpack_refuse(payload) == protocol.REASON_BAD_PARAMS
            assert responder.active_tests() == before
            # The cap itself is still a valid duration.
            kind, _nonce, _payload = say_hello(sock, new_nonce(),
                                               duration_ms=MAX_TEST_DURATION_MS)
            assert kind == protocol.HELLO_ACK

    def test_duplicate_nonce_refused(self, responder):
        nonce = new_nonce()
        with open_control(responder.address) as first:
            assert say_hello(first, nonce)[0] == protocol.HELLO_ACK
            with open_control(responder.address) as second:
                kind, _n, payload = say_hello(second, nonce)
                assert kind == protocol.REFUSE
                assert protocol.unpack_refuse(payload) == protocol.REASON_BAD_PARAMS

    def test_third_concurrent_hello_refused_at_capacity(self):
        with Responder("127.0.0.1", 0, max_tests=2) as server:
            first = open_control(server.address)
            second = open_control(server.address)
            try:
                assert say_hello(first, new_nonce())[0] == protocol.HELLO_ACK
                assert say_hello(second, new_nonce())[0] == protocol.HELLO_ACK
                with open_control(server.address) as third:
                    kind, _n, payload = say_hello(third, new_nonce())
                    assert kind == protocol.REFUSE
                    assert protocol.unpack_refuse(payload) == protocol.REASON_AT_CAPACITY
            finally:
                first.close()
                second.close()

    def test_second_hello_on_one_connection_refused(self, responder):
        with open_control(responder.address) as sock:
            assert say_hello(sock, new_nonce())[0] == protocol.HELLO_ACK
            kind, _n, payload = say_hello(sock, new_nonce())
            assert kind == protocol.REFUSE
            assert protocol.unpack_refuse(payload) == protocol.REASON_BAD_PARAMS
            assert responder.active_tests() == 1
        # Closing the connection ends its one session and holds no other slot.
        deadline = time.monotonic() + 5.0
        while responder.active_tests() > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert responder.active_tests() == 0

    def test_slot_freed_when_control_connection_closes(self):
        with Responder("127.0.0.1", 0, max_tests=1) as server:
            sock = open_control(server.address)
            assert say_hello(sock, new_nonce())[0] == protocol.HELLO_ACK
            sock.close()
            deadline = time.monotonic() + 5.0
            while server.active_tests() > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            with open_control(server.address) as again:
                assert say_hello(again, new_nonce())[0] == protocol.HELLO_ACK

    def test_reaped_session_ending_leaves_the_session_that_reused_its_nonce(
            self, monkeypatch):
        monkeypatch.setattr(responder_mod, "SESSION_GRACE_S", 0.0)
        nonce = new_nonce()
        with Responder("127.0.0.1", 0, max_tests=1) as server:
            first = open_control(server.address)
            assert say_hello(first, nonce, duration_ms=1)[0] == protocol.HELLO_ACK
            (first_served_by,) = server._conns.values()
            time.sleep(0.05)  # past its deadline: the next HELLO reaps it
            with open_control(server.address) as second:
                kind, _n, _payload = say_hello(second, nonce, duration_ms=30_000)
                assert kind == protocol.HELLO_ACK
                first.close()
                first_served_by.join(5.0)  # it ends its own session, then exits
                assert not first_served_by.is_alive()
                assert server.active_tests() == 1
                with open_control(server.address) as third:
                    kind, _n, payload = say_hello(third, new_nonce())
                    assert kind == protocol.REFUSE
                    assert protocol.unpack_refuse(payload) == protocol.REASON_AT_CAPACITY

    def test_max_tests_default_follows_capacity_hint(self):
        assert Responder(capacity_hint_bps=4e9).max_tests == 4
        assert Responder(capacity_hint_bps=5e8).max_tests == 1  # never below one slot


class TestEcho:
    def test_echo_identity_without_session(self, responder):
        with open_control(responder.address) as sock:
            echo_round_trip(sock, b"payload-p")

    def test_ten_echoes_in_order(self, responder):
        with open_control(responder.address) as sock:
            for i in range(10):
                payload = b"probe-%02d" % i
                protocol.send_frame(sock, protocol.ECHO, protocol.ZERO_NONCE, payload)
                kind, _nonce, got = protocol.recv_frame(sock)
                assert kind == protocol.ECHO_REPLY
                assert got == payload

    def test_echo_nonce_reflected(self, responder):
        nonce = new_nonce()
        with open_control(responder.address) as sock:
            protocol.send_frame(sock, protocol.ECHO, nonce, b"x")
            _kind, got_nonce, _payload = protocol.recv_frame(sock)
            assert got_nonce == nonce

    def test_echo_whose_body_arrives_a_poll_after_its_prefix_is_answered(self, responder):
        frame = protocol.encode_frame(protocol.ECHO, protocol.ZERO_NONCE, b"late body")
        prefix = protocol.LENGTH_PREFIX.size
        assert 0.8 > responder_mod._POLL_S  # the body's first read times out
        with open_control(responder.address) as sock:
            sock.sendall(frame[:prefix])
            time.sleep(0.8)
            sock.sendall(frame[prefix:])
            kind, _nonce, got = protocol.recv_frame(sock)
            assert (kind, got) == (protocol.ECHO_REPLY, b"late body")

    def test_echo_latency_under_concurrent_bulk(self, responder):
        # The reply path must not queue behind bulk data.  Loaded echo RTT is
        # bounded by 10x the unloaded RTT; medians and a 1 ms floor keep
        # thread-scheduling noise out of the comparison.
        with open_control(responder.address) as probe:
            unloaded = statistics.median(echo_round_trip(probe) for _ in range(20))

        nonce = new_nonce()
        control = open_control(responder.address)
        assert say_hello(control, nonce, duration_ms=4_000, n_connections=2)[0] == protocol.HELLO_ACK
        stop = threading.Event()

        def pump(index):
            with open_data(responder.address, nonce, index) as data:
                while not stop.is_set():
                    if not data.recv(64 * 1024):
                        break

        pumps = [threading.Thread(target=pump, args=(i,)) for i in range(2)]
        for t in pumps:
            t.start()
        try:
            time.sleep(0.3)  # let the bulk streams reach full rate
            with open_control(responder.address) as probe:
                loaded = statistics.median(echo_round_trip(probe) for _ in range(20))
        finally:
            stop.set()
            control.close()
            for t in pumps:
                t.join(timeout=5.0)
        assert loaded <= 10 * max(unloaded, 0.001)


class TestServeData:
    def test_upload_count_is_exact(self, responder):
        nonce = new_nonce()
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, direction="upload",
                             duration_ms=10_000)[0] == protocol.HELLO_ACK
            with open_data(responder.address, nonce, index=0) as data:
                data.sendall(b"\x5a" * 1_048_576)
                data.shutdown(socket.SHUT_WR)
                assert data.recv(1) == b""  # responder finished counting
            summary = fetch_summary(control, nonce)
            assert len(summary) == 1
            index, nbytes, _duration_ms = summary[0]
            assert index == 0
            assert nbytes == 1_048_576

    def test_unknown_nonce_refused_without_state_change(self, responder):
        nonce = new_nonce()
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, direction="upload",
                             duration_ms=10_000)[0] == protocol.HELLO_ACK
            before = responder.active_tests()
            rogue = socket.create_connection(responder.address, timeout=10.0)
            protocol.send_frame(rogue, protocol.START_DATA, new_nonce(),
                                protocol.pack_start_data(0))
            kind, _nonce, payload = protocol.recv_frame(rogue)
            assert kind == protocol.REFUSE
            assert protocol.unpack_refuse(payload) == protocol.REASON_BAD_PARAMS
            rogue.close()
            assert responder.active_tests() == before
            assert fetch_summary(control, nonce) == []

    def test_extra_data_connection_refused(self, responder):
        nonce = new_nonce()
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, n_connections=1,
                             duration_ms=10_000)[0] == protocol.HELLO_ACK
            first = open_data(responder.address, nonce, index=0)
            try:
                # Wait until the first connection is streaming, so it is the
                # one attached and the second is the extra one.
                assert first.recv(1)
                with socket.create_connection(responder.address, timeout=10.0) as second:
                    protocol.send_frame(second, protocol.START_DATA, nonce,
                                        protocol.pack_start_data(1))
                    kind, _n, payload = protocol.recv_frame(second)
                    assert kind == protocol.REFUSE
                    assert protocol.unpack_refuse(payload) == protocol.REASON_BAD_PARAMS
            finally:
                first.close()

    def test_download_terminates_at_deadline(self, responder):
        nonce = new_nonce()
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, duration_ms=1_000)[0] == protocol.HELLO_ACK
            got = 0
            started = time.monotonic()
            with open_data(responder.address, nonce, index=0) as data:
                data.settimeout(10.0)
                while True:
                    chunk = data.recv(64 * 1024)
                    if not chunk:
                        break
                    got += len(chunk)
            elapsed = time.monotonic() - started
            assert got > 0
            assert elapsed < 3.0  # 1 s deadline plus comfortable slack

    def test_two_concurrent_sessions_count_independently(self, responder):
        sizes = {0: 700_000, 1: 300_000}
        results = {}

        def run_client(slot):
            nonce = new_nonce()
            with open_control(responder.address) as control:
                assert say_hello(control, nonce, direction="upload",
                                 duration_ms=10_000)[0] == protocol.HELLO_ACK
                with open_data(responder.address, nonce, index=0) as data:
                    data.sendall(os.urandom(sizes[slot]))
                    data.shutdown(socket.SHUT_WR)
                    data.recv(1)
                results[slot] = fetch_summary(control, nonce)[0][1]

        threads = [threading.Thread(target=run_client, args=(slot,)) for slot in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20.0)
        assert results == sizes

    def test_killing_one_session_leaves_other_counts_intact(self, responder):
        def upload_exact(nbytes) -> int:
            nonce = new_nonce()
            with open_control(responder.address) as control:
                assert say_hello(control, nonce, direction="upload",
                                 duration_ms=10_000)[0] == protocol.HELLO_ACK
                with open_data(responder.address, nonce, index=0) as data:
                    data.sendall(b"\xa5" * nbytes)
                    data.shutdown(socket.SHUT_WR)
                    data.recv(1)
                return fetch_summary(control, nonce)[0][1]

        solo = upload_exact(1_048_576)

        victim_nonce = new_nonce()
        victim_control = open_control(responder.address)
        assert say_hello(victim_control, victim_nonce,
                         duration_ms=10_000)[0] == protocol.HELLO_ACK
        victim_data = open_data(responder.address, victim_nonce, index=0)
        victim_data.recv(64 * 1024)  # transfer is live
        # Kill the victim mid-stream, then run the same upload alongside reaping.
        victim_data.close()
        victim_control.close()
        assert upload_exact(1_048_576) == solo == 1_048_576

    def test_served_bytes_resist_compression(self, responder):
        nonce = new_nonce()
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, duration_ms=5_000)[0] == protocol.HELLO_ACK
            block = bytearray()
            with open_data(responder.address, nonce, index=0) as data:
                data.settimeout(10.0)
                while len(block) < 1_048_576:
                    chunk = data.recv(64 * 1024)
                    if not chunk:
                        break
                    block.extend(chunk)
        block = bytes(block[:1_048_576])
        assert len(block) == 1_048_576
        compressed = zlib.compress(block, 9)
        assert len(compressed) > 0.99 * len(block)

    # The ring is drawn in the test, in the form the pump path sends from.
    @pytest.mark.usefixtures("pump_path")
    def test_download_stream_is_the_session_pool_repeated(self, fresh_data_ring, responder,
                                                          ring_bytes):
        # Past the end of the pool and one chunk beyond: every send slices the
        # process ring from the session's offset, so a wrong offset at the wrap
        # would corrupt the stream.
        nbytes = DATA_POOL_BYTES + 2 * protocol.CHUNK_BYTES
        nonce = new_nonce()
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, duration_ms=10_000)[0] == protocol.HELLO_ACK
            with open_data(responder.address, nonce, index=0) as data:
                data.settimeout(10.0)
                got = protocol.recv_exact(data, nbytes)
        pool = ring_bytes(protocol.data_ring())[:DATA_POOL_BYTES]
        start = int.from_bytes(nonce, "big") % DATA_POOL_BYTES
        assert got == (pool * 3)[start : start + nbytes]

    def test_every_ring_slice_is_the_pool_repeated(self, responder, ring_bytes):
        # On loopback every send is a full chunk, so a stream crosses the wrap
        # only where its start puts it; partial sends on real links stop
        # anywhere.  A session's nonce sets its start, so start sessions at the
        # offsets around the wrap.
        chunk = protocol.CHUNK_BYTES
        for offset in (0, 1, DATA_POOL_BYTES - chunk, DATA_POOL_BYTES - chunk + 1,
                       DATA_POOL_BYTES - 12_345, DATA_POOL_BYTES - 1):
            nonce = (7 * DATA_POOL_BYTES + offset).to_bytes(protocol.NONCE_LEN, "big")
            with open_control(responder.address) as control:
                assert say_hello(control, nonce, duration_ms=3_000)[0] == protocol.HELLO_ACK
                with open_data(responder.address, nonce, index=0) as data:
                    data.settimeout(10.0)
                    got = protocol.recv_exact(data, chunk)
            pool = ring_bytes(protocol.data_ring())[:DATA_POOL_BYTES]
            assert got == (pool + pool)[offset : offset + chunk]

    def test_one_ring_memfd_per_process(self, responder):
        if not protocol._IN_KERNEL or not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd, or no kernel data path")

        def ring_memfds() -> int:
            count = 0
            for fd in os.listdir("/proc/self/fd"):
                try:
                    count += os.readlink(f"/proc/self/fd/{fd}").startswith(
                        "/memfd:linerate-ring")
                except OSError:
                    pass  # closed since it was listed
            return count

        def memfds_during_download(n_connections) -> int:
            nonce = new_nonce()
            with open_control(responder.address) as control:
                assert say_hello(control, nonce, duration_ms=10_000,
                                 n_connections=n_connections)[0] == protocol.HELLO_ACK
                data = [open_data(responder.address, nonce, index=i)
                        for i in range(n_connections)]
                try:
                    for sock in data:  # every sender has started sending
                        sock.settimeout(10.0)
                        protocol.recv_exact(sock, 4096)
                    return ring_memfds()
                finally:
                    for sock in data:
                        sock.close()

        # The process ring's memfd, and nothing per connection or session.
        assert memfds_during_download(16) == 1
        assert memfds_during_download(16) == 1

    def test_distinct_sessions_serve_distinct_streams(self, responder):
        def first_chunk() -> bytes:
            nonce = new_nonce()
            with open_control(responder.address) as control:
                assert say_hello(control, nonce, duration_ms=3_000)[0] == protocol.HELLO_ACK
                with open_data(responder.address, nonce, index=0) as data:
                    return protocol.recv_exact(data, 4096)

        assert first_chunk() != first_chunk()


class TestDataRingDraw:
    @staticmethod
    def count_draws(monkeypatch) -> list:
        draws, urandom = [], protocol.os.urandom

        def counting(size):
            if size >= DATA_POOL_BYTES:  # not the 16-byte nonces
                draws.append(size)
            return urandom(size)

        monkeypatch.setattr(protocol.os, "urandom", counting)
        return draws

    def test_start_draws_nothing(self, fresh_data_ring, monkeypatch):
        draws = self.count_draws(monkeypatch)
        with Responder("127.0.0.1", 0):
            time.sleep(0.2)
        assert draws == []
        assert protocol._drawing is None and protocol._data_ring is None

    def test_a_client_that_only_echoes_gets_the_ring_drawn(self, fresh_data_ring,
                                                           monkeypatch):
        draws = self.count_draws(monkeypatch)
        with Responder("127.0.0.1", 0) as server:
            with open_control(server.address) as sock:
                echo_round_trip(sock)
            deadline = time.monotonic() + 10.0
            while protocol._drawing is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert protocol._drawing is not None
            protocol._drawing.join(timeout=10.0)
            assert not protocol._drawing.is_alive()
        assert draws == [DATA_POOL_BYTES]
        assert protocol._data_ring is not None


class TestAdmissionStorm:
    def test_sixteen_concurrent_hellos_two_slots(self):
        with Responder("127.0.0.1", 0, max_tests=2) as server:
            outcomes = []
            outcomes_lock = threading.Lock()
            hold = threading.Event()
            replied = threading.Barrier(17, timeout=30.0)

            def contender():
                with open_control(server.address) as sock:
                    kind, _nonce, payload = say_hello(sock, new_nonce(), duration_ms=10_000)
                    if kind == protocol.REFUSE:
                        outcome = ("refuse", protocol.unpack_refuse(payload))
                    else:
                        outcome = ("ack", kind)
                    with outcomes_lock:
                        outcomes.append(outcome)
                    replied.wait()
                    hold.wait(timeout=30.0)  # keep winners' sessions open

            threads = [threading.Thread(target=contender) for _ in range(16)]
            for t in threads:
                t.start()
            replied.wait()  # all 16 have their answer, winners still connected
            acks = [o for o in outcomes if o == ("ack", protocol.HELLO_ACK)]
            refusals = [o for o in outcomes if o == ("refuse", protocol.REASON_AT_CAPACITY)]
            active_during_hold = server.active_tests()
            hold.set()
            for t in threads:
                t.join(timeout=30.0)
            assert len(acks) == 2
            assert len(refusals) == 14
            assert len(outcomes) == 16
            assert active_during_hold == 2


class TestThreads:
    def test_finished_connections_leave_no_threads(self):
        with Responder("127.0.0.1", 0) as server:
            baseline = threading.active_count()
            for _ in range(100):
                # One echo per client: its connection is accepted and served
                # before the next client connects.
                with open_control(server.address) as sock:
                    echo_round_trip(sock)
            deadline = time.monotonic() + 2.0
            while threading.active_count() > baseline and time.monotonic() < deadline:
                time.sleep(0.02)
            assert threading.active_count() == baseline
            assert len(server._conns) < 10


class TestUnknownKind:
    def test_kind_8_is_refused_like_any_unknown_kind(self, responder):
        # Hand-built: encode_frame refuses a kind the protocol does not name.
        frame = protocol.LENGTH_PREFIX.pack(1 + protocol.NONCE_LEN) + bytes([8]) + new_nonce()
        with open_control(responder.address) as sock:
            sock.sendall(frame)
            kind, _nonce, payload = protocol.recv_frame(sock)
            assert kind == protocol.REFUSE
            assert protocol.unpack_refuse(payload) == protocol.REASON_BAD_PARAMS


class TestRefusalsThatChangeNothing:
    """A HELLO or START_DATA of the wrong length, or a START_DATA too late for its session:
    each is refused as bad params, touches no session, and its handler ends with its
    connection."""

    @pytest.fixture
    def threads_settle(self):
        # The process ring is drawn first, so no draw thread starts in the test.
        protocol.data_ring()
        before = set(threading.enumerate())
        yield
        deadline = time.monotonic() + 5.0
        while not set(threading.enumerate()) <= before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert set(threading.enumerate()) <= before

    @staticmethod
    def assert_refused_as_bad_params(sock, nonce):
        kind, got_nonce, payload = protocol.recv_frame(sock)
        assert (kind, got_nonce) == (protocol.REFUSE, nonce)
        assert protocol.unpack_refuse(payload) == protocol.REASON_BAD_PARAMS

    def test_hello_whose_payload_is_the_wrong_length(self, responder, threads_settle):
        nonce = new_nonce()
        hello = protocol.pack_hello("download", 2_000, 1)
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, duration_ms=10_000)[0] == protocol.HELLO_ACK
            session = responder._sessions[nonce]
            before = responder.active_tests()
            for payload in (hello[:-1], hello + b"\0"):
                with open_control(responder.address) as sock:
                    other = new_nonce()
                    protocol.send_frame(sock, protocol.HELLO, other, payload)
                    self.assert_refused_as_bad_params(sock, other)
                    assert other not in responder._sessions
            assert responder.active_tests() == before
            assert session.attached_connections == 0

    def test_start_data_whose_payload_is_the_wrong_length(self, responder, threads_settle):
        nonce = new_nonce()
        start = protocol.pack_start_data(0)
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, direction="upload",
                             duration_ms=10_000)[0] == protocol.HELLO_ACK
            session = responder._sessions[nonce]
            before = responder.active_tests()
            for payload in (start[:-1], start + b"\0"):
                with socket.create_connection(responder.address, timeout=10.0) as data:
                    protocol.send_frame(data, protocol.START_DATA, nonce, payload)
                    self.assert_refused_as_bad_params(data, nonce)
                    assert data.recv(1) == b""  # the responder closed it
            assert responder.active_tests() == before
            assert session.attached_connections == 0
            assert fetch_summary(control, nonce) == []

    def test_start_data_past_the_deadline_of_a_session_not_yet_reaped(
            self, responder, threads_settle):
        nonce = new_nonce()
        with open_control(responder.address) as control:
            assert say_hello(control, nonce, direction="upload",
                             duration_ms=1)[0] == protocol.HELLO_ACK
            session = responder._sessions[nonce]
            time.sleep(0.05)
            # Past its deadline, but well inside the grace before it is reaped.
            assert session.deadline < time.monotonic()
            before = responder.active_tests()
            assert before == 1
            with socket.create_connection(responder.address, timeout=10.0) as data:
                protocol.send_frame(data, protocol.START_DATA, nonce,
                                    protocol.pack_start_data(0))
                self.assert_refused_as_bad_params(data, nonce)
                assert data.recv(1) == b""  # the responder closed it
            assert responder.active_tests() == before
            assert session.attached_connections == 0


class TestStop:
    def test_stop_wakes_idle_and_streaming_connections_at_once(self):
        before = set(threading.enumerate())
        server = Responder("127.0.0.1", 0).start()
        nonce = new_nonce()
        with open_control(server.address) as idle, open_control(server.address) as control:
            echo_round_trip(idle)
            assert say_hello(control, nonce, duration_ms=30_000)[0] == protocol.HELLO_ACK
            with open_data(server.address, nonce) as data:
                assert data.recv(65536)  # the download is streaming
                started = time.monotonic()
                server.stop()
                took = time.monotonic() - started
                # No wait loop: every thread the responder started has ended.
                assert set(threading.enumerate()) - before == set()
            idle.settimeout(2.0)
            assert idle.recv(1) == b""
        assert took < 0.3

    def test_stop_before_start_and_twice_is_harmless(self):
        Responder("127.0.0.1", 0).stop()
        server = Responder("127.0.0.1", 0).start()
        server.stop()
        server.stop()


class TestMain:
    def test_listen_address_without_port_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            responder_mod.main(["--listen", "nohost"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--listen", "127.0.0.1:0", "--max-tests", "0"],
        ["--listen", "127.0.0.1:0", "--max-tests", "-3"],
        ["--listen", "127.0.0.1:99999"],
    ], ids=["max-tests-0", "max-tests-negative", "port-out-of-range"])
    def test_bad_value_is_a_usage_error_before_binding(self, monkeypatch, argv):
        monkeypatch.setattr(responder_mod.Responder, "start",
                            lambda self: pytest.fail("a bad value reached the listener"))
        with pytest.raises(SystemExit) as exit_info:
            responder_mod.main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("hint", ["inf", "nangbps"])
    def test_non_finite_capacity_hint_is_a_usage_error(self, hint):
        with pytest.raises(SystemExit) as exit_info:
            responder_mod.main(["--listen", "127.0.0.1:0", "--capacity-hint", hint])
        assert exit_info.value.code == 2

    def test_unbindable_address_is_a_usage_error(self, open_fds):
        # The listener is AF_INET, so an IPv6 host cannot be bound.
        before = open_fds()
        with pytest.raises(SystemExit) as exit_info:
            responder_mod.main(["--listen", "[::1]:17790"])
        assert exit_info.value.code == 2
        assert open_fds() <= before  # the listener socket was closed

    def test_port_in_use_is_a_usage_error(self, open_fds):
        with socket.create_server(("127.0.0.1", 0)) as holder:
            before = open_fds()
            with pytest.raises(SystemExit) as exit_info:
                responder_mod.main(["--listen", "127.0.0.1:%d" % holder.getsockname()[1]])
            assert exit_info.value.code == 2
            assert open_fds() <= before

    def test_listening_line_reaches_a_pipe_at_once_without_unbuffered_output(self):
        # A supervisor that listens on port 0 reads the port from this line.
        src = os.path.dirname(os.path.dirname(responder_mod.__file__))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        child = subprocess.Popen(
            [sys.executable, "-m", "linerate.responder", "--listen", "127.0.0.1:0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            readable, _, _ = select.select([child.stdout], [], [], 2.0)
            assert readable, "no line within 2 s"
            assert child.stdout.readline().startswith("listening on 127.0.0.1:")
            child.send_signal(signal.SIGINT)
            assert child.wait(timeout=2) == 0, child.stderr.read()
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
            child.stderr.close()

    def test_module_run_imports_once_and_exits_zero_on_sigint(self):
        # runpy warns when the package import has already loaded the module it
        # is about to run as __main__; -W error turns that warning into exit 1.
        src = os.path.dirname(os.path.dirname(responder_mod.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        child = subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "linerate.responder",
             "--listen", "127.0.0.1:0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            assert line.startswith("listening on "), (line, child.stderr.read())
            child.send_signal(signal.SIGINT)
            assert child.wait(timeout=2) == 0, child.stderr.read()
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
            child.stderr.close()
