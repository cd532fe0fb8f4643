"""Measurement responder: the server side of a speed test.

Accepts control handshakes, answers latency echoes, streams or drains bulk
test traffic, and enforces an explicit admission limit so an overloaded
server refuses tests instead of silently skewing them.  Every accepted test
gets a session keyed by the client's nonce; data connections bind to a
session by presenting that nonce in a single start_data frame, then carry a
raw byte stream.

Echo replies never queue behind bulk data because control and data travel on
separate connections.
"""

import argparse
import logging
import socket
import threading
import time
from dataclasses import dataclass, field

from . import protocol, units

log = logging.getLogger(__name__)

DEFAULT_LISTEN = "0.0.0.0:7777"
DEFAULT_MAX_TESTS = 8
# Admission sizing when only an access-rate hint is given: budget one slot
# per 1 Gbps so concurrent tests cannot outrun the server's own link.
PER_TEST_PEAK_BPS = 1_000_000_000
SESSION_GRACE_S = 5.0
MAX_CONNECTIONS_PER_TEST = 64
# Longest test a HELLO may ask for: an admitted session holds a slot and may
# stream for its whole duration.
MAX_TEST_DURATION_MS = 3_600_000
# Timeout of every send and recv on a connection. A send to a client that
# stops reading fails after it, and that ends the connection.
_POLL_S = 0.5


@dataclass
class SessionState:
    """One accepted test: identity, admission bookkeeping, transfer tallies.

    deadline is the test end; reaping waits a further SESSION_GRACE_S so the
    client can still collect its summary.  A download session's connections
    send the process's ``protocol.data_ring``, from an offset its nonce sets.
    """

    nonce: bytes
    direction: str
    duration_ms: int
    expected_connections: int
    deadline: float
    attached_connections: int = 0
    transfers: list = field(default_factory=list)  # (index, bytes, duration_ms)
    cond: threading.Condition = field(default_factory=threading.Condition, repr=False)


class Responder:
    """Threaded TCP server speaking the framed control protocol."""

    def __init__(self, host="127.0.0.1", port=0, max_tests=None, capacity_hint_bps=None):
        if max_tests is None:
            if capacity_hint_bps:
                max_tests = max(1, int(capacity_hint_bps // PER_TEST_PEAK_BPS))
            else:
                max_tests = DEFAULT_MAX_TESTS
        if max_tests < 1:
            raise ValueError("max_tests must be at least 1")
        self.max_tests = max_tests
        self._host = host
        self._port = port
        self._lock = threading.Lock()
        self._sessions: dict[bytes, SessionState] = {}
        self._listener = None
        self._accept_thread = None
        self._conns: dict[socket.socket, threading.Thread] = {}  # each open one's server
        self._stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(128)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self._stop.clear()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        log.info("responder listening on %s:%d, max_tests=%d", *self.address, self.max_tests)
        return self

    def stop(self):
        # shutdown(), not close(), wakes a thread blocked in accept, recv or
        # send on the socket at once; a data connection's pump ends there.
        with self._lock:
            self._stop.set()
            conns = dict(self._conns)
        if self._listener is None:
            return  # never started
        for sock in [self._listener, *conns]:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed
                pass
        for thread in [self._accept_thread, *conns.values()]:
            thread.join(timeout=5.0)
        self._listener.close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def active_tests(self) -> int:
        with self._lock:
            self._reap_expired_locked()
            return len(self._sessions)

    # -- connection handling -----------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # stop() shut the listener down
            thread = threading.Thread(target=self._handle_connection, args=(conn,), daemon=True)
            with self._lock:  # started under the lock: stop() joins only started threads
                if self._stop.is_set():
                    conn.close()  # accepted while stop() runs: closed, not served
                    return
                self._conns[conn] = thread
                thread.start()
            # A linerate client probes for about 180 ms before its HELLO, far
            # longer than a draw takes, so the ring is ready by its first
            # download. Started after the handler, the draw does not delay the
            # client's first echo.
            protocol.draw_data_ring_soon()

    def _handle_connection(self, conn):
        session = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(_POLL_S)
            while True:
                try:
                    kind, nonce, payload = protocol.recv_frame(conn)
                except TimeoutError:
                    continue
                if kind == protocol.ECHO:
                    protocol.send_frame(conn, protocol.ECHO_REPLY, nonce, payload)
                elif kind == protocol.HELLO and session is None:
                    # One session per control connection: closing it ends
                    # that session, so a second HELLO here is refused below.
                    session = self._handle_hello(conn, nonce, payload)
                elif kind == protocol.START_DATA:
                    self._serve_data(conn, nonce, payload)
                    return
                elif kind == protocol.DONE and session is not None:
                    # Data connections may still be flushing their tallies;
                    # give them a moment so the summary is complete.
                    with session.cond:
                        session.cond.wait_for(
                            lambda: len(session.transfers) >= session.attached_connections,
                            timeout=2.0,
                        )
                        entries = sorted(session.transfers)
                    summary = protocol.pack_done_summary(entries)
                    protocol.send_frame(conn, protocol.DONE, session.nonce, summary)
                else:
                    reason = protocol.pack_refuse(protocol.REASON_BAD_PARAMS)
                    protocol.send_frame(conn, protocol.REFUSE, nonce, reason)
        except protocol.ProtocolError:
            self._refuse_quietly(conn, protocol.ZERO_NONCE, protocol.REASON_BAD_PARAMS)
        except (ConnectionError, OSError):
            pass
        finally:
            with self._lock:
                del self._conns[conn]
            try:
                conn.close()
            except OSError:
                pass
            if session is not None:
                self._end_session(session)

    def _refuse_quietly(self, conn, nonce, reason):
        try:
            protocol.send_frame(conn, protocol.REFUSE, nonce, protocol.pack_refuse(reason))
        except OSError:
            pass

    # -- control operations --------------------------------------------------

    def _handle_hello(self, conn, nonce, payload):
        """Admit or refuse one test; on admission return its SessionState."""
        try:
            fields = protocol.unpack_hello(payload)
        except protocol.ProtocolError:
            self._refuse_quietly(conn, nonce, protocol.REASON_BAD_PARAMS)
            return None
        if fields["version"] != protocol.PROTOCOL_VERSION:
            self._refuse_quietly(conn, nonce, protocol.REASON_VERSION_MISMATCH)
            return None
        if not (0 < fields["duration_ms"] <= MAX_TEST_DURATION_MS) or not (
            1 <= fields["n_connections"] <= MAX_CONNECTIONS_PER_TEST
        ):
            self._refuse_quietly(conn, nonce, protocol.REASON_BAD_PARAMS)
            return None

        # Admission is atomic: reap, check, insert under one lock.
        session = None
        refuse_reason = None
        with self._lock:
            self._reap_expired_locked()
            if len(self._sessions) >= self.max_tests:
                refuse_reason = protocol.REASON_AT_CAPACITY
            elif nonce in self._sessions:
                refuse_reason = protocol.REASON_BAD_PARAMS
            else:
                session = SessionState(
                    nonce=nonce,
                    direction=fields["direction"],
                    duration_ms=fields["duration_ms"],
                    expected_connections=fields["n_connections"],
                    deadline=time.monotonic() + fields["duration_ms"] / 1000.0,
                )
                self._sessions[nonce] = session
            active = len(self._sessions)

        if session is None:
            self._refuse_quietly(conn, nonce, refuse_reason)
            return None
        # The process's ring has been drawing since this client connected and
        # is drawn by now, unless the client skipped its probes; then this
        # waits for the draw, so the ring is ready when the client's window
        # opens. The session's window opens after it. start() draws nothing,
        # so a responder no client reaches holds no ring.
        if session.direction == "download":
            protocol.data_ring()
        session.deadline = time.monotonic() + session.duration_ms / 1000.0
        load = protocol.pack_load(active, self.max_tests)
        protocol.send_frame(conn, protocol.HELLO_ACK, nonce, load)
        log.info("session %s admitted: %s, %d connections, %d ms",
                 nonce.hex()[:8], session.direction, session.expected_connections,
                 session.duration_ms)
        return session

    def _end_session(self, session):
        with self._lock:
            # A reaped session's nonce may be held by a newer session by now.
            if self._sessions.get(session.nonce) is session:
                del self._sessions[session.nonce]
        log.info("session %s ended", session.nonce.hex()[:8])

    def _reap_expired_locked(self):
        now = time.monotonic()
        expired = [n for n, s in self._sessions.items()
                   if s.deadline + SESSION_GRACE_S < now]
        for nonce in expired:
            del self._sessions[nonce]

    # -- data plane ----------------------------------------------------------

    def _serve_data(self, conn, nonce, payload):
        try:
            index = protocol.unpack_start_data(payload)
        except protocol.ProtocolError:
            self._refuse_quietly(conn, nonce, protocol.REASON_BAD_PARAMS)
            return
        with self._lock:
            session = self._sessions.get(nonce)
            if session is not None and session.deadline < time.monotonic():
                session = None
        if session is None:
            # Unknown or expired nonce: refuse and close, touch nothing.
            self._refuse_quietly(conn, nonce, protocol.REASON_BAD_PARAMS)
            return
        with session.cond:
            if session.attached_connections >= session.expected_connections:
                over = True
            else:
                over = False
                session.attached_connections += 1
        if over:
            self._refuse_quietly(conn, nonce, protocol.REASON_BAD_PARAMS)
            return

        counts = [0]
        started = time.monotonic()
        # Every download sends the one process ring, each session from its
        # own offset, so distinct sessions serve distinct streams.
        ring = protocol.data_ring() if session.direction == "download" else None
        offset = int.from_bytes(nonce, "big") % protocol.POOL_BYTES
        try:
            protocol.pump(conn, ring, session.deadline, counts, 0, offset)
        except OSError:
            pass  # the peer went away; what moved before that still counts
        duration_ms = int((time.monotonic() - started) * 1000)
        with session.cond:
            session.transfers.append((index, counts[0], duration_ms))
            session.cond.notify_all()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="linerate-responder",
        description="Measurement server: answers latency echoes and serves bulk test traffic.",
    )
    parser.add_argument("--listen", default=DEFAULT_LISTEN, metavar="ADDR:PORT",
                        help=f"bind address (default {DEFAULT_LISTEN})")
    parser.add_argument("--max-tests", type=int, default=None,
                        help="concurrent test sessions to admit")
    parser.add_argument("--capacity-hint", default=None, metavar="RATE",
                        help="server access rate, e.g. 1gbps; sizes the admission "
                             "limit when --max-tests is not given")
    parser.add_argument("--verbose", action="store_true", help="log session lifecycle")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(levelname)s %(message)s",
    )
    try:
        host, port = units.parse_address(args.listen)
        hint = units.parse_rate(args.capacity_hint) if args.capacity_hint else None
        responder = Responder(host, port, max_tests=args.max_tests, capacity_hint_bps=hint)
    except ValueError as exc:
        parser.error(str(exc))  # before anything binds: start() opens the listener

    try:
        responder.start()
    except OSError as exc:  # unresolvable, wrong address family or in use
        parser.error(f"cannot listen on {args.listen}: {exc}")
    print(f"listening on {responder.address[0]}:{responder.address[1]} "
          f"(max {responder.max_tests} concurrent tests)", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        responder.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
