"""Length-prefixed binary control framing shared by the engine and responder.

Frame layout on the wire:

    [4 bytes - big-endian length of everything after this field]
    [1 byte  - message kind]
    [16 bytes - test nonce]
    [N bytes - kind-specific payload]

Control connections speak frames for their whole lifetime.  Data connections
send a single START_DATA frame to bind themselves to a session, then carry a
raw byte stream with no further framing.  Both ends move that stream through
``pump``: the engine and the responder send and receive with the same loop,
and a data connection ends at its deadline, at EOF or on a socket error.
Shutting a socket down wakes a ``pump`` blocked on it at once, which is how a
responder that stops ends its data connections.
Every sender in a process sends from one ring, ``data_ring``, drawn once, on
a thread of its own that ``draw_data_ring_soon`` starts before the first
test needs it.  On Linux the ring's bytes are held once, in an in-memory
file, and its ``view`` is a read-only map of that file.  There ``pump`` keeps
the payload in the kernel: a sender sends from the ring's file with
``os.sendfile``, and a receiver passes ``MSG_TRUNC`` to ``recv_into``, with
which TCP frees the received bytes instead of copying them out (tcp(7),
since Linux 2.4).  Elsewhere it sends ring slices and receives into a
buffer.  The choice is made once, at import.
"""

import mmap
import os
import select
import socket
import struct
import sys
import threading
import time
from typing import NamedTuple

PROTOCOL_VERSION = 1

NONCE_LEN = 16
LENGTH_PREFIX = struct.Struct("!I")
MAX_FRAME_BODY = 1 << 20  # control frames are tiny; anything near this is garbage
# Largest piece of the raw stream one call of ``pump`` moves, on both ends of
# a data connection.
CHUNK_BYTES = 256 * 1024
# Period of the byte pattern a sender repeats on a data connection.
POOL_BYTES = 4 * 1024 * 1024

# Message kinds.
HELLO = 1
HELLO_ACK = 2
REFUSE = 3
ECHO = 4
ECHO_REPLY = 5
START_DATA = 6
DONE = 7

KIND_NAMES = {
    HELLO: "hello",
    HELLO_ACK: "hello_ack",
    REFUSE: "refuse",
    ECHO: "echo",
    ECHO_REPLY: "echo_reply",
    START_DATA: "start_data",
    DONE: "done",
}

# Refusal reason codes carried in a REFUSE payload.
REASON_VERSION_MISMATCH = 1
REASON_AT_CAPACITY = 2
REASON_BAD_PARAMS = 3

REASON_NAMES = {
    REASON_VERSION_MISMATCH: "version_mismatch",
    REASON_AT_CAPACITY: "at_capacity",
    REASON_BAD_PARAMS: "bad_params",
}

# Direction codes used in the HELLO payload.
DIR_DOWNLOAD = 0
DIR_UPLOAD = 1

_HELLO_PAYLOAD = struct.Struct("!HBIH")  # version, direction, duration_ms, n_connections
_LOAD_PAYLOAD = struct.Struct("!HH")  # active_tests, max_tests
_START_DATA_PAYLOAD = struct.Struct("!H")  # connection index
_DONE_HEADER = struct.Struct("!H")  # number of per-connection entries
_DONE_ENTRY = struct.Struct("!HQI")  # connection index, bytes moved, duration_ms

ZERO_NONCE = bytes(NONCE_LEN)


class ProtocolError(Exception):
    """Malformed or out-of-contract frame."""


def direction_code(direction: str) -> int:
    if direction == "download":
        return DIR_DOWNLOAD
    if direction == "upload":
        return DIR_UPLOAD
    raise ProtocolError(f"unknown direction {direction!r}")


def direction_name(code: int) -> str:
    if code == DIR_DOWNLOAD:
        return "download"
    if code == DIR_UPLOAD:
        return "upload"
    raise ProtocolError(f"unknown direction code {code}")


def encode_frame(kind: int, nonce: bytes, payload: bytes = b"") -> bytes:
    if kind not in KIND_NAMES:
        raise ProtocolError(f"unknown frame kind {kind}")
    if len(nonce) != NONCE_LEN:
        raise ProtocolError(f"nonce must be {NONCE_LEN} bytes, got {len(nonce)}")
    body = bytes([kind]) + nonce + payload
    if len(body) > MAX_FRAME_BODY:
        raise ProtocolError(f"frame body too large: {len(body)}")
    return LENGTH_PREFIX.pack(len(body)) + body


def recv_exact(sock, n: int, *, started: bool = False) -> bytes:
    """Read exactly n bytes or raise ConnectionError on early close.

    A socket timeout propagates only when no byte of the frame has been
    consumed yet: none by this call, and none by the caller before it, which
    passes ``started=True`` if it has.  Otherwise the read retries, so callers
    polling with a timeout never desynchronize the frame stream.
    """
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(n - len(buf))
        except TimeoutError:
            if buf or started:
                continue
            raise
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock) -> tuple[int, bytes, bytes]:
    """Return (kind, nonce, payload) for the next frame on sock."""
    (length,) = LENGTH_PREFIX.unpack(recv_exact(sock, LENGTH_PREFIX.size))
    if length < 1 + NONCE_LEN:
        raise ProtocolError(f"frame body too short: {length}")
    if length > MAX_FRAME_BODY:
        raise ProtocolError(f"frame body too large: {length}")
    body = recv_exact(sock, length, started=True)  # the prefix is consumed
    kind = body[0]
    if kind not in KIND_NAMES:
        raise ProtocolError(f"unknown frame kind {kind}")
    return kind, body[1 : 1 + NONCE_LEN], body[1 + NONCE_LEN :]


def send_frame(sock, kind: int, nonce: bytes, payload: bytes = b"") -> None:
    sock.sendall(encode_frame(kind, nonce, payload))


class Ring(NamedTuple):
    """What ``pump`` sends from: a pool laid out by ``ring``, and its memfd.

    ``view`` is the pool followed by its first CHUNK_BYTES.  For every offset
    below ``period``, ``view[offset : offset + CHUNK_BYTES]`` is the next
    chunk of the pool repeated cyclically, so a sender reads each chunk from
    one offset and never joins two at the wrap.  ``fd`` is an in-memory file
    holding those bytes, written once, and ``view`` is a read-only map of it,
    so the bytes are in memory once.  ``fd`` is the map's own descriptor: it
    closes with the map when the last reference to the ring goes, and no
    caller closes it.  Without ``os.memfd_create``, ``fd`` is None and
    ``view`` views a ``bytes``.
    """

    view: memoryview
    fd: int | None

    @property
    def period(self) -> int:
        return len(self.view) - CHUNK_BYTES


def ring(pool: bytes) -> Ring:
    """``pool`` laid out for ``pump``, in an in-memory file wherever the platform has one.

    The pool and its head go to the file as they are, so no 4.25 MiB copy is
    made while holding the GIL: the writes and the map release it.
    """
    if not hasattr(os, "memfd_create"):
        return Ring(memoryview(pool + pool[:CHUNK_BYTES]), None)
    # Made wherever the platform can, whichever path ``pump`` takes.
    fd = os.memfd_create("linerate-ring", os.MFD_CLOEXEC)
    try:
        stat = os.fstat(fd)
        for part in (memoryview(pool), memoryview(pool)[:CHUNK_BYTES]):
            while part:
                part = part[os.write(fd, part) :]
        mapped = mmap.mmap(fd, len(pool) + CHUNK_BYTES, prot=mmap.PROT_READ)
    finally:
        os.close(fd)
    return Ring(memoryview(mapped), _descriptor_of(stat))


def _descriptor_of(file: os.stat_result) -> int:
    # ``mmap.mmap`` maps a duplicate of the descriptor it is given and holds
    # it until the map closes, so once the memfd's own descriptor is closed
    # the map's is the file's only one; no other code opens the file.
    for name in os.listdir("/proc/self/fd"):
        try:
            if os.path.samestat(os.fstat(int(name)), file):
                return int(name)
        except OSError:  # closed since it was listed (the listing's own is)
            pass
    raise OSError("the ring's map holds no descriptor")


_data_ring_lock = threading.Lock()
_data_ring = None
_drawing_lock = threading.Lock()
_drawing = None  # the thread draw_data_ring_soon started, kept to be joined


def data_ring() -> Ring:
    """This process's ring: ``os.urandom(POOL_BYTES)`` laid out by ``ring``, once.

    Its bytes need only resist compression, so every sender in the process,
    the engine's uploads and the responder's downloads alike, shares it, and
    its 4.25 MiB file stays open for the life of the process.  The first call
    draws it, which takes tens of ms; a call made meanwhile, such as one
    racing ``draw_data_ring_soon``'s thread, waits for that draw.
    """
    global _data_ring
    with _data_ring_lock:
        if _data_ring is None:
            _data_ring = ring(os.urandom(POOL_BYTES))
        return _data_ring


def draw_data_ring_soon() -> None:
    """Start drawing this process's ring on a daemon thread, and return at once.

    A process starts at most one such thread, and none once its ring is
    drawn.  A responder calls it as it accepts a client, an engine as an
    upload starts: their latency probes give the draw time to finish before
    the first sender needs the ring.
    """
    global _drawing
    with _drawing_lock:
        if _data_ring is None and _drawing is None:
            _drawing = threading.Thread(target=data_ring, name="linerate-data-ring",
                                        daemon=True)
            _drawing.start()


# Made once, from the platform: off Linux, or without ``os.memfd_create``,
# ``pump`` sends ring slices and receives without ``MSG_TRUNC``, which other
# systems do not define as a discard for TCP.
_IN_KERNEL = sys.platform == "linux" and hasattr(os, "memfd_create")


def pump(sock, ring, deadline: float, counts: list, index: int, offset: int = 0) -> None:
    """Move the raw stream on one data connection until its deadline or EOF.

    With a ``ring`` (a ``Ring``), send from it starting ``offset`` bytes into
    its period, wrapping at the period, so the stream is the pool repeated
    from there.  With ``ring=None``, receive and discard until the peer
    closes, ``recv_into`` one reused buffer.  On Linux no payload byte enters
    Python: the sender sends from the ring's memfd with ``os.sendfile`` at
    the connection's own offset, and the receiver passes ``MSG_TRUNC``, so TCP
    counts and frees each chunk without copying it into the buffer (tcp(7)).
    Elsewhere the sender ``send``s ring slices and the receiver's flags are
    0.  Each call's count is added to ``counts[index]`` at once, because
    another thread may read it live.  A socket timeout only retries the
    deadline test, so a call returns within one timeout of its deadline; any
    other OSError, such as the one a socket shut down mid-send raises,
    propagates, and what moved before it stays counted.
    """
    if ring is not None:
        if _IN_KERNEL:
            _sendfile_ring(sock, ring, offset, deadline, counts, index)
            return
        while time.monotonic() < deadline:
            try:
                sent = sock.send(ring.view[offset : offset + CHUNK_BYTES])
            except TimeoutError:
                continue
            counts[index] += sent
            offset = (offset + sent) % ring.period
        return
    buf = bytearray(CHUNK_BYTES)
    flags = socket.MSG_TRUNC if _IN_KERNEL else 0
    while time.monotonic() < deadline:
        try:
            got = sock.recv_into(buf, CHUNK_BYTES, flags)
        except TimeoutError:
            continue
        if not got:
            return
        counts[index] += got


# Every connection sends from the ring's one memfd, each at its own offset:
# sendfile with an offset leaves the file's position alone.  A socket with a
# timeout is non-blocking underneath, so os.sendfile raises BlockingIOError at
# once where send would wait.  The loop then waits up to that timeout, as
# send does, before testing the deadline again.

def _sendfile_ring(sock, ring, offset, deadline, counts, index):
    writable = select.poll()
    writable.register(sock, select.POLLOUT)
    while time.monotonic() < deadline:
        try:
            sent = os.sendfile(sock.fileno(), ring.fd, offset, CHUNK_BYTES)
        except BlockingIOError:
            writable.poll(sock.gettimeout() * 1000.0)
            continue
        counts[index] += sent
        offset = (offset + sent) % ring.period


def pack_hello(direction: str, duration_ms: int, n_connections: int,
               version: int = PROTOCOL_VERSION) -> bytes:
    return _HELLO_PAYLOAD.pack(version, direction_code(direction), duration_ms, n_connections)


def unpack_hello(payload: bytes) -> dict:
    if len(payload) != _HELLO_PAYLOAD.size:
        raise ProtocolError(f"hello payload must be {_HELLO_PAYLOAD.size} bytes")
    version, dir_code, duration_ms, n_connections = _HELLO_PAYLOAD.unpack(payload)
    return {
        "version": version,
        "direction": direction_name(dir_code),
        "duration_ms": duration_ms,
        "n_connections": n_connections,
    }


def pack_load(active_tests: int, max_tests: int) -> bytes:
    return _LOAD_PAYLOAD.pack(active_tests, max_tests)


def unpack_load(payload: bytes) -> dict:
    if len(payload) != _LOAD_PAYLOAD.size:
        raise ProtocolError(f"load payload must be {_LOAD_PAYLOAD.size} bytes")
    active_tests, max_tests = _LOAD_PAYLOAD.unpack(payload)
    return {"active_tests": active_tests, "max_tests": max_tests}


def pack_refuse(reason: int) -> bytes:
    if reason not in REASON_NAMES:
        raise ProtocolError(f"unknown refusal reason {reason}")
    return bytes([reason])


def unpack_refuse(payload: bytes) -> int:
    if len(payload) != 1 or payload[0] not in REASON_NAMES:
        raise ProtocolError("malformed refusal payload")
    return payload[0]


def pack_start_data(connection_index: int) -> bytes:
    return _START_DATA_PAYLOAD.pack(connection_index)


def unpack_start_data(payload: bytes) -> int:
    if len(payload) != _START_DATA_PAYLOAD.size:
        raise ProtocolError("malformed start_data payload")
    return _START_DATA_PAYLOAD.unpack(payload)[0]


def pack_done_summary(entries: list[tuple[int, int, int]]) -> bytes:
    """entries: (connection_index, bytes_moved, duration_ms) per data connection."""
    out = [_DONE_HEADER.pack(len(entries))]
    for index, nbytes, duration_ms in entries:
        out.append(_DONE_ENTRY.pack(index, nbytes, duration_ms))
    return b"".join(out)


def unpack_done_summary(payload: bytes) -> list[tuple[int, int, int]]:
    if len(payload) < _DONE_HEADER.size:
        raise ProtocolError("malformed done payload")
    (count,) = _DONE_HEADER.unpack_from(payload, 0)
    expected = _DONE_HEADER.size + count * _DONE_ENTRY.size
    if len(payload) != expected:
        raise ProtocolError(f"done payload must be {expected} bytes for {count} entries")
    entries = []
    for i in range(count):
        offset = _DONE_HEADER.size + i * _DONE_ENTRY.size
        entries.append(_DONE_ENTRY.unpack_from(payload, offset))
    return entries
