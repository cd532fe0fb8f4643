import os

import pytest

from linerate import flowmodel, protocol


@pytest.fixture
def step_calls(monkeypatch):
    """A list that grows by one for every call to the fluid model's AIMD step."""
    calls = []
    step = flowmodel._step

    def counting(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(flowmodel, "_step", counting)
    return calls


@pytest.fixture(params=["kernel", "portable"])
def pump_path(request, monkeypatch):
    """Runs the test once on each of ``protocol.pump``'s ways of moving bytes.

    ``kernel`` sends with ``os.sendfile`` from the ring's memfd and receives with
    ``MSG_TRUNC``, which TCP takes as "discard" (tcp(7)); it is skipped off
    Linux or without ``os.memfd_create``.  ``portable`` forces the ``send``
    loop and ``recv_into`` with flags 0.  The flag also picks the form of a
    ring built after it, so a sender needs a ring built in the test.
    """
    if request.param == "kernel" and not protocol._IN_KERNEL:
        pytest.skip("not Linux, or no os.memfd_create")
    monkeypatch.setattr(protocol, "_IN_KERNEL", request.param == "kernel")


@pytest.fixture
def small_ring():
    """A ``protocol.Ring`` whose period is not a multiple of the chunk size.

    Built before the test body, and after ``pump_path`` where a test asks
    for both, so its form is the one that path sends from.  A descriptor
    count taken in the test includes the ring's memfd, which the ring
    closes when it is dropped after the test.
    """
    return protocol.Ring(os.urandom(protocol.CHUNK_BYTES + 12_345))


@pytest.fixture
def ring_bytes():
    """A function giving what a ``protocol.Ring`` holds: its pool, then the pool's head.

    A ring on the kernel path is read from its memfd with ``os.pread``, one
    byte past its end, so a longer file shows; any other through its ``view``.
    """
    def read(ring) -> bytes:
        if ring.fd is None:
            return bytes(ring.view)
        return os.pread(ring.fd, ring.period + protocol.CHUNK_BYTES + 1, 0)

    return read


def join_data_ring_draw():
    drawing = protocol._drawing
    if drawing is not None:
        drawing.join(timeout=10.0)
        assert not drawing.is_alive()


@pytest.fixture
def fresh_data_ring(monkeypatch):
    """An undrawn process ring for the test; the one drawn in it is dropped after.

    A background draw of the process ring is joined before the test, and one
    started in it is joined after, before the process ring is put back: a
    draw that ended later would put its ring in the place of the one put back.
    Ask for it before any in-process responder, so the responder stops, and
    its senders with it, before the test's ring is dropped, and after
    ``pump_path``, so the ring drawn in the test has the form that path
    sends from.
    """
    join_data_ring_draw()
    monkeypatch.setattr(protocol, "_data_ring", None)
    monkeypatch.setattr(protocol, "_drawing", None)
    yield
    join_data_ring_draw()


@pytest.fixture
def open_fds():
    """A function giving the number of descriptors this process has open.

    Where /proc/self/fd is absent it always gives 0, so a leak check is
    skipped there.
    """
    def count() -> int:
        try:
            return len(os.listdir("/proc/self/fd"))
        except FileNotFoundError:
            return 0

    return count
