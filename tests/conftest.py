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
    loop and ``recv_into`` with flags 0.
    """
    if request.param == "kernel" and not protocol._IN_KERNEL:
        pytest.skip("not Linux, or no os.memfd_create")
    monkeypatch.setattr(protocol, "_IN_KERNEL", request.param == "kernel")


@pytest.fixture
def small_ring():
    """A ``protocol.ring`` whose period is not a multiple of the chunk size.

    Built before the test body, so a descriptor count taken in it includes
    the ring's memfd, which is closed after the test.
    """
    ring = protocol.ring(os.urandom(protocol.CHUNK_BYTES + 12_345))
    yield ring
    if ring.fd is not None:
        os.close(ring.fd)


@pytest.fixture
def fresh_data_ring(monkeypatch):
    """An undrawn process ring for the test; the one drawn in it is closed after.

    Ask for it before any in-process responder, so the responder stops, and
    its senders with it, before the ring's memfd is closed.
    """
    monkeypatch.setattr(protocol, "_data_ring", None)
    yield
    drawn = protocol._data_ring
    if drawn is not None and drawn.fd is not None:
        os.close(drawn.fd)


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
