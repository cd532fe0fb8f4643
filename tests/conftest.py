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

    ``kernel`` sends with ``os.sendfile`` from a memfd and receives with
    ``MSG_TRUNC``, which TCP takes as "discard" (tcp(7)); it is skipped off
    Linux or without ``os.memfd_create``.  ``portable`` forces the ``send``
    loop and ``recv_into`` with flags 0.
    """
    if request.param == "kernel" and not protocol._IN_KERNEL:
        pytest.skip("not Linux, or no os.memfd_create")
    monkeypatch.setattr(protocol, "_IN_KERNEL", request.param == "kernel")


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
