import pytest

from linerate import flowmodel


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
