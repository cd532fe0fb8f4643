"""The package namespace: every public name, loaded from its layer on first use."""

import os
import subprocess
import sys

import pytest

import linerate

SRC = os.path.dirname(os.path.dirname(linerate.__file__))

PUBLIC_NAMES = {
    "LinkModel", "FlowState", "ThroughputTrace", "advance_round", "simulate_transfer",
    "slow_start_rounds", "loss_limited_throughput",
    "LatencyStats", "EstimationMethod", "MetricReport", "loss_rate", "jitter",
    "interval_rates", "detect_steady_start", "estimate_throughput",
    "Engine", "TestSpec", "RawTestRecord", "TestRefusedError", "UnreachableTargetError",
    "Responder",
    "ServerDescriptor", "Registry", "Schedule", "MultiDestResult", "candidate_pool",
    "select_server", "generate_schedule", "run_multi_destination",
    "simulate_destination_transfers",
    "MeasurementResult", "AggregateReport", "ResultStore",
    "__version__",
}
# The submodules that ``import linerate`` has always exposed as attributes.
SUBMODULES = ("coordinator", "engine", "flowmodel", "metrics", "protocol", "records",
              "responder", "units")


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports linerate from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_all_holds_the_public_names():
    assert len(linerate.__all__) == len(PUBLIC_NAMES)
    assert set(linerate.__all__) == PUBLIC_NAMES


def test_a_responder_loads_only_its_own_layers():
    # Modules a site hook imported before linerate are not the responder's.
    run_fresh("""
import sys
before = set(sys.modules)
import linerate.responder
loaded = set(sys.modules) - before
assert {"linerate.responder", "linerate.protocol", "linerate.units"} <= loaded, loaded
unwanted = {"linerate.cli", "linerate.coordinator", "linerate.engine", "linerate.flowmodel",
            "linerate.metrics", "linerate.records", "json", "statistics", "uuid", "tempfile",
            "concurrent.futures"}
assert not loaded & unwanted, sorted(loaded & unwanted)
""")


def test_every_name_resolves_to_its_defining_modules_object():
    # In a fresh interpreter every layer is first reached through the package.
    run_fresh(f"""
import sys
import linerate
for name in sorted(linerate.__all__):
    value = getattr(linerate, name)
    if name == "__version__":
        assert value == "0.1.0"
        continue
    assert value.__module__.startswith("linerate."), (name, value.__module__)
    assert getattr(sys.modules[value.__module__], name) is value, name
for name in {SUBMODULES!r}:
    assert getattr(linerate, name) is sys.modules["linerate." + name], name
""")


def test_dir_lists_every_public_name_and_star_binds_them():
    run_fresh("""
import linerate
assert set(linerate.__all__) <= set(dir(linerate))
namespace = {}
exec("from linerate import *", namespace)
assert all(namespace[name] is getattr(linerate, name) for name in linerate.__all__)
""")
    assert set(linerate.__all__) | set(SUBMODULES) <= set(dir(linerate))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_layer'"):
        linerate.no_such_layer
    assert not hasattr(linerate, "_private")


def test_a_submodule_outside_the_table_still_imports_by_name():
    # ``from linerate import cli`` falls back to importing the submodule
    # because the package raises AttributeError for it.
    run_fresh("""
from linerate import cli
import sys
assert cli is sys.modules["linerate.cli"]
""")
