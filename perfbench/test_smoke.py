"""Smoke test of the benchmark itself; it checks no speed.

    python3 -m pytest perfbench/test_smoke.py

Every workload, untraced and traced, must emit every metric BENCHMARK.json
names, with its unit, and fail no operation at the seed.  The repository's
test suite collects ``tests/`` only, so this stays out of it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
# control runs by hand only (see README.md), but its outputs are checked the same way.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["control"]

# The workload-specific metrics each workload prints before its result line.
NAMED = {
    "sim_store": ("setup_s", "sim_tests_per_s", "sim_test_ms_p50", "sim_test_ms_p90", "report_s"),
    "loopback_bulk": ("setup_s", "download_gbps", "upload_gbps", "cpu_s_per_gb",
                      "test_overhead_s"),
    "control": ("setup_s", "session_ms_p50", "session_ms_p99", "echo_rtt_ms_p50"),
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_nothing_fails(workload, trace):
    out = bench("--workload", workload, "--seed", "0", "--seconds", "3",
                "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    provenance = json.loads(lines[0].partition(" ")[2])
    assert provenance["network"] == "loopback only, no real link"
    for name in NAMED[workload]:
        assert any(line.split()[:2] == [workload, name] and len(line.split()) == 4
                   for line in lines), f"{name} not printed with a unit"


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
