"""sim_store: simulated tests stored and reported, as ``run --simulate`` and ``report`` do.

A closed loop on one thread.  Each operation is one simulated test
(``cli.simulated_raw`` -> ``records.make_result`` -> ``ResultStore.append``)
or, for some items, a multi-destination fluid-oracle case.  After the loop the
store, pre-filled at set-up, is loaded and reported once.

The fluid model's cost is connections x rounds, and rounds = duration / RTT,
so a few low-RTT, many-connection items dominate the time.  Connection count
and RTT therefore come from a fixed grid across the CLI's ranges (every count
from 1 to 16 at four RTTs, the midpoints of four log-spaced bins over
2-100 ms), and the loop runs whole blocks of that grid.  The seed draws every
other input (link rate, loss, direction, origin, destination caps) and the
order within a block, so each seed runs the same mix of cheap and expensive
items and runs on different seeds stay comparable.
"""

import contextlib
import math
import os
import statistics
import threading
import time

from linerate import cli, coordinator, metrics, records
from linerate.metrics import EstimationMethod

import hostref
from common import Outcome
from hostref import CpuReference

DURATION_S = 10.0
CONNECTIONS = range(1, 17)
RTT_RANGE_MS = (2.0, 100.0)
RTT_POINTS = 4
LOSS_RANGE = (1e-5, 1e-3)
CAPACITY_RANGE_BPS = (10e6, 10e9)
MULTI_PER_BLOCK = 6
MULTI_ACCESS_BPS = 1e9
MULTI_CAP_RANGE_BPS = (100e6, 1e9)
MULTI_RTT_MS = 20.0
MULTI_CONNECTIONS = 4
# Each item is scaled by the CPU chunks of the items within this many places of it.
ITEM_REF_HALF_WINDOW = 5
PREFILL_RAWS = 8
PREFILL_RECORDS = 300
QUICK_PREFILL_RECORDS = 30


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rtt_grid_ms():
    lo, hi = (math.log(v) for v in RTT_RANGE_MS)
    width = (hi - lo) / RTT_POINTS
    return [math.exp(lo + (k + 0.5) * width) for k in range(RTT_POINTS)]


def _test_settings(rng, connections, rtt_ms):
    loss = 0.0 if rng.random() < 0.5 else _log_uniform(rng, *LOSS_RANGE)
    return {
        "link": _log_uniform(rng, *CAPACITY_RANGE_BPS),
        "rtt": rtt_ms,
        "loss": loss,
        "connections": connections,
        "duration": DURATION_S,
    }


def make_blocks(rng):
    """Endless seeded stream of blocks; each holds the whole grid plus multi-destination items."""
    rtts = _rtt_grid_ms()
    while True:
        block = []
        for connections in CONNECTIONS:
            for rtt in rtts:
                block.append(("test", {
                    "settings": _test_settings(rng, connections, rtt),
                    "direction": rng.choice(("download", "upload")),
                    "origin": rng.choice(records.ORIGINS),
                }))
        for i in range(MULTI_PER_BLOCK):
            block.append(("multi", {
                "caps": [_log_uniform(rng, *MULTI_CAP_RANGE_BPS) for _ in range(2 + i % 3)],
            }))
        rng.shuffle(block)
        yield block


def prefill(store_path, rng, count):
    """Fill a store with seeded simulated records; return how many were written.

    Set-up simulates only a few cheap grid cells (the highest RTT, 1-4
    connections): the records are report input here, not the work measured.
    """
    store = records.ResultStore(store_path)
    method = EstimationMethod()
    rtt = _rtt_grid_ms()[-1]
    raws = [cli.simulated_raw(_test_settings(rng, 1 + i % 4, rtt),
                              rng.choice(("download", "upload")))
            for i in range(PREFILL_RAWS)]
    for i in range(count):
        stamp = "2026-01-%02dT%02d:%02d:00+00:00" % (1 + i // 96, (i // 4) % 24, (i % 4) * 15)
        store.append(records.make_result(raws[i % len(raws)], method,
                                         rng.choice(records.ORIGINS), timestamp=stamp))
    return count


def _run_test_item(item, store, method):
    raw = cli.simulated_raw(item["settings"], item["direction"])
    result = records.make_result(raw, method, item["origin"])
    store.append(result)


def _run_multi_item(item, method):
    per, aggregate = coordinator.simulate_destination_transfers(
        MULTI_ACCESS_BPS, item["caps"], rtt_ms=MULTI_RTT_MS, duration_s=DURATION_S,
        n_connections=MULTI_CONNECTIONS)
    estimates = metrics.all_estimates(aggregate, method)
    per_dest = [metrics.estimate_throughput(trace, method) for trace in per]
    # The oracle may never report more than the access link or a destination cap.
    slack = 1 + 1e-9
    if not 0 < estimates[metrics.STEADY_STATE] <= MULTI_ACCESS_BPS * slack:
        raise ValueError(f"aggregate {estimates[metrics.STEADY_STATE]} outside (0, access]")
    for cap, bps in zip(item["caps"], per_dest):
        if not 0 < bps <= cap * slack:
            raise ValueError(f"destination estimate {bps} outside (0, {cap}]")


def measure(item_blocks, store_path, seconds, tracer=None):
    """Run whole blocks in a closed loop for about ``seconds``.

    Whole blocks keep the mix of items the same whatever the speed, so the
    percentiles describe the same work on every run.  The loop stops at the
    block boundary nearest to ``seconds``, always after at least one block.
    One CPU chunk is timed after every item; each item is scaled by the
    chunks around it (see hostref).
    """
    store = records.ResultStore(store_path)
    method = EstimationMethod()
    op_ms, op_cpu_s = [], []
    ref = CpuReference()
    failed = 0
    written = 0
    flow_rounds = 0
    started = time.perf_counter()
    op_id = 0
    blocks_run = 0
    while blocks_run == 0 or (time.perf_counter() - started) * (1 + 0.5 / blocks_run) < seconds:
        blocks_run += 1
        for kind, item in next(item_blocks):
            if tracer is not None:
                tracer.set_operation(op_id)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if kind == "test":
                    _run_test_item(item, store, method)
                    written += 1
                    settings = item["settings"]
                    flow_rounds += settings["connections"] * math.ceil(
                        settings["duration"] * 1000.0 / settings["rtt"])
                else:
                    _run_multi_item(item, method)
            except (ValueError, OSError) as exc:
                failed += 1
                print(f"sim_store: {kind} item {op_id} failed: {exc}")
            op_ms.append((time.perf_counter() - t0) * 1000.0)
            op_cpu_s.append(time.process_time() - c0)
            op_id += 1
            ref.sample()
    wall_factors, cpu_factors = ref.rolling_factors(ITEM_REF_HALF_WINDOW)
    return {
        "op_ms": op_ms,
        "scaled_ms": [v * f for v, f in zip(op_ms, wall_factors)],
        "failed": failed,
        "written": written,
        "flow_rounds": flow_rounds,
        "cpu_s": sum(op_cpu_s),
        "scaled_cpu_s": sum(v * f for v, f in zip(op_cpu_s, cpu_factors)),
        "wall_factor": statistics.median(wall_factors),
    }


def load_and_report(store_path):
    """Load and report the final store once, as ``linerate report`` does."""
    t0 = time.perf_counter()
    results = records.ResultStore(store_path).load()
    blocks = records.report_blocks(results)
    return time.perf_counter() - t0, results, blocks


def check_store(store_path, results, blocks, expected_records):
    """Every record round-trips byte-identically and recomputes its own report."""
    bad = 0
    with open(store_path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    for line, result in zip(lines, results):
        if result.to_json() != line or records.recompute_report(result) != result.report:
            bad += 1
    bad += abs(len(lines) - len(results))
    population = sum(block.population for block in blocks)
    checks = {
        "round_trip_and_recompute": bad == 0,
        "report_population": population == expected_records == len(lines),
    }
    return checks, bad


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _tests_per_s(result):
    """Items per second of scaled busy time."""
    return len(result["scaled_ms"]) / (sum(result["scaled_ms"]) / 1000.0)


def run(ctx, rng_factory, tracer=None):
    """The sim_store workload; returns an Outcome."""
    baseline_threads = threading.active_count()

    def setup():
        path = ctx.fresh_path("store.jsonl")
        count = QUICK_PREFILL_RECORDS if ctx.quick else PREFILL_RECORDS
        return path, prefill(path, rng_factory("prefill"), count)

    setup_s, setup_raw_s, (store_path, prefilled) = hostref.timed_setup(
        ctx.setup_reps(), setup)
    size_before = os.path.getsize(store_path)

    passes = ctx.passes(tracer)
    results = {}
    written_total = 0
    for label, seconds, pass_tracer in passes:
        item_blocks = make_blocks(rng_factory("items"))
        with pass_tracer or contextlib.nullcontext():
            results[label] = measure(item_blocks, store_path, seconds, pass_tracer)
        written_total += results[label]["written"]

    with tracer or contextlib.nullcontext():
        report_s, loaded, blocks = load_and_report(store_path)
    checks, bad = check_store(store_path, loaded, blocks, prefilled + written_total)

    main = results[passes[-1][0]]
    op_ms, scaled_ms = main["op_ms"], main["scaled_ms"]
    tests_per_s = len(op_ms) / (sum(op_ms) / 1000.0)
    p50, p90 = statistics.median(op_ms), _p90(op_ms)
    outcome = Outcome("sim_store")
    outcome.attempted = sum(len(r["op_ms"]) for r in results.values())
    outcome.failed = sum(r["failed"] for r in results.values()) + bad
    outcome.checks.update(checks)
    outcome.generic = {
        "setup_s": setup_s,
        "work_per_s": _tests_per_s(main),
        "op_ms_p50": statistics.median(scaled_ms),
        "op_ms_tail": _p90(scaled_ms),
        "cpu_ms_per_work": 1000.0 * main["scaled_cpu_s"] / len(op_ms),
    }
    outcome.named = {
        "setup_s": (setup_raw_s, "s"),
        "sim_tests_per_s": (tests_per_s, "1/s"),
        "sim_test_ms_p50": (p50, "ms"),
        "sim_test_ms_p90": (p90, "ms"),
        "report_s": (report_s, "s"),
    }
    outcome.info = {
        "samples": len(op_ms),
        "host_wall_factor": main["wall_factor"],
        "raw_cpu_ms_per_test": 1000.0 * main["cpu_s"] / len(op_ms),
        "beyond_p90": sum(1 for v in op_ms if v > p90),
        "records_loaded": len(loaded),
        "bench_threads_baseline": baseline_threads,
        "bench_threads_after": threading.active_count(),
    }
    if tracer is not None:
        size_after = os.path.getsize(store_path)
        outcome.layer_inputs = {
            "report_s": report_s,
            "records_loaded": len(loaded),
            "bytes_per_record": (size_after - size_before) / max(1, written_total),
            "flow_rounds": main["flow_rounds"],
        }
        outcome.overhead_pct = 100.0 * (
            _tests_per_s(results["untraced"]) / _tests_per_s(main) - 1.0)
    return outcome
