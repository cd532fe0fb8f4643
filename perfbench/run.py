"""linerate's benchmark: one command, three workloads, every metric by name with its unit.

    python3 perfbench/run.py --workload sim_store --seed 1 --seconds 30 --trace 0

Workloads: sim_store, loopback_bulk, control (see BENCHMARK.json for why each
exists), or ``all`` to run the three in turn.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` measures the same inputs untraced and then
traced, and prints the per-layer metrics plus the tracing overhead.
``--quick`` shrinks set-up and test sizes for a smoke run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
provenance, each workload's own named metrics as measured, and its check
verdicts.  Most end-to-end figures (``e2e`` lines and the result) are scaled
to a nominal host speed by references timed beside the work (hostref.py;
README.md lists which).  All
traffic stays on the loopback interface: no real link is crossed, so wire
rates and wire latency are out of reach.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import subprocess
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
LOOPBACK_NOTE = "loopback only, no real link"

# Which end-to-end metric each per-layer metric should move, on which workload.
MOVES = {
    "flowmodel.simulate_transfer_ms": "should move sim_tests_per_s, sim_test_ms_p90 on sim_store (work_per_s, op_ms_tail)",
    "flowmodel.flow_rounds": "should move sim_tests_per_s on sim_store (work done in the traced pass)",
    "flowmodel.us_per_flow_round": "should move sim_tests_per_s, sim_test_ms_p90 on sim_store (work_per_s, op_ms_tail)",
    "coordinator.simulate_destination_transfers_ms": "should move sim_tests_per_s on sim_store (work_per_s)",
    "cli.simulated_raw_ms": "should move sim_test_ms_p50 on sim_store (op_ms_p50)",
    "metrics.all_estimates_ms": "should move sim_test_ms_p50 on sim_store (op_ms_p50), a small share",
    "metrics.build_report_ms": "should move sim_test_ms_p50 on sim_store (op_ms_p50), a small share",
    "records.make_result_ms": "should move sim_tests_per_s on sim_store (work_per_s)",
    "records.to_json_ms": "should move sim_tests_per_s on sim_store (work_per_s)",
    "records.append_ms": "should move sim_tests_per_s on sim_store (work_per_s)",
    "records.bytes_per_record": "should move sim_tests_per_s and report_s on sim_store",
    "records.load_ms_per_record": "should move report_s on sim_store",
    "records.report_blocks_ms": "should move report_s on sim_store",
    "records.report_s": "should move report_s on sim_store (printed, not gated)",
    "engine.probe_latency_ms": "should move test_overhead_s on loopback_bulk (op_ms_p50, op_ms_tail)",
    "engine.measure_cross_traffic_ms": "should move test_overhead_s on loopback_bulk (op_ms_p50, op_ms_tail)",
    "engine.run_test_rest_ms": "should move test_overhead_s on loopback_bulk (op_ms_p50, op_ms_tail)",
    "engine.test_overhead_s": "should move test_overhead_s on loopback_bulk (op_ms_p50, op_ms_tail)",
    "engine.cpu_s_per_gb": "should move download_gbps/upload_gbps on loopback_bulk (work_per_s, cpu_ms_per_work)",
    "engine.download_gbps": "should move download_gbps on loopback_bulk (work_per_s)",
    "engine.upload_gbps": "should move upload_gbps on loopback_bulk (work_per_s)",
    "engine.upload_gap_ratio": "no timing metric to move: the upload byte-count defect, reported as measured",
    "responder.cpu_s_per_gb": "should move download_gbps/upload_gbps on loopback_bulk (work_per_s, cpu_ms_per_work)",
    "responder.threads": "should move session_ms_p99 on control, run by hand (op_ms_tail)",
    "responder.rss_mb": "should move session_ms_p99 on control, run by hand (op_ms_tail)",
    "protocol.send_frame_us": "should move echo_rtt_ms_p50, session_ms_p50 on control, run by hand (op_ms_p50); negligible on loopback_bulk",
    "protocol.recv_frame_us": "should move echo_rtt_ms_p50, session_ms_p50 on control, run by hand (op_ms_p50); negligible on loopback_bulk",
    "protocol.frames": "should move echo_rtt_ms_p50, session_ms_p50 on control, run by hand (work done in the traced pass)",
    "protocol.echo_rtt_ms_p50": "should move echo_rtt_ms_p50 on control, run by hand; engine probes on loopback_bulk",
    "bench.threads_baseline": "no metric to move: bench process threads before the workload",
    "bench.threads_after": "no metric to move: bench process threads after the workload",
    "trace.overhead_pct": "no metric to move: cost of tracing, untraced vs traced pass on the same inputs",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim_store", "loopback_bulk", "control", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small set-up and short tests, for a smoke run")
    return parser.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_sha():
    """HEAD of the checkout, or None; git may not look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Digest of the package sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "linerate")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args, seconds):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "quick": args.quick,
        "network": LOOPBACK_NOTE,
    }


def per_call_ms(summary, name):
    entry = summary.get(name)
    return 1000.0 * entry["self_s"] / entry["calls"] if entry else 0.0


def run_test_rest_ms(summary):
    """``run_test`` time outside its probe and cross-traffic children, per call."""
    run_test = summary.get("engine.run_test")
    if not run_test:
        return 0.0
    children = sum(summary[n]["total_s"] for n in
                   ("engine.probe_latency", "engine.measure_cross_traffic") if n in summary)
    return 1000.0 * (run_test["total_s"] - children) / run_test["calls"]


def layer_metrics(outcome, summary):
    """Per-layer figures from the traced pass; 0 where a layer did no work."""
    inputs = outcome.layer_inputs
    info = outcome.info
    transfer = summary.get("flowmodel.simulate_transfer")
    flow_rounds = inputs.get("flow_rounds", 0)
    load = summary.get("records.load")
    return {
        "flowmodel.simulate_transfer_ms": per_call_ms(summary, "flowmodel.simulate_transfer"),
        "flowmodel.flow_rounds": flow_rounds,
        "flowmodel.us_per_flow_round": (1e6 * transfer["self_s"] / flow_rounds
                                        if transfer and flow_rounds else 0.0),
        "coordinator.simulate_destination_transfers_ms":
            per_call_ms(summary, "coordinator.simulate_destination_transfers"),
        "cli.simulated_raw_ms": per_call_ms(summary, "cli.simulated_raw"),
        "metrics.all_estimates_ms": per_call_ms(summary, "metrics.all_estimates"),
        "metrics.build_report_ms": per_call_ms(summary, "metrics.build_report"),
        "records.make_result_ms": per_call_ms(summary, "records.make_result"),
        "records.to_json_ms": per_call_ms(summary, "records.to_json"),
        "records.append_ms": per_call_ms(summary, "records.append"),
        "records.bytes_per_record": inputs.get("bytes_per_record", 0.0),
        "records.load_ms_per_record": (1000.0 * load["self_s"] / inputs["records_loaded"]
                                       if load and inputs.get("records_loaded") else 0.0),
        "records.report_blocks_ms": per_call_ms(summary, "records.report_blocks"),
        "records.report_s": inputs.get("report_s", 0.0),
        "engine.probe_latency_ms": per_call_ms(summary, "engine.probe_latency"),
        "engine.measure_cross_traffic_ms": per_call_ms(summary, "engine.measure_cross_traffic"),
        "engine.run_test_rest_ms": run_test_rest_ms(summary),
        "engine.test_overhead_s": inputs.get("engine.test_overhead_s", 0.0),
        "engine.cpu_s_per_gb": inputs.get("engine.cpu_s_per_gb", 0.0),
        "engine.download_gbps": inputs.get("engine.download_gbps", 0.0),
        "engine.upload_gbps": inputs.get("engine.upload_gbps", 0.0),
        "engine.upload_gap_ratio": inputs.get("engine.upload_gap_ratio", 0.0),
        "responder.cpu_s_per_gb": inputs.get("responder.cpu_s_per_gb", 0.0),
        "responder.threads": info.get("responder_threads") or 0,
        "responder.rss_mb": info.get("responder_rss_mb") or 0.0,
        "protocol.send_frame_us": 1000.0 * per_call_ms(summary, "protocol.send_frame"),
        "protocol.recv_frame_us": 1000.0 * per_call_ms(summary, "protocol.recv_frame"),
        "protocol.frames": sum(summary[n]["calls"] for n in
                               ("protocol.send_frame", "protocol.recv_frame") if n in summary),
        "protocol.echo_rtt_ms_p50": inputs.get("protocol.echo_rtt_ms_p50", 0.0),
        "bench.threads_baseline": info["bench_threads_baseline"],
        "bench.threads_after": info["bench_threads_after"],
        "trace.overhead_pct": outcome.overhead_pct,
    }


def run_workload(name, args, ctx, trace):
    # These import linerate, so they load only once src/ is on the path.
    import loopback
    import sim_store
    from tracing import Tracer

    runner = {"sim_store": sim_store.run, "loopback_bulk": loopback.run_bulk,
              "control": loopback.run_control}[name]

    def rng_factory(stream):
        return random.Random(f"{args.seed}:{name}:{stream}")

    tracer = Tracer() if trace else None
    outcome = runner(ctx, rng_factory, tracer)
    layers = None
    if tracer is not None:
        layers = layer_metrics(outcome, tracer.summary())
        spans_path = os.path.join(ctx.out_dir, f"spans-{name}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"{name}: {len(tracer.spans)} spans written to "
              f"{os.path.relpath(spans_path, ROOT)}")
    return outcome, layers


def report_outcome(outcome, layers, spec):
    name = outcome.workload
    for metric, (value, unit) in outcome.named.items():
        print(f"{name}  {metric:<18} {value:.6g} {unit}")
    print(f"{name}  attempted {outcome.attempted}  failed {outcome.failed}")
    for key, value in outcome.info.items():
        print(f"{name}  {key} = {value}")
    for check, passed in outcome.checks.items():
        print(f"{name}  check {check}: {'ok' if passed else 'FAILED'}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if layers is not None:
        for metric in (m["name"] for m in spec["per_layer"]):
            print(f"{name}  layer {metric} = {layers[metric]:.6g} {units[metric]}"
                  f"  [{MOVES[metric]}]")
    else:
        for metric in (m["name"] for m in spec["end_to_end"]):
            print(f"{name}  e2e {metric} = {outcome.generic[metric]:.6g} {units[metric]}")


def result_metrics(values, spec_metrics):
    """Every metric named in the spec, with its unit, and whether all are finite numbers.

    A workload whose operations all failed has no figure to report; it
    reports 0 and the run is marked incorrect.
    """
    out = {}
    finite = True
    for metric in spec_metrics:
        value = values[metric["name"]]
        if not math.isfinite(value):
            finite = False
            value = 0.0
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out, finite


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "linerate", "__init__.py")):
        print(f"error: no linerate package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from common import Context

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print("provenance " + json.dumps(provenance(args, seconds), sort_keys=True))

    names = (["sim_store", "loopback_bulk", "control"] if args.workload == "all"
             else [args.workload])
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        ctx = Context(ROOT, seconds, args.quick)
        try:
            outcome, layers = run_workload(name, args, ctx, args.trace)
        finally:
            ctx.cleanup()
        report_outcome(outcome, layers, spec)
        metrics, finite = result_metrics(layers if args.trace else outcome.generic, spec_metrics)
        if args.workload == "all":
            metrics = {f"{name}.{k}": v for k, v in metrics.items()}
        result["metrics"].update(metrics)
        result["correct"] = result["correct"] and outcome.correct and finite
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A terminated run still unwinds, so the responder process is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
