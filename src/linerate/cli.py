"""Command-line front end: run tests, schedule them, report, verify, manage servers.

Every finished test lands in the append-only result store with its raw trace
and expanded methodology; `report` summarizes the store without ever pooling
scheduled and user-initiated results, since on-demand tests skew toward
moments when something already feels wrong, and `verify` checks that every
stored number can still be recomputed from its record.

Exit codes: 0 ok, 2 configuration problem, 3 no usable servers, 4 test
refused by the server, 5 target unreachable, 6 a stored record failed
`verify`.
"""

import argparse
import logging
import os
import sys
import time
from datetime import datetime, timedelta

from . import coordinator, flowmodel, metrics, records, units
from .coordinator import (
    InfeasibleScheduleError,
    MultiDestFailedError,
    NoServersError,
    Schedule,
    ServerDescriptor,
    generate_schedule,
)
from .engine import (
    DEFAULT_DURATION_S,
    Engine,
    RawTestRecord,
    TestRefusedError,
    TestSpec,
    UnreachableTargetError,
)
from .metrics import METHOD_KINDS, STEADY_STATE, EstimationMethod
from .records import SIMULATED_FLAG

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SERVERS = 3
EXIT_REFUSED = 4
EXIT_UNREACHABLE = 5
EXIT_VERIFY_FAILED = 6

DEFAULT_STORE = "~/.linerate/results.jsonl"
DEFAULT_REGISTRY = "~/.linerate/servers.jsonl"

SIMULATED_TARGET = "simulated:0"


def parse_simulate_spec(text: str) -> dict:
    """Parse 'link=200mbps,rtt=20ms,loss=0[,connections=4][,duration=10s]'.

    Only keys named in the string appear in the result (besides rtt and loss
    defaults); connection count and duration otherwise follow the normal run
    flags. A bare rtt= is in ms; duration= needs a unit, as --duration is in s.
    """
    settings = {"rtt": 20.0, "loss": 0.0}
    seen = set()
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or not value.strip():
            raise ValueError(f"expected key=value, got {part!r}")
        if key in seen:
            raise ValueError(f"duplicate key {key!r}")
        seen.add(key)
        if key == "link":
            settings["link"] = units.parse_rate(value)
        elif key == "rtt":
            settings["rtt"] = units.parse_time_ms(value)
        elif key == "loss":
            loss = float(value)
            if not 0 <= loss < 1:
                raise ValueError(f"loss must be in [0, 1), got {value}")
            settings["loss"] = loss
        elif key == "connections":
            settings["connections"] = int(value)
        elif key == "duration":
            if not value.strip().lower().endswith(("s", "m")):
                raise ValueError(f"duration= needs a unit, such as 10s, got {value!r}")
            settings["duration"] = units.parse_time_ms(value) / 1000.0
        else:
            raise ValueError(f"unknown simulation key {key!r}")
    if "link" not in settings:
        raise ValueError("simulation needs link=<rate>")
    return settings


def simulated_raw(settings: dict, direction: str,
                  sample_interval: float = 100.0) -> RawTestRecord:
    """A test record synthesized from the fluid model instead of the network."""
    link = flowmodel.LinkModel(capacity=settings["link"], rtt=settings["rtt"],
                               loss_rate=settings["loss"])
    # Built first, so an interval the spec refuses never reaches the model.
    spec = TestSpec(target=SIMULATED_TARGET, direction=direction,
                    duration=settings["duration"], n_connections=settings["connections"],
                    sample_interval=sample_interval, target_id=SIMULATED_FLAG)
    return records.simulate_raw(spec, flowmodel.model_inputs(link))


def _format_optional_rate(bps) -> str:
    return units.format_rate(bps) if bps is not None else "-"


def emit_result(result: records.MeasurementResult, fmt: str, store_path: str,
                out=None):
    out = out or sys.stdout
    if fmt == "machine":
        print(result.to_json(), file=out)
        return
    report = result.report
    print(f"origin      {result.origin}", file=out)
    print(f"target      {result.spec.target}"
          + (f" ({result.spec.target_id})" if result.spec.target_id else ""), file=out)
    print(f"download    {_format_optional_rate(report.download_bps)}"
          f"   [{report.method.kind}]", file=out)
    print(f"upload      {_format_optional_rate(report.upload_bps)}", file=out)
    if report.latency_ms is not None:
        jitter = f"{report.jitter_ms:.2f} ms" if report.jitter_ms is not None else "-"
        print(f"latency     {report.latency_ms:.2f} ms median   jitter {jitter}   "
              f"probe loss {report.loss_rate:.1%}", file=out)
    others = ", ".join(f"{kind}={units.format_rate(bps)}"
                       for kind, bps in sorted(result.alternate_estimates.items()))
    print(f"estimates   {others}", file=out)
    if result.flags:
        print(f"flags       {', '.join(sorted(result.flags))}", file=out)
    print(f"stored      {store_path}", file=out)


def _record_outcomes(registry_path: str, outcomes: dict):
    """Apply {server id: outcome} to the registry file as it is now, under its lock."""
    with records.updating_registry(registry_path) as registry:
        for server_id, outcome in outcomes.items():
            try:
                registry.update_health(server_id, outcome)
            except KeyError:
                pass  # server was removed from the file mid-run; nothing to update


def _resolve_target(args):
    """(target, target_id, ServerDescriptor or None) from flags or registry."""
    if args.server:
        return args.server, "", None
    registry = records.load_registry(args.registry)
    pool = coordinator.candidate_pool(registry, args.location, args.candidates)
    chosen = coordinator.select_server(pool)
    return chosen.target, chosen.id, chosen


def _simulate_settings(args) -> dict | None:
    """The fluid-model settings of ``--simulate``; None for a run over the network."""
    if not args.simulate:
        return None
    settings = parse_simulate_spec(args.simulate)
    settings.setdefault("connections", args.connections)
    settings.setdefault("duration", args.duration)
    return settings


def _test_spec(args, settings: dict | None, target: str, target_id: str = "") -> TestSpec:
    """One test's spec from ``args``; a simulated test is sized by its ``settings``."""
    sized = settings or {"connections": args.connections, "duration": args.duration}
    return TestSpec(target=target, direction=args.direction, duration=sized["duration"],
                    n_connections=sized["connections"], sample_interval=args.interval,
                    target_id=target_id)


def _run_one(args, settings: dict | None, origin: str) -> records.MeasurementResult:
    """One test's result: from the fluid model when ``settings`` is given, else measured."""
    method = EstimationMethod(kind=args.method)
    if settings is not None:
        return records.make_result(simulated_raw(settings, args.direction, args.interval),
                                   method, origin)
    target, target_id, server = _resolve_target(args)
    spec = _test_spec(args, None, target, target_id)
    hint = server.capacity_hint if server else None
    try:
        raw = Engine().run_test(spec, capacity_hint_bps=hint)
    except UnreachableTargetError:
        if server:
            _record_outcomes(args.registry, {server.id: coordinator.OUTCOME_UNREACHABLE})
        raise
    if server:
        _record_outcomes(args.registry, {server.id: coordinator.OUTCOME_OK})
    return records.make_result(raw, method, origin, server=server)


def cmd_run(args) -> int:
    store = records.ResultStore(args.store)
    result = _run_one(args, _simulate_settings(args), records.ORIGIN_USER)
    store.append(result)
    emit_result(result, args.format, store.path)
    return EXIT_OK


def run_scheduled(schedule: Schedule, days: int, runner, now_fn=None,
                  sleep_fn=None, start_day=None,
                  test_duration_s: float = DEFAULT_DURATION_S) -> tuple[int, int]:
    """Fire runner(when) at each scheduled time for the given number of days.

    The times are generate_schedule's for tests of test_duration_s seconds.

    A firing whose time has already passed is logged and skipped, never
    back-filled: a made-up late measurement would say nothing about the time
    it claims to describe.  Returns (fired, missed).
    """
    now_fn = now_fn or datetime.now
    sleep_fn = sleep_fn or time.sleep
    start_day = start_day or now_fn().date()
    fired = missed = 0
    for offset in range(days):
        day = start_day + timedelta(days=offset)
        for when in generate_schedule(schedule, day, test_duration_s):
            now = now_fn()
            if when < now:
                log.warning("missed firing at %s; skipped, not back-filled",
                            when.isoformat())
                missed += 1
                continue
            sleep_fn((when - now).total_seconds())
            runner(when)
            fired += 1
    return fired, missed


def cmd_schedule(args) -> int:
    window = tuple(args.peak_window.split("-"))
    if len(window) != 2:
        raise ValueError(f"peak window must look like 19:00-23:00, got {args.peak_window!r}")
    schedule = Schedule(tests_per_day=args.tests_per_day, peak_window=window,
                        fraction_peak=args.fraction_peak, seed=args.seed)
    # A test spec that every firing would refuse must fail at startup, not at
    # 19:00, and so must a schedule too full for its tests' duration. The
    # server is chosen at each firing, so the placeholder target stands in here.
    settings = _simulate_settings(args)
    duration = _test_spec(args, settings, SIMULATED_TARGET).duration
    generate_schedule(schedule, datetime.now().date(), test_duration_s=duration)

    store = records.ResultStore(args.store)
    failed = 0

    def fire(when):
        nonlocal failed
        try:
            result = _run_one(args, settings, records.ORIGIN_SCHEDULED)
        except (NoServersError, TestRefusedError, UnreachableTargetError) as exc:
            log.warning("scheduled run at %s failed: %s", when.isoformat(), exc)
            failed += 1
            return
        store.append(result)
        if args.format == "machine":
            print(result.to_json())
        else:
            headline = result.report.download_bps or result.report.upload_bps
            print(f"{when.isoformat()}  {_format_optional_rate(headline)}")

    fired, missed = run_scheduled(schedule, args.days, fire, test_duration_s=duration)
    # A firing that failed stored nothing, so it is not counted as fired.
    print(f"fired {fired - failed} of {fired + missed} scheduled runs over {args.days} day(s)"
          f", {failed} failed")
    return EXIT_OK


def _format_summary(name: str, summary) -> str:
    if summary is None:
        return f"  {name:<14} (no data)"
    if name.endswith("_bps"):
        fmt = units.format_rate
    elif name == "loss_rate":
        fmt = lambda v: f"{v:.2%}"
    else:
        fmt = lambda v: f"{v:.2f} ms"
    return (f"  {name:<14} median {fmt(summary['median'])}   mean {fmt(summary['mean'])}"
            f"   p5 {fmt(summary['p5'])}   p95 {fmt(summary['p95'])}"
            f"   n={summary['count']}")


def cmd_report(args) -> int:
    results = records.ResultStore(args.store).load()
    if not results:
        print("result store is empty; nothing to report")
        return EXIT_OK
    blocks = records.report_blocks(results)
    if args.format == "machine":
        print(records.canonical_json([b.to_dict() for b in blocks]))
        return EXIT_OK
    for block in blocks:
        print(f"origin: {block.origin}   source: {', '.join(block.methodology['trace_sources'])}"
              f"   population {block.population}   included {block.included}"
              f"   excluded {block.population - block.included}")
        for flag, count in sorted(block.exclusions.items()):
            print(f"  excluded for {flag}: {count}")
        for name in records.THROUGHPUT_METRICS + records.QUALITY_METRICS:
            print(_format_summary(name, block.metrics[name]))
        kinds = ", ".join(m["kind"] for m in block.methodology["methods"])
        print(f"  methods: {kinds or '-'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Check every stored record against what it claims; exit 6 if any fails a check."""
    if not os.path.isfile(args.store):
        raise ValueError(f"no result store at {args.store}")
    checked, failing, failures = records.verify_store(args.store)
    print(f"verified {checked} record(s) in {args.store}: "
          f"{checked - failing} ok, {failing} failed")
    for check in records.VERIFY_CHECKS:
        if failures[check]:
            print(f"  {check}: {failures[check]}")
    return EXIT_VERIFY_FAILED if failing else EXIT_OK


def cmd_servers(args) -> int:
    if args.servers_cmd == "list":
        registry = records.load_registry(args.registry)
        if len(registry) == 0:
            print("registry is empty")
            return EXIT_OK
        for s in sorted(registry, key=lambda s: s.id):
            state = "removed" if s.removed else "ok"
            print(f"{s.id:<16} {s.target:<28} {s.declared_location or '-':<16} "
                  f"{s.network or '-':<10} health {s.health_score():.2f}  {state}")
        return EXIT_OK

    if args.servers_cmd == "add":
        host, port = units.parse_address(args.target)
        capacity = units.parse_rate(args.capacity) if args.capacity else None
        server = ServerDescriptor(id=args.id, host=host, port=port,
                                  declared_location=args.location,
                                  network=args.network, capacity_hint=capacity)
        with records.updating_registry(args.registry) as registry:
            registry.add(server)
        print(f"added {args.id}")
        return EXIT_OK

    if args.servers_cmd == "remove":
        with records.updating_registry(args.registry) as registry:
            try:
                registry.remove(args.id)
            except KeyError:
                raise ValueError(f"no server with id {args.id!r}") from None
        print(f"removed {args.id}")
        return EXIT_OK

    # probe: rank the candidate pool by measured RTT and persist the outcomes
    pool = coordinator.candidate_pool(records.load_registry(args.registry), args.location,
                                      args.candidates)
    engine = Engine()
    outcomes = {}
    measured = {}

    def prober(server, count):
        try:
            stats = engine.probe_latency((server.host, server.port), count=count)
        except UnreachableTargetError:
            outcomes[server.id] = coordinator.OUTCOME_UNREACHABLE
            raise
        outcomes[server.id] = (coordinator.OUTCOME_OK if stats.received
                               else coordinator.OUTCOME_UNREACHABLE)
        measured[server.id] = stats
        return stats

    try:
        chosen = coordinator.select_server(pool, probes_per_candidate=args.probes,
                                           prober=prober)
    finally:
        _record_outcomes(args.registry, outcomes)
    for s in pool:
        stats = measured.get(s.id)
        rtt = f"{stats.median_rtt:.2f} ms" if stats and stats.received else "unreachable"
        marker = " <- selected" if s.id == chosen.id else ""
        print(f"{s.id:<16} {rtt}{marker}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    method = EstimationMethod()
    if args.destinations:
        if not args.access:
            raise ValueError("--destinations needs --access")
        caps = [units.parse_rate(c) for c in args.destinations.split(",")]
        access = units.parse_rate(args.access)
        per, agg = coordinator.simulate_destination_transfers(
            access, caps, rtt_ms=units.parse_time_ms(args.rtt),
            duration_s=args.duration, n_connections=args.connections)
        payload = {
            "access_bps": access,
            "destinations": [
                {"capacity_bps": cap,
                 "steady_state_bps": metrics.estimate_throughput(trace, method)}
                for cap, trace in zip(caps, per)
            ],
            "aggregate": metrics.all_estimates(agg, method),
        }
        if args.format == "machine":
            print(records.canonical_json(payload))
        else:
            for i, dest in enumerate(payload["destinations"]):
                print(f"destination {i}: cap {units.format_rate(dest['capacity_bps'])}"
                      f" -> {units.format_rate(dest['steady_state_bps'])}")
            print(f"aggregate: {units.format_rate(payload['aggregate'][STEADY_STATE])}"
                  f" (access {units.format_rate(access)})")
        return EXIT_OK

    if not args.link:
        raise ValueError("simulate needs --link or --destinations")
    link = flowmodel.LinkModel(capacity=units.parse_rate(args.link),
                               rtt=units.parse_time_ms(args.rtt),
                               loss_rate=args.loss)
    trace = flowmodel.simulate_transfer(link, args.connections, duration=args.duration)
    estimates = metrics.all_estimates(trace, method)
    if args.format == "machine":
        print(records.canonical_json(estimates))
    else:
        for kind in METHOD_KINDS:
            print(f"{kind:<14} {units.format_rate(estimates[kind])}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linerate",
        description="TCP throughput and latency measurement with open methods.")
    parser.add_argument("--store",
                        default=os.environ.get("LINERATE_STORE", DEFAULT_STORE),
                        help="result store path (env LINERATE_STORE)")
    parser.add_argument("--registry",
                        default=os.environ.get("LINERATE_REGISTRY", DEFAULT_REGISTRY),
                        help="server registry path (env LINERATE_REGISTRY)")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target_flags(p):
        p.add_argument("--server", default="", help="host:port, bypasses selection")
        p.add_argument("--location", default="", help="location hint for selection")
        p.add_argument("--candidates", type=int, default=3)
        p.add_argument("--direction", choices=("download", "upload"),
                       default="download")
        p.add_argument("--connections", type=int, default=4)
        p.add_argument("--duration", type=float, default=10.0, help="seconds")
        p.add_argument("--interval", type=float, default=100.0,
                       help="sample interval, ms")
        p.add_argument("--method", choices=METHOD_KINDS, default=STEADY_STATE)
        p.add_argument("--simulate", default="",
                       help="run against the fluid model: link=200mbps,rtt=20ms,loss=0")
        p.add_argument("--format", choices=("human", "machine"), default="human")

    run_p = sub.add_parser("run", help="run one test and store the result")
    add_target_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    sched_p = sub.add_parser("schedule",
                             help="run tests at seeded random times each day")
    add_target_flags(sched_p)
    sched_p.add_argument("--tests-per-day", type=int, required=True)
    sched_p.add_argument("--fraction-peak", type=float, default=0.5)
    sched_p.add_argument("--peak-window", default="19:00-23:00")
    sched_p.add_argument("--seed", type=int, default=0)
    sched_p.add_argument("--days", type=int, default=1)
    sched_p.set_defaults(func=cmd_schedule)

    report_p = sub.add_parser("report", help="summarize the result store")
    report_p.add_argument("--format", choices=("human", "machine"), default="human")
    report_p.set_defaults(func=cmd_report)

    verify_p = sub.add_parser(
        "verify", help="recompute every stored report, re-encode every record and "
                       "regenerate every simulated trace; exit 6 on any mismatch")
    # SUPPRESS leaves the top-level --store in place when this one is not given.
    verify_p.add_argument("--store", default=argparse.SUPPRESS, help="result store path")
    verify_p.set_defaults(func=cmd_verify)

    servers_p = sub.add_parser("servers", help="manage the server registry")
    servers_sub = servers_p.add_subparsers(dest="servers_cmd", required=True)
    servers_sub.add_parser("list")
    add_p = servers_sub.add_parser("add")
    add_p.add_argument("id")
    add_p.add_argument("target", help="host:port")
    add_p.add_argument("--location", default="")
    add_p.add_argument("--network", default="")
    add_p.add_argument("--capacity", default="", help="e.g. 1gbps")
    remove_p = servers_sub.add_parser("remove")
    remove_p.add_argument("id")
    probe_p = servers_sub.add_parser("probe")
    probe_p.add_argument("--location", default="")
    probe_p.add_argument("--candidates", type=int, default=3)
    probe_p.add_argument("--probes", type=int, default=5)
    servers_p.set_defaults(func=cmd_servers)

    sim_p = sub.add_parser("simulate", help="fluid-model estimates, no network")
    sim_p.add_argument("--link", default="", help="single-link capacity, e.g. 200mbps")
    sim_p.add_argument("--rtt", default="20ms")
    sim_p.add_argument("--loss", type=float, default=0.0)
    sim_p.add_argument("--connections", type=int, default=4)
    sim_p.add_argument("--duration", type=float, default=10.0)
    sim_p.add_argument("--access", default="", help="access capacity for multi-destination")
    sim_p.add_argument("--destinations", default="",
                       help="comma-separated destination caps, e.g. 400mbps,400mbps")
    sim_p.add_argument("--format", choices=("human", "machine"), default="human")
    sim_p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    for attr in ("store", "registry"):
        setattr(args, attr, os.path.expanduser(getattr(args, attr)))
    try:
        return args.func(args)
    except (InfeasibleScheduleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoServersError as exc:
        print(f"error: no usable servers: {exc}", file=sys.stderr)
        for server_id, reason in sorted(exc.reasons.items()):
            print(f"  {server_id}: {reason}", file=sys.stderr)
        return EXIT_NO_SERVERS
    except (TestRefusedError, MultiDestFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except UnreachableTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE


if __name__ == "__main__":
    sys.exit(main())
