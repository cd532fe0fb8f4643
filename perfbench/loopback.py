"""Workloads against a responder process on the loopback interface.

loopback_bulk drives ``Engine.run_test`` as ``linerate run --server`` does.
control offers many short, independent sessions to the responder's accept and
admission path on an open-loop schedule.  No real link is crossed: the rates
measured here are the tool's own ceiling on this host, not a wire rate.
"""

import contextlib
import os
import socket
import statistics
import struct
import threading
import time

from linerate import engine, protocol, records
from linerate.engine import Engine, TestRefusedError, TestSpec, UnreachableTargetError
from linerate.metrics import EstimationMethod

import hostref
from common import Outcome, own_cpu_s, process_cpu_s, process_status, start_responder
from hostref import SocketReference

NPROC = os.cpu_count() or 1

# loopback_bulk: one cycle of four tests (both directions at both connection
# counts) fills a pass.  Every test also pays the engine's fixed probe and
# cross-traffic window (~2.2 s) and the references around it (~0.5 s), so the
# transfers get the rest of the time.
TEST_FIXED_COST_S = 2.8
# Plain-socket transfers before and after each test; their median scales it.
SOCKET_REFS_EACH_SIDE = 3
MIN_TEST_DURATION_S = 0.5
EXPECTED_FLAGS = {engine.FLAG_FEW_CONNECTIONS, engine.FLAG_CROSS_TRAFFIC,
                  engine.FLAG_CROSS_UNKNOWN, engine.FLAG_SERVER_LOAD}

# control: the offered rate sits well below the knee of this host (about a
# third of the closed-loop session rate of nproc clients), so a slower
# responder shows up as latency before it shows up as a backlog.
OFFERED_SESSIONS_PER_S = 300.0
# Latency percentiles are taken per window of due times and the median across
# windows is reported, so one noisy stretch of a run (another tenant on the
# host, a scheduling hiccup) does not decide the run's figure.  A 5 s window
# at 300/s holds ~1500 sessions, 15 of them beyond its p99.
WINDOW_S = 5.0
SESSION_TIMEOUT_S = 5.0
ECHO_PAYLOAD_BYTES = (8, 64)
HELLO_DURATION_MS = (1000, 10000)


def set_up_responder(ctx):
    """Median scaled and raw set-up times, and the responder kept for the run."""
    return hostref.timed_setup(
        ctx.setup_reps(),
        lambda: start_responder(ctx.root, os.path.join(ctx.workdir, "responder.log")),
        discard=lambda r: r.stop(graceful=False))


# -- loopback_bulk ---------------------------------------------------------------

def plan_tests(rng):
    """Four tests alternating download/upload; each pair at 1 or nproc connections.

    Every seed runs the same mix of directions and connection counts, so the
    seed changes only their order and the session nonces.
    """
    counts = [1, NPROC]
    rng.shuffle(counts)
    first = rng.choice(("download", "upload"))
    second = "upload" if first == "download" else "download"
    return [((first, second)[i % 2], counts[(i // 2) % 2], rng.randbytes(protocol.NONCE_LEN))
            for i in range(4)]


def _test_problems(raw, n_connections):
    problems = []
    if raw.aggregate_trace.total_bytes <= 0:
        problems.append("no bytes moved")
    if not raw.server_summary:
        problems.append("no server summary")
    elif len(raw.server_summary) != n_connections:
        problems.append(f"server summary covers {len(raw.server_summary)} of "
                        f"{n_connections} connections")
    if engine.FLAG_DEGENERATE in raw.flags:
        problems.append("degenerate trace")
    unexpected = set(raw.flags) - EXPECTED_FLAGS
    if unexpected:
        problems.append(f"unexpected flags {sorted(unexpected)}")
    return problems


def measure_bulk(responder, sink, tests, duration_s, store, tracer=None):
    """Run ``tests`` in order, each between plain-socket references.

    Client and responder CPU are counted over ``run_test`` alone, so the
    references cost neither.
    """
    method = EstimationMethod()
    moved = {"download": [0.0, 0.0], "upload": [0.0, 0.0]}  # bytes, transfer seconds
    scaled_bytes = 0.0
    upload_client = upload_server = 0
    overheads, echo_rtts = [], []
    client_cpu_s = responder_cpu_s = 0.0
    failed = 0
    for op_id, (direction, n_conn, nonce) in enumerate(tests):
        if tracer is not None:
            tracer.set_operation(op_id)
        spec = TestSpec(target=responder.target, direction=direction, duration=duration_s,
                        n_connections=n_conn, nonce=nonce)
        ref_rates = [sink.rate_mb_per_s() for _ in range(SOCKET_REFS_EACH_SIDE)]
        cpu0, rcpu0 = own_cpu_s(), process_cpu_s(responder.pid)
        t0 = time.perf_counter()
        try:
            raw = Engine().run_test(spec)
            run_s = time.perf_counter() - t0
            store.append(records.make_result(raw, method, records.ORIGIN_USER))
        except (TestRefusedError, UnreachableTargetError, OSError, ValueError) as exc:
            failed += 1
            print(f"loopback_bulk: test {op_id} ({direction}, {n_conn}) failed: {exc}")
            continue
        finally:
            client_cpu_s += own_cpu_s() - cpu0
            responder_cpu_s += process_cpu_s(responder.pid) - rcpu0
        ref_rates += [sink.rate_mb_per_s() for _ in range(SOCKET_REFS_EACH_SIDE)]
        overheads.append(run_s - duration_s)
        echo_rtts.extend(raw.latency.rtts)
        problems = _test_problems(raw, n_conn)
        if problems:
            failed += 1
            print(f"loopback_bulk: test {op_id} ({direction}, {n_conn}): {'; '.join(problems)}")
            continue
        trace = raw.aggregate_trace
        moved[direction][0] += trace.total_bytes
        moved[direction][1] += trace.duration_ms / 1000.0
        scaled_bytes += (trace.total_bytes * hostref.SOCKET_NOMINAL_MB_PER_S
                         / statistics.median(ref_rates))
        if direction == "upload":
            upload_client += trace.total_bytes
            upload_server += sum(entry[1] for entry in raw.server_summary)
    return {
        "moved": moved,
        "scaled_bytes": scaled_bytes,
        "overheads_s": overheads,
        "echo_rtts_ms": echo_rtts,
        "failed": failed,
        "attempted": len(tests),
        "client_cpu_s": client_cpu_s,
        "responder_cpu_s": responder_cpu_s,
        "upload_gap_ratio": ((upload_client - upload_server) / upload_client
                             if upload_client else 0.0),
    }


def _gbps(moved):
    nbytes, seconds = moved
    return 8.0 * nbytes / seconds / 1e9 if seconds else 0.0


def _transfer_s(result):
    return sum(s for _, s in result["moved"].values())


def _mb_per_s(result):
    """MB moved per second of transfer, both directions together."""
    seconds = _transfer_s(result)
    return sum(b for b, _ in result["moved"].values()) / 1e6 / seconds if seconds else 0.0


def _scaled_mb_per_s(result):
    """As _mb_per_s, each test's bytes scaled by its plain-socket reference."""
    seconds = _transfer_s(result)
    return result["scaled_bytes"] / 1e6 / seconds if seconds else 0.0


def run_bulk(ctx, rng_factory, tracer=None):
    baseline_threads = threading.active_count()
    setup_s, setup_raw_s, responder = set_up_responder(ctx)
    outcome = Outcome("loopback_bulk")
    sink = None
    try:
        sink = SocketReference(ctx.root, os.path.join(ctx.workdir, "sink.log"))
        store = records.ResultStore(ctx.fresh_path("results.jsonl"))
        results = {}
        passes = ctx.passes(tracer)
        for label, seconds, pass_tracer in passes:
            duration_s = max(MIN_TEST_DURATION_S, seconds / 4 - TEST_FIXED_COST_S)
            tests = plan_tests(rng_factory("tests"))
            with pass_tracer or contextlib.nullcontext():
                results[label] = measure_bulk(responder, sink, tests, duration_s, store,
                                              pass_tracer)
        status = process_status(responder.pid)
    finally:
        if sink is not None:
            sink.stop()
        responder.stop()

    main = results[passes[-1][0]]
    gb = sum(b for b, _ in main["moved"].values()) / 1e9
    cpu_s_per_gb = (main["client_cpu_s"] + main["responder_cpu_s"]) / gb if gb else 0.0
    overheads_ms = [1000.0 * v for v in main["overheads_s"]] or [float("nan")]
    test_overhead_s = statistics.median(overheads_ms) / 1000.0
    outcome.attempted = sum(r["attempted"] for r in results.values())
    outcome.failed = sum(r["failed"] for r in results.values())
    outcome.checks["bytes_moved_both_directions"] = all(
        r["moved"]["download"][0] > 0 and r["moved"]["upload"][0] > 0 for r in results.values())
    outcome.generic = {
        "setup_s": setup_s,
        "work_per_s": _scaled_mb_per_s(main),
        "op_ms_p50": statistics.median(overheads_ms),
        "op_ms_tail": max(overheads_ms),
        "cpu_ms_per_work": cpu_s_per_gb,
    }
    outcome.named = {
        "setup_s": (setup_raw_s, "s"),
        "download_gbps": (_gbps(main["moved"]["download"]), "Gbit/s"),
        "upload_gbps": (_gbps(main["moved"]["upload"]), "Gbit/s"),
        "cpu_s_per_gb": (cpu_s_per_gb, "s/GB"),
        "test_overhead_s": (test_overhead_s, "s"),
    }
    outcome.info = {
        "tests": len(main["overheads_s"]),
        "test_duration_s": duration_s,
        "raw_mb_per_s": _mb_per_s(main),
        "upload_gap_ratio": main["upload_gap_ratio"],
        "bench_threads_baseline": baseline_threads,
        "bench_threads_after": threading.active_count(),
        "responder_threads": status.get("threads"),
        "responder_rss_mb": status.get("rss_mb"),
    }
    if tracer is not None:
        outcome.layer_inputs = {
            "engine.cpu_s_per_gb": main["client_cpu_s"] / gb if gb else 0.0,
            "responder.cpu_s_per_gb": main["responder_cpu_s"] / gb if gb else 0.0,
            "engine.upload_gap_ratio": main["upload_gap_ratio"],
            "engine.download_gbps": outcome.named["download_gbps"][0],
            "engine.upload_gbps": outcome.named["upload_gbps"][0],
            "engine.test_overhead_s": test_overhead_s,
            "protocol.echo_rtt_ms_p50": statistics.median(main["echo_rtts_ms"] or [0.0]),
        }
        traced_rate = _scaled_mb_per_s(main)
        outcome.overhead_pct = (100.0 * (_scaled_mb_per_s(results["untraced"]) / traced_rate
                                         - 1.0) if traced_rate else float("nan"))
    return outcome


# -- control ----------------------------------------------------------------------

class SessionError(Exception):
    """The responder answered, but not with what the session asked for."""


def plan_sessions(rng, seconds, rate):
    """Poisson arrivals over [0, seconds): (due offset s, echo payloads, nonce, hello)."""
    sessions = []
    due = rng.expovariate(rate)
    while due < seconds:
        payloads = [rng.randbytes(rng.randint(*ECHO_PAYLOAD_BYTES))
                    for _ in range(engine.PROBE_COUNT_DEFAULT)]
        hello = protocol.pack_hello(rng.choice(("download", "upload")),
                                    rng.randint(*HELLO_DURATION_MS), rng.randint(1, 4))
        sessions.append((due, payloads, rng.randbytes(protocol.NONCE_LEN), hello))
        due += rng.expovariate(rate)
    return sessions


# Close with a reset instead of a FIN: a run opens ~18k connections, and as
# the side that closes first the bench would otherwise leave them all in
# TIME_WAIT, which slowed connect() in the next run several-fold.
_LINGER_RESET = struct.pack("ii", 1, 0)


def _connect(address):
    sock = socket.create_connection(address, timeout=SESSION_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_RESET)
    return sock


def run_session(address, payloads, nonce, hello, echo_rtts):
    """Echo probes on a fresh connection, then a HELLO on a control connection."""
    with _connect(address) as sock:
        for payload in payloads:
            sent = time.perf_counter()
            protocol.send_frame(sock, protocol.ECHO, protocol.ZERO_NONCE, payload)
            kind, _nonce, got = protocol.recv_frame(sock)
            if kind != protocol.ECHO_REPLY or got != payload:
                raise SessionError("echo reply does not carry the probe payload")
            echo_rtts.append((time.perf_counter() - sent) * 1000.0)
    with _connect(address) as sock:
        protocol.send_frame(sock, protocol.HELLO, nonce, hello)
        kind, got_nonce, payload = protocol.recv_frame(sock)
        if kind != protocol.HELLO_ACK:
            raise SessionError(f"expected hello_ack, got {protocol.KIND_NAMES[kind]}")
        if got_nonce != nonce:
            raise SessionError("hello_ack carries another session's nonce")
        protocol.unpack_load(payload)


def measure_control(responder, sessions, seconds, tracer=None):
    """Offer ``sessions`` on their schedule from at most nproc generator threads."""
    n = len(sessions)
    latency_ms = [None] * n
    started_at = [None] * n
    echo_rtts = []
    failures = []
    next_index = [0]
    lock = threading.Lock()
    cpu0, rcpu0 = own_cpu_s(), process_cpu_s(responder.pid)
    t0 = time.perf_counter() + 0.05

    def generator():
        rtts = []
        while True:
            with lock:
                i = next_index[0]
                if i >= n:
                    break
                next_index[0] += 1
            due_offset, payloads, nonce, hello = sessions[i]
            due = t0 + due_offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            started_at[i] = time.perf_counter()
            if tracer is not None:
                tracer.set_operation(i)
            try:
                run_session(responder.address, payloads, nonce, hello, rtts)
            except (OSError, protocol.ProtocolError, SessionError) as exc:
                failures.append((i, repr(exc)))
                continue
            latency_ms[i] = (time.perf_counter() - due) * 1000.0
        echo_rtts.extend(rtts)

    workers = [threading.Thread(target=generator, daemon=True) for _ in range(NPROC)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=seconds + 120.0)
    hung = sum(1 for worker in workers if worker.is_alive())
    finished = time.perf_counter()
    window_end = t0 + seconds
    lateness_ms = [(s - (t0 + sessions[i][0])) * 1000.0
                   for i, s in enumerate(started_at) if s is not None]
    done = [v for v in latency_ms if v is not None]
    n_windows = max(1, round(seconds / WINDOW_S))
    windows = [[] for _ in range(n_windows)]
    for (due_offset, *_rest), value in zip(sessions, latency_ms):
        if value is not None:
            windows[min(n_windows - 1, int(due_offset / seconds * n_windows))].append(value)
    for i, reason in failures[:5]:
        print(f"control: session {i} failed: {reason}")
    return {
        "latency_ms": done,
        "windows": [w for w in windows if w],
        "echo_rtts_ms": echo_rtts,
        "attempted": n,
        "failed": n - len(done),
        "hung_generators": hung,
        "elapsed_s": max(seconds, finished - t0),
        "lateness_ms": lateness_ms or [0.0],
        "backlog": sum(1 for s in started_at if s is None or s > window_end),
        "cpu_s": own_cpu_s() - cpu0 + process_cpu_s(responder.pid) - rcpu0,
    }


def quantile(values, q_percent):
    """The q-th percentile (1-99) of two or more values, interpolating linearly."""
    return statistics.quantiles(values, n=100, method="inclusive")[q_percent - 1]


def windowed(windows, q_percent):
    """Median across windows of each window's percentile."""
    return (statistics.median(quantile(w, q_percent) for w in windows)
            if windows else float("nan"))


def run_control(ctx, rng_factory, tracer=None):
    baseline_threads = threading.active_count()
    setup_s, setup_raw_s, responder = set_up_responder(ctx)
    outcome = Outcome("control")
    try:
        results = {}
        passes = ctx.passes(tracer)
        for label, seconds, pass_tracer in passes:
            sessions = plan_sessions(rng_factory("sessions"), seconds, OFFERED_SESSIONS_PER_S)
            with pass_tracer or contextlib.nullcontext():
                results[label] = measure_control(responder, sessions, seconds, pass_tracer)
        status = process_status(responder.pid)
    finally:
        responder.stop()

    main = results[passes[-1][0]]
    completed = len(main["latency_ms"])
    outcome.attempted = sum(r["attempted"] for r in results.values())
    outcome.failed = sum(r["failed"] for r in results.values())
    outcome.checks["generators_finished"] = all(r["hung_generators"] == 0
                                                for r in results.values())
    p50, p99 = windowed(main["windows"], 50), windowed(main["windows"], 99)
    echo_p50 = statistics.median(main["echo_rtts_ms"] or [float("nan")])
    outcome.generic = {
        "setup_s": setup_s,
        "work_per_s": completed / main["elapsed_s"],
        "op_ms_p50": p50,
        "op_ms_tail": p99,
        "cpu_ms_per_work": 1000.0 * main["cpu_s"] / max(1, completed),
    }
    outcome.named = {
        "setup_s": (setup_raw_s, "s"),
        "session_ms_p50": (p50, "ms"),
        "session_ms_p99": (p99, "ms"),
        "echo_rtt_ms_p50": (echo_p50, "ms"),
    }
    outcome.info = {
        "sessions": completed,
        "windows": len(main["windows"]),
        "min_beyond_p99_per_window": min(
            (sum(1 for v in w if v > quantile(w, 99)) for w in main["windows"]), default=0),
        "offered_per_s": OFFERED_SESSIONS_PER_S,
        "lateness_ms_p50": statistics.median(main["lateness_ms"]),
        "lateness_ms_max": max(main["lateness_ms"]),
        "backlog": main["backlog"],
        "bench_threads_baseline": baseline_threads,
        "bench_threads_after": threading.active_count(),
        "responder_threads": status.get("threads"),
        "responder_rss_mb": status.get("rss_mb"),
    }
    outcome.layer_inputs = {"protocol.echo_rtt_ms_p50": echo_p50}
    if tracer is not None:
        outcome.overhead_pct = 100.0 * (p50 / windowed(results["untraced"]["windows"], 50)
                                         - 1.0)
    return outcome
