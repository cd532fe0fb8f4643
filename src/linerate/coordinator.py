"""Server registry, selection, scheduling, and multi-destination runs.

Selection is measurement-driven: location labels only prune the candidate
set, and the final choice is always the lowest measured median RTT, so a
mislabeled server can never win on its label.  Health tracking removes
servers that keep failing or underperforming and lets them earn their way
back.  Schedules spread a day's tests across peak and off-peak windows at
seeded-random times.  Multi-destination runs drive several tests at once
so no single path bottleneck caps the measured rate.
"""

import math
import random
import threading
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timedelta

from . import metrics
from .engine import (
    DEFAULT_DURATION_S,
    Engine,
    TestRefusedError,
    UnreachableTargetError,
)
from .flowmodel import LinkModel, ThroughputTrace, sample_times, simulate_paths

OUTCOME_OK = "ok"
OUTCOME_UNDERPERFORMED = "underperformed"
OUTCOME_UNREACHABLE = "unreachable"
OUTCOMES = (OUTCOME_OK, OUTCOME_UNDERPERFORMED, OUTCOME_UNREACHABLE)

HEALTH_WINDOW = 20  # outcomes remembered per server
HEALTH_REMOVAL_THRESHOLD = 5  # bad outcomes within the window -> removed
HEALTH_RESTORE_STREAK = 10  # consecutive ok outcomes that restore a removed server

PEAK_WINDOW_DEFAULT = ("19:00", "23:00")
IDLE_GAP_FACTOR = 2  # idle time between tests, in test durations
MAX_DESTINATIONS = 4
FLAG_PARTIAL = "partial_destinations"

PROBES_PER_CANDIDATE_MIN = 3
PROBES_PER_CANDIDATE_DEFAULT = 5


class NoServersError(Exception):
    """No server is usable; reasons maps server id to why it was excluded."""

    def __init__(self, message: str, reasons: dict | None = None):
        super().__init__(message)
        self.reasons = dict(reasons or {})


class InfeasibleScheduleError(Exception):
    """The requested test count cannot fit the windows at the required spacing."""


class MultiDestFailedError(Exception):
    """Every destination of a multi-destination run failed."""

    def __init__(self, failures: dict):
        super().__init__(f"all destinations failed: {failures}")
        self.failures = dict(failures)


@dataclass(frozen=True)
class ServerDescriptor:
    """A measurement server plus its rolling health record."""

    id: str
    host: str
    port: int
    declared_location: str = ""
    network: str = ""
    capacity_hint: float | None = None
    health: tuple[str, ...] = ()  # last outcomes, oldest first
    removed: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValueError("server id must be non-empty")
        if not self.host:
            raise ValueError("server host must be non-empty")
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")
        object.__setattr__(self, "health", tuple(self.health))
        if len(self.health) > HEALTH_WINDOW:
            raise ValueError(f"health window longer than {HEALTH_WINDOW}")
        for outcome in self.health:
            if outcome not in OUTCOMES:
                raise ValueError(f"unknown health outcome {outcome!r}")

    @property
    def target(self) -> str:
        return f"{self.host}:{self.port}"

    def health_score(self) -> float:
        """Fraction of ok outcomes in the window; an empty window scores 1."""
        if not self.health:
            return 1.0
        return sum(1 for o in self.health if o == OUTCOME_OK) / len(self.health)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "host": self.host,
            "port": self.port,
            "declared_location": self.declared_location,
            "network": self.network,
            "capacity_hint": self.capacity_hint,
            "health": list(self.health),
            "removed": self.removed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServerDescriptor":
        fields = dict(data)
        fields["health"] = tuple(fields.get("health", ()))
        return cls(**fields)


def apply_outcome(server: ServerDescriptor, outcome: str) -> ServerDescriptor:
    """Pure health transition: append one outcome, update removal state.

    Removal triggers at HEALTH_REMOVAL_THRESHOLD bad outcomes in the window.
    A removed server is restored by HEALTH_RESTORE_STREAK consecutive ok
    outcomes, and restoration clears the window so the stale failures that
    caused removal cannot immediately remove it again.
    """
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown health outcome {outcome!r}")
    window = (server.health + (outcome,))[-HEALTH_WINDOW:]
    removed = server.removed
    if removed:
        streak = window[-HEALTH_RESTORE_STREAK:]
        if len(streak) == HEALTH_RESTORE_STREAK and all(o == OUTCOME_OK for o in streak):
            removed = False
            window = ()
    else:
        bad = sum(1 for o in window if o != OUTCOME_OK)
        if bad >= HEALTH_REMOVAL_THRESHOLD:
            removed = True
    return replace(server, health=window, removed=removed)


class Registry:
    """Id-keyed server collection; all mutation is serialized."""

    def __init__(self, servers=()):
        self._lock = threading.Lock()
        self._servers: dict[str, ServerDescriptor] = {}
        for server in servers:
            self.add(server)

    def add(self, server: ServerDescriptor):
        with self._lock:
            if server.id in self._servers:
                raise ValueError(f"duplicate server id {server.id!r}")
            self._servers[server.id] = server

    def remove(self, server_id: str):
        with self._lock:
            del self._servers[server_id]

    def get(self, server_id: str) -> ServerDescriptor:
        return self._servers[server_id]

    def servers(self) -> list[ServerDescriptor]:
        return list(self._servers.values())

    def __len__(self):
        return len(self._servers)

    def __iter__(self):
        return iter(self.servers())

    def update_health(self, server_id: str, outcome: str) -> ServerDescriptor:
        with self._lock:
            updated = apply_outcome(self._servers[server_id], outcome)
            self._servers[server_id] = updated
            return updated


def replay_outcomes(registry: Registry, outcome_log) -> Registry:
    """Re-apply an append-only (server_id, outcome) log; deterministic."""
    for server_id, outcome in outcome_log:
        registry.update_health(server_id, outcome)
    return registry


def candidate_pool(registry: Registry, client_hint: str, k: int) -> list[ServerDescriptor]:
    """Up to k healthy servers matching the location hint, else all healthy."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(registry) == 0:
        raise NoServersError("registry is empty")
    healthy = [s for s in registry if not s.removed]
    if client_hint:
        matching = [s for s in healthy
                    if s.declared_location.lower() == client_hint.lower()]
    else:
        matching = []
    pool = matching or healthy
    if not pool:
        raise NoServersError("every server is removed by health tracking")
    return sorted(pool, key=lambda s: s.id)[:k]


def select_server(candidates, probes_per_candidate: int = PROBES_PER_CANDIDATE_DEFAULT,
                  prober=None) -> ServerDescriptor:
    """Probe every candidate and pick the lowest median RTT.

    Ties fall to the better health score, then the smaller id.  Declared
    location plays no part: a mislabeled nearby server loses to any server
    that actually answers faster.  prober(server, count) -> LatencyStats is
    injectable; the default probes over the wire.
    """
    candidates = list(candidates)
    if not candidates:
        raise NoServersError("no candidates to select from")
    if probes_per_candidate < PROBES_PER_CANDIDATE_MIN:
        raise ValueError(f"need at least {PROBES_PER_CANDIDATE_MIN} probes per candidate")
    if prober is None:
        engine = Engine()
        prober = lambda server, count: engine.probe_latency(
            (server.host, server.port), count=count)

    reasons = {}
    ranked = []
    for server in candidates:
        try:
            stats = prober(server, probes_per_candidate)
        except UnreachableTargetError as exc:
            reasons[server.id] = str(exc)
            continue
        if stats.received == 0:
            reasons[server.id] = "no echo replies"
            continue
        ranked.append((stats.median_rtt, -server.health_score(), server.id, server))
    if not ranked:
        raise NoServersError("all candidates unreachable", reasons=reasons)
    ranked.sort(key=lambda entry: entry[:3])
    return ranked[0][3]


def _parse_hhmm(text: str) -> int:
    hours, _, minutes = text.partition(":")
    value = int(hours) * 60 + int(minutes or 0)
    if not 0 <= value <= 24 * 60:
        raise ValueError(f"time of day out of range: {text!r}")
    return value


@dataclass(frozen=True)
class Schedule:
    """A day's worth of randomized test times, reproducible from the seed."""

    tests_per_day: int
    peak_window: tuple[str, str] = PEAK_WINDOW_DEFAULT
    fraction_peak: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.tests_per_day < 1:
            raise ValueError("tests_per_day must be at least 1")
        if not 0 <= self.fraction_peak <= 1:
            raise ValueError("fraction_peak must be in [0, 1]")
        object.__setattr__(self, "peak_window", tuple(self.peak_window))
        start, end = (_parse_hhmm(t) for t in self.peak_window)
        if not start < end:
            raise ValueError("peak window must start before it ends")

    @property
    def peak_minutes(self) -> tuple[int, int]:
        start, end = self.peak_window
        return _parse_hhmm(start), _parse_hhmm(end)


def _place_starts(rng, count: int, segments, spacing_s: float) -> list[float]:
    """Uniformly place count start times in the allowed-start segments.

    segments are (lo, hi) seconds-of-day pairs of permissible starts.  The
    draw uses order statistics on a gap-deflated virtual timeline: sort count
    uniforms over the leftover length, then re-inflate the spacing.  This is
    exact (no rejection sampling) and deterministic under the rng.
    """
    if count == 0:
        return []
    spans = [max(0.0, hi - lo) for lo, hi in segments]
    total = sum(spans)
    leftover = total - (count - 1) * spacing_s
    if leftover < 0:
        raise InfeasibleScheduleError(
            f"{count} tests need {(count - 1) * spacing_s:.0f} s of spacing but the "
            f"window offers {total:.0f} s of start room")
    draws = sorted(rng.uniform(0.0, leftover) for _ in range(count))
    starts = []
    for i, u in enumerate(draws):
        virtual = u + i * spacing_s
        for (lo, _hi), span in zip(segments, spans):
            if virtual <= span:
                starts.append(lo + virtual)
                break
            virtual -= span
        else:
            starts.append(segments[-1][1])  # float fence: clamp to the last edge
    return starts


def generate_schedule(schedule: Schedule, day,
                      test_duration_s: float = DEFAULT_DURATION_S) -> list[datetime]:
    """Timestamps for one day: peak and off-peak, seeded, spaced, contained.

    Start-to-start spacing is the test duration plus IDLE_GAP_FACTOR
    durations of idle time, enforced globally, including across the
    peak/off-peak boundaries.
    """
    n = schedule.tests_per_day
    n_peak = math.ceil(schedule.fraction_peak * n)
    n_off = n - n_peak
    d = test_duration_s
    spacing = (1 + IDLE_GAP_FACTOR) * d
    peak_start, peak_end = (m * 60.0 for m in schedule.peak_minutes)
    day_end = 24 * 3600.0

    rng = random.Random(f"{schedule.seed}:{day.isoformat()}")
    starts = _place_starts(rng, n_peak, [(peak_start, peak_end - d)], spacing)
    # Off-peak segments keep a full spacing clear of the peak window so the
    # global gap holds across the boundary too.
    off_segments = [
        (0.0, peak_start - spacing),
        (peak_end + IDLE_GAP_FACTOR * d, day_end - d),
    ]
    starts += _place_starts(rng, n_off, off_segments, spacing)

    midnight = datetime(day.year, day.month, day.day)
    return sorted(midnight + timedelta(seconds=s) for s in starts)


@dataclass(frozen=True)
class MultiDestResult:
    """Concurrent tests against several destinations plus their combined rate."""

    per_destination: tuple  # ((destination id, MetricReport), ...)
    aggregate_bps: float
    overlap_window: tuple[float, float]  # ms relative to the earliest start
    flags: frozenset = frozenset()
    failures: tuple = ()  # ((destination id, reason), ...)
    cross_traffic_bps: float | None = None  # over the whole run; None when unknown

    def __post_init__(self):
        object.__setattr__(self, "per_destination", tuple(self.per_destination))
        object.__setattr__(self, "flags", frozenset(self.flags))
        object.__setattr__(self, "failures", tuple(self.failures))


def _interp_bytes(times, counts, t_ms: float) -> float:
    """Cumulative bytes at a time between samples, linearly interpolated."""
    if t_ms <= times[0]:
        return counts[0]
    if t_ms >= times[-1]:
        return counts[-1]
    # The first sample at or after t_ms ends the segment, so an exact sample
    # time falls in the segment that ends there.
    i = bisect_left(times, t_ms)
    t0, t1 = times[i - 1], times[i]
    b0, b1 = counts[i - 1], counts[i]
    return b0 + (b1 - b0) * (t_ms - t0) / (t1 - t0)


def _aggregate_over_overlap(records, method) -> tuple[float, tuple[float, float]]:
    """Sum traces over the window where every test was running, then estimate."""
    base_ms = min(r.started_at_monotonic for r in records) * 1000.0
    spans = []
    for record in records:
        start = record.started_at_monotonic * 1000.0 - base_ms
        spans.append((start, start + record.aggregate_trace.duration_ms))
    overlap_start = max(start for start, _ in spans)
    overlap_end = min(end for _, end in spans)
    if overlap_end <= overlap_start:
        raise MultiDestFailedError({"overlap": "tests never ran simultaneously"})

    step = min(r.aggregate_trace.sample_interval for r in records)
    times = sample_times(overlap_end - overlap_start, step)
    if len(times) < 2:
        raise MultiDestFailedError({"overlap": "overlap shorter than one sample"})

    sums = []
    for t in times:
        total = 0.0
        for record, (start, _end) in zip(records, spans):
            trace = record.aggregate_trace
            total += _interp_bytes(trace.times, trace.counts, overlap_start + t - start)
        sums.append(total)
    summed = ThroughputTrace.from_columns(step, times, [b - sums[0] for b in sums],
                                          records[0].aggregate_trace.source)
    return metrics.estimate_throughput(summed, method), (overlap_start, overlap_end)


def run_multi_destination(specs, method: metrics.EstimationMethod | None = None,
                          engine_factory=Engine) -> MultiDestResult:
    """Run one test per destination concurrently and combine the results.

    A destination that refuses (``TestRefusedError``) or is unreachable
    (``UnreachableTargetError``) is recorded as a failure; the run proceeds
    over the survivors (flagged partial) and only fails outright when nothing
    survives.  Any other error propagates once every destination's test has
    ended, so no destination is dropped from the result unrecorded.

    Every destination runs on one engine.  Cross traffic is judged once, over
    the whole run: the counters are read before the first test starts and
    after the last one ends, and every record's own wire bytes are
    subtracted.  A record's own cross-traffic figure counts its siblings as
    foreign, so the records are not returned.
    """
    specs = list(specs)
    if not 2 <= len(specs) <= MAX_DESTINATIONS:
        raise ValueError(
            f"need between 2 and {MAX_DESTINATIONS} destinations, got {len(specs)}")
    keys = [spec.target_id or spec.target for spec in specs]
    if len(set(keys)) != len(keys):
        raise ValueError("destinations must be distinct")

    engine = engine_factory()
    counted_at_start = engine.read_counters()
    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=len(specs)) as pool:
        futures = [pool.submit(engine.run_test, spec) for spec in specs]

    method = method or metrics.EstimationMethod()
    records, per_destination, failures = [], [], []
    for key, spec, future in zip(keys, specs, futures):
        try:
            record = future.result()
        except (TestRefusedError, UnreachableTargetError) as exc:
            failures.append((key, str(exc)))
            continue
        records.append(record)
        per_destination.append((key, metrics.build_report(
            spec.direction, record.aggregate_trace, record.latency, method)))
    if not records:
        raise MultiDestFailedError(dict(failures))
    # A destination that failed moved no bytes of its own.
    wire = [record.wire_bytes for record in records]
    cross_bps, flags = engine.measure_cross_traffic(
        counted_at_start, started, None if None in wire else sum(wire))
    aggregate_bps, overlap = _aggregate_over_overlap(records, method)
    if failures:
        flags.add(FLAG_PARTIAL)
    return MultiDestResult(
        per_destination=per_destination,
        aggregate_bps=aggregate_bps,
        overlap_window=overlap,
        flags=flags,
        failures=failures,
        cross_traffic_bps=cross_bps,
    )


def simulate_destination_transfers(
    access_capacity_bps: float,
    destination_caps_bps,
    rtt_ms: float = 20.0,
    duration_s: float = 10.0,
    n_connections: int = 4,
    sample_interval_ms: float = 100.0,
) -> tuple[list[ThroughputTrace], ThroughputTrace]:
    """Fluid oracle for concurrent transfers sharing one access link.

    Each destination runs its own capped path with n_connections flows; all
    paths share the client's access link.  Rounds advance in lockstep (equal
    RTTs), splitting each destination's capacity over its flows and then
    scaling everything down when the summed demand exceeds the access link
    (``flowmodel.simulate_paths``, one representative flow per destination).
    Returns (per-destination traces, aggregate trace).
    """
    caps = list(destination_caps_bps)
    if not caps:
        raise ValueError("need at least one destination")
    if access_capacity_bps <= 0:
        raise ValueError("access capacity must be positive")
    if n_connections < 1:
        raise ValueError(f"n_connections must be >= 1, got {n_connections}")
    links = [LinkModel(capacity=cap, rtt=rtt_ms, loss_rate=0.0) for cap in caps]
    access_bdp = access_capacity_bps * (rtt_ms / 1000.0) / (links[0].mss * 8)
    duration_ms = duration_s * 1000.0
    ledgers, total_ledger = simulate_paths(links, n_connections, duration_ms,
                                           access_bdp=access_bdp)

    per_destination = []
    for link, ledger in zip(links, ledgers):
        trace = ledger.sample(sample_interval_ms, duration_ms)
        trace.check_rate_cap(link.capacity)
        per_destination.append(trace)
    aggregate = total_ledger.sample(sample_interval_ms, duration_ms)
    aggregate.check_rate_cap(min(access_capacity_bps, sum(caps)))
    return per_destination, aggregate
