"""Versioned result records, the append-only store, and aggregate reporting.

Every stored result is self-describing: the raw traces, the probe statistics,
the fully expanded methodology and, for a simulated test, the fluid model's
inputs ride along with the reported numbers, so anyone can recompute the
report, alternate estimates and methodology (and a simulated record's raw
data) from the record alone and get the same bits.  ``verify_store`` checks
exactly that.  Records are canonical JSON, one per line; the store is
append-only, any number of processes may append to it at once, and a
corrupted or foreign trailing line never hides the earlier records.

Schema v2 stores a record's traces as one table, ``raw.trace``: the sample
interval and source, the sampler's time column once, the distinct byte
columns once each, and indices into those columns for the aggregate and
for each connection.  Columns are deduplicated by value, so a simulated
record's n equal per-connection traces are one column, and the bytes
depend only on the values, not on which trace objects were shared.  A
record's line is ``canonical_json(to_dict())``: one encoder call.

Schema v1 lines still load.  v1 is a pair layout of the same table: every
trace is stored in full as ``[t, bytes]`` pairs, the time column zipped with
its byte column, so a v1 line whose traces do not share one clock is
corrupt.  v1 also stored the spec and flags twice (top level and ``raw``), a
``warmup_excluded`` flag in the spec and the methodology that no estimator
reads and every run set to true, and ``started_at_monotonic``, a reading of
one process's monotonic clock.  v2 drops all of these; the last stays on
``RawTestRecord`` in memory for ``run_multi_destination``.  A v1 record
re-encodes to its v1 bytes with ``to_json(SCHEMA_V1)``.
"""

import fcntl
import json
import logging
import math
import os
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import repeat
from operator import mul, truediv
from typing import ClassVar

from . import flowmodel, metrics
from .coordinator import Registry, ServerDescriptor
from .engine import (FLAG_CROSS_TRAFFIC, FLAG_CROSS_UNKNOWN, FLAG_DEGENERATE,
                     FLAG_FEW_CONNECTIONS, FLAG_SERVER_LOAD, RawTestRecord, TestSpec,
                     connection_flags)
from .flowmodel import ThroughputTrace
from .metrics import EstimationMethod, LatencyStats, MetricReport

log = logging.getLogger(__name__)

SCHEMA_V1 = 1
SCHEMA_VERSION = 2

ORIGIN_SCHEDULED = "scheduled"
ORIGIN_USER = "user"
ORIGINS = (ORIGIN_SCHEDULED, ORIGIN_USER)

# Results carrying any of these flags are left out of throughput summaries.
EXCLUSION_FLAGS = (FLAG_CROSS_TRAFFIC, FLAG_DEGENERATE)

THROUGHPUT_METRICS = ("download_bps", "upload_bps")
QUALITY_METRICS = ("latency_ms", "jitter_ms", "loss_rate")

# The checks verify_store makes, in the order it reports failures: a line
# that does not load, a report, alternate estimate or methodology that its
# method, spec and aggregate trace do not reproduce, a raw field that the
# rest of the raw record does not derive (a trace interval other than the
# spec's, a time other than k * interval, a connection-count or
# unknown-cross-traffic flag that the spec or cross-traffic figure
# contradicts, a simulated flag on a measured trace or missing from a
# simulated one, a measured line's flag that no engine of its schema sets,
# or a measured aggregate column that is not the int sum of its
# per-connection columns), a line that does not re-encode to its own bytes,
# and a simulated record's raw data that its spec and model inputs do not
# regenerate.
VERIFY_CHECKS = ("corrupt", "report", "derived", "round_trip", "model")

# A simulated record's flag and target id, and its probes of the model's RTT.
SIMULATED_FLAG = "simulated"
SIMULATED_PROBES = 5

# Every flag an engine sets on a measured record, by the schema it wrote:
# the engines that wrote v1 also set FLAG_SERVER_LOAD.
MEASURED_FLAGS = {SCHEMA_VERSION: frozenset({FLAG_FEW_CONNECTIONS, FLAG_CROSS_TRAFFIC,
                                             FLAG_CROSS_UNKNOWN, FLAG_DEGENERATE})}
MEASURED_FLAGS[SCHEMA_V1] = MEASURED_FLAGS[SCHEMA_VERSION] | {FLAG_SERVER_LOAD}


class UnknownSchemaError(Exception):
    """The record's schema version is one this reader does not understand."""


# json.dumps builds a new encoder on every call, which costs more than
# encoding a small value. check_circular=False skips the encoder's marker
# table, an id lookup per container: a value that contains itself still
# raises, as RecursionError instead of ValueError.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                                      check_circular=False)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return _CANONICAL_ENCODER.encode(obj)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# json.loads accepts NaN, Infinity and -Infinity, which canonical_json never
# writes; a stored line holding one is corrupt.
_decode_stored = json.JSONDecoder(parse_constant=_refuse_constant).decode


# -- converters for types that live in other modules --------------------------

def latency_to_dict(stats: LatencyStats) -> dict:
    return {"rtts": list(stats.rtts), "sent": stats.sent, "received": stats.received}


def latency_from_dict(data: dict) -> LatencyStats:
    return LatencyStats(rtts=tuple(data["rtts"]), sent=data["sent"],
                        received=data["received"])


def trace_table(aggregate: ThroughputTrace, per_connection) -> dict:
    """A record's traces as schema v2's ``raw.trace``: one time column, distinct byte columns.

    Every trace must share the aggregate's sample interval, source and
    sample times, as the engine's one sampler and the fluid model's equal
    split always do; a record whose traces do not raises ValueError.  The
    stored columns are the traces' own, and a byte column equal to an
    earlier one is stored once.  Equal is ``==``, under which an int 5
    equals 5.0; the traces of one record never mix the two (measured counts
    are ints, simulated bytes floats).  The aggregate's column comes first.
    """
    interval, source, times = aggregate.sample_interval, aggregate.source, aggregate.times
    columns = [aggregate.counts]
    positions = {aggregate.counts: 0}  # byte column -> its index
    known = {id(aggregate): 0}  # trace object -> its column's index
    indices = []
    for trace in per_connection:
        index = known.get(id(trace))
        if index is None:
            if trace.sample_interval != interval or trace.source != source:
                raise ValueError("a record's traces must share one sample interval and source")
            if trace.times != times:
                raise ValueError("a record's traces must share one time column")
            index = known[id(trace)] = positions.setdefault(trace.counts, len(columns))
            if index == len(columns):
                columns.append(trace.counts)
        indices.append(index)
    return {
        "sample_interval": interval,
        "source": source,
        "times": times,
        "columns": columns,
        "aggregate": 0,
        "per_connection": indices,
    }


def traces_from_table(table: dict) -> tuple[ThroughputTrace, tuple[ThroughputTrace, ...]]:
    """(aggregate, per-connection traces) of a ``raw.trace``; one trace object per column."""
    columns = table["columns"]
    per_connection = table["per_connection"]
    for index in [table["aggregate"], *per_connection]:
        if type(index) is not int or not 0 <= index < len(columns):
            raise ValueError(f"trace column index {index!r} is not one of the record's columns")
    # The first column's trace checks the time column; the others share it.
    first = ThroughputTrace.from_columns(table["sample_interval"], table["times"], columns[0],
                                         table["source"])
    traces = [first] + [first.with_counts(column) for column in columns[1:]]
    return traces[table["aggregate"]], tuple(traces[index] for index in per_connection)


def _raw_fields(raw: RawTestRecord) -> dict:
    """The fields every schema stores alike."""
    return {
        "latency": latency_to_dict(raw.latency),
        "cross_traffic_bps": raw.cross_traffic_bps,
        "flags": sorted(raw.flags),
        "server_summary": ([list(row) for row in raw.server_summary]
                           if raw.server_summary is not None else None),
        "server_load": list(raw.server_load) if raw.server_load is not None else None,
    }


def raw_to_dict(raw: RawTestRecord) -> dict:
    return {
        **_raw_fields(raw),
        "spec": raw.spec.to_dict(),
        "model": raw.model,
        "trace": trace_table(raw.aggregate_trace, raw.per_connection_traces),
    }


def _raw_record(data: dict, spec: dict, aggregate: ThroughputTrace, per_connection,
                **extra) -> RawTestRecord:
    return RawTestRecord(
        spec=TestSpec.from_dict(spec),
        per_connection_traces=per_connection,
        aggregate_trace=aggregate,
        latency=latency_from_dict(data["latency"]),
        cross_traffic_bps=data["cross_traffic_bps"],
        flags=frozenset(data["flags"]),
        server_summary=(tuple(tuple(row) for row in data["server_summary"])
                        if data["server_summary"] is not None else None),
        server_load=(tuple(data["server_load"])
                     if data["server_load"] is not None else None),
        **extra,
    )


def raw_from_dict(data: dict) -> RawTestRecord:
    aggregate, per_connection = traces_from_table(data["trace"])
    return _raw_record(data, data["spec"], aggregate, per_connection, model=data["model"])


# -- schema v1 ------------------------------------------------------------------

def raw_to_v1_dict(raw: RawTestRecord) -> dict:
    """``raw`` as schema v1 stores it; ``raw.model`` has no place there.

    Each trace is ``[t, bytes]`` pairs: trace_table's time column is paired
    with each of its distinct byte columns once.
    """
    table = trace_table(raw.aggregate_trace, raw.per_connection_traces)
    traces = [{"sample_interval": table["sample_interval"], "source": table["source"],
               "samples": tuple(zip(table["times"], column))} for column in table["columns"]]
    return {
        **_raw_fields(raw),
        # Every run set warmup_excluded, and no estimator read it.
        "spec": {**raw.spec.to_dict(), "warmup_excluded": True},
        "started_at_monotonic": raw.started_at_monotonic,
        "per_connection_traces": [traces[index] for index in table["per_connection"]],
        "aggregate_trace": traces[table["aggregate"]],
    }


def _v1_trace_table(aggregate: dict, per_connection: list) -> dict:
    """A v1 record's stored traces as the ``raw.trace`` table trace_table makes.

    Every sample must be a pair and every trace on the aggregate's clock
    (interval, source and times); equal byte columns (by ``==``) are one.
    """
    clocks, columns, indices = set(), {}, []  # columns: byte column -> its index
    for data in [aggregate, *per_connection]:
        samples = data["samples"]
        times, counts = zip(*samples, strict=True) if samples else ((), ())
        clocks.add((data["sample_interval"], data["source"], times))
        indices.append(columns.setdefault(counts, len(columns)))
    if len(clocks) != 1:
        raise ValueError("a record's traces must share one sample interval, source and times")
    [(interval, source, times)] = clocks
    return {"sample_interval": interval, "source": source, "times": times,
            "columns": list(columns), "aggregate": 0, "per_connection": indices[1:]}


def raw_from_v1_dict(data: dict) -> RawTestRecord:
    spec = dict(data["spec"])
    spec.pop("warmup_excluded", None)
    aggregate, per_connection = traces_from_table(
        _v1_trace_table(data["aggregate_trace"], data["per_connection_traces"]))
    return _raw_record(data, spec, aggregate, per_connection,
                       started_at_monotonic=data["started_at_monotonic"])


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class MeasurementResult:
    """One finished test, stored with everything needed to recompute it."""

    timestamp: str  # ISO 8601, UTC
    origin: str
    raw: RawTestRecord
    report: MetricReport
    server: ServerDescriptor | None
    methodology: dict
    alternate_estimates: dict  # method kind -> bits/s
    # Not a field: the version to_json writes unless told otherwise.
    schema_version: ClassVar[int] = SCHEMA_VERSION

    def __post_init__(self):
        if self.origin not in ORIGINS:
            raise ValueError(f"origin must be one of {ORIGINS}, got {self.origin!r}")

    # The spec and flags are raw's; schema v1 stored a second copy of each.
    @property
    def spec(self) -> TestSpec:
        return self.raw.spec

    @property
    def flags(self) -> frozenset:
        return self.raw.flags

    def to_dict(self, schema_version: int = SCHEMA_VERSION) -> dict:
        data = {
            "schema_version": schema_version,
            "timestamp": self.timestamp,
            "origin": self.origin,
            "report": self.report.to_dict(),
            "server": self.server.to_dict() if self.server is not None else None,
            "methodology": self.methodology,
            "alternate_estimates": self.alternate_estimates,
        }
        if schema_version == SCHEMA_VERSION:
            data["raw"] = raw_to_dict(self.raw)
        elif schema_version == SCHEMA_V1:
            raw = data["raw"] = raw_to_v1_dict(self.raw)
            data["spec"], data["flags"] = raw["spec"], raw["flags"]
            data["methodology"] = {**self.methodology, "warmup_excluded": True}
        else:
            raise UnknownSchemaError(f"cannot write schema version {schema_version!r}")
        return data

    def to_json(self, schema_version: int = SCHEMA_VERSION) -> str:
        """The record's stored line (without its newline), in one encoder call."""
        return canonical_json(self.to_dict(schema_version))

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementResult":
        if not isinstance(data, dict):
            raise ValueError(f"a record is a JSON object, not {type(data).__name__}")
        version = data.get("schema_version")
        if version not in (SCHEMA_V1, SCHEMA_VERSION):
            raise UnknownSchemaError(
                f"record schema version {version!r} is not supported "
                f"(this reader understands {SCHEMA_V1} and {SCHEMA_VERSION})")
        methodology = data["methodology"]
        if version == SCHEMA_VERSION:
            raw = raw_from_dict(data["raw"])
        else:
            stored = data["raw"]
            if data["spec"] != stored["spec"] or data["flags"] != stored["flags"]:
                raise ValueError("top-level spec and flags differ from the raw record's")
            raw = raw_from_v1_dict(stored)
            methodology = dict(methodology)
            methodology.pop("warmup_excluded", None)
        return cls(
            timestamp=data["timestamp"],
            origin=data["origin"],
            raw=raw,
            report=MetricReport.from_dict(data["report"]),
            server=(ServerDescriptor.from_dict(data["server"])
                    if data["server"] is not None else None),
            methodology=methodology,
            alternate_estimates=data["alternate_estimates"],
        )

    @classmethod
    def from_json(cls, line: str) -> "MeasurementResult":
        return cls.from_dict(_decode_stored(line))


def build_methodology(spec: TestSpec, method: EstimationMethod,
                      trace_source: str) -> dict:
    """The fully expanded how-this-number-was-made block."""
    return {
        "method": method.to_dict(),
        "headline": method.kind,
        "direction": spec.direction,
        "duration_s": spec.duration,
        "n_connections": spec.n_connections,
        "sample_interval_ms": spec.sample_interval,
        "trace_source": trace_source,
    }


def make_result(raw: RawTestRecord, method: EstimationMethod, origin: str,
                server: ServerDescriptor | None = None,
                timestamp: str | None = None) -> MeasurementResult:
    """Assemble the storable result for one finished test.

    Every estimator runs once: the report's headline is the alternate
    estimate for the method's own kind, which is what build_report computes
    (recompute_report re-derives it independently).
    """
    spec = raw.spec
    estimates = metrics.all_estimates(raw.aggregate_trace, method)
    return MeasurementResult(
        timestamp=timestamp or utc_now_iso(),
        origin=origin,
        raw=raw,
        report=metrics.make_report(spec.direction, estimates[method.kind], raw.latency,
                                   method),
        server=server,
        methodology=build_methodology(spec, method, raw.aggregate_trace.source),
        alternate_estimates=estimates,
    )


def recompute_report(result: MeasurementResult) -> MetricReport:
    """Re-derive the report from the stored raw data and stored methodology.

    Matching the stored report exactly is the self-description guarantee
    every record must satisfy.
    """
    method = EstimationMethod.from_dict(result.methodology["method"])
    return metrics.build_report(result.spec.direction, result.raw.aggregate_trace,
                                result.raw.latency, method)


def simulate_raw(spec: TestSpec, model: dict) -> RawTestRecord:
    """A simulated test's whole raw record, from its spec and fluid-model inputs alone."""
    n = spec.n_connections
    aggregate = flowmodel.simulate_model(model, n, spec.duration, spec.sample_interval)
    # The model's flows are symmetric, so the exact per-connection answer is
    # an equal split of the aggregate: one frozen trace, repeated n times.
    share = aggregate.with_counts(map(truediv, aggregate.counts, repeat(n)))
    return RawTestRecord(
        spec=spec,
        per_connection_traces=(share,) * n,
        aggregate_trace=aggregate,
        latency=LatencyStats(rtts=(model["rtt"],) * SIMULATED_PROBES,
                             sent=SIMULATED_PROBES, received=SIMULATED_PROBES),
        cross_traffic_bps=0.0,
        flags={SIMULATED_FLAG} | connection_flags(n),
        model=model,
    )


def _derived_fields_hold(result: MeasurementResult) -> bool:
    # The report, alternate estimates and methodology, each derived again.
    method = EstimationMethod.from_dict(result.methodology["method"])
    trace = result.raw.aggregate_trace
    return (recompute_report(result) == result.report
            and metrics.all_estimates(trace, method) == result.alternate_estimates
            and build_methodology(result.spec, method, trace.source) == result.methodology)


def _raw_derivations_hold(raw: RawTestRecord, schema_version: int) -> bool:
    # Every writer, v1 included, samples every spec.sample_interval ms at
    # exactly k * sample_interval, flags a test by its connection count alone,
    # flags cross traffic unknown exactly when it has no figure for it, and
    # flags a record simulated exactly when its traces are.
    trace = raw.aggregate_trace
    interval = trace.sample_interval
    if (interval != raw.spec.sample_interval
            or trace.times != tuple(map(mul, range(len(trace.times)), repeat(interval)))
            or raw.flags & {FLAG_FEW_CONNECTIONS} != connection_flags(raw.spec.n_connections)
            or (FLAG_CROSS_UNKNOWN in raw.flags) != (raw.cross_traffic_bps is None)
            or (SIMULATED_FLAG in raw.flags) != (trace.source == flowmodel.SIMULATED)):
        return False
    if trace.source != flowmodel.MEASURED:
        return True
    # The engine's sampler sums one snapshot of int counters per sample, so a
    # measured aggregate is exactly the sum of its per-connection columns.
    columns = [share.counts for share in raw.per_connection_traces]
    return (raw.flags <= MEASURED_FLAGS[schema_version]
            and all(type(count) is int for column in columns for count in column)
            and tuple(map(sum, zip(*columns))) == trace.counts)


def _holds(check) -> bool:
    # A check that cannot even be computed on a loaded record fails.
    try:
        return check()
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return False


def verify_line(line: str) -> list[str]:
    """The VERIFY_CHECKS one stored line (without its newline) fails, in order."""
    try:
        data = _decode_stored(line)
        result = MeasurementResult.from_dict(data)
    except (UnknownSchemaError, LookupError, TypeError, ValueError):
        return ["corrupt"]
    failed = []
    if not _holds(lambda: _derived_fields_hold(result)):
        failed.append("report")
    if not _holds(lambda: _raw_derivations_hold(result.raw, data["schema_version"])):
        failed.append("derived")
    if result.to_json(data["schema_version"]) != line:
        failed.append("round_trip")
    if result.raw.model is not None and not _holds(
            lambda: simulate_raw(result.spec, result.raw.model) == result.raw):
        failed.append("model")
    return failed


def verify_store(path) -> tuple[int, int, Counter]:
    """(records checked, records failing, failures by check) over a store's non-blank lines.

    A line is counted once under each check it fails.  A missing store
    raises FileNotFoundError.
    """
    checked = failing = 0
    failures = Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                continue
            checked += 1
            failed = verify_line(line)
            failing += bool(failed)
            failures.update(failed)
    return checked, failing, failures


class ResultStore:
    """Append-only newline-delimited record file.

    Any number of threads and processes may append at once: each append
    writes its whole line under an exclusive ``flock`` on the file, so lines
    never interleave.  Reads tolerate a corrupt or partial trailing line (and
    any line with an unsupported schema version) by skipping it with a
    warning, so earlier records always stay readable.
    """

    def __init__(self, path):
        self.path = str(path)

    def append(self, result: MeasurementResult):
        line = memoryview((result.to_json() + "\n").encode("utf-8"))
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # Closing the descriptor releases the lock.
            fcntl.flock(fd, fcntl.LOCK_EX)
            while line:
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)

    def load(self) -> list[MeasurementResult]:
        return _read_json_lines(self.path, MeasurementResult.from_json, "record")


def _read_json_lines(path, parse, what: str) -> list:
    """``parse(line)`` of every non-blank line; a missing file is empty.

    A line ``parse`` refuses is logged as a corrupt ``what`` and skipped.
    """
    parsed = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return parsed
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            parsed.append(parse(line))
        except UnknownSchemaError as exc:
            log.warning("%s:%d rejected: %s", path, lineno, exc)
        except (ValueError, KeyError, TypeError) as exc:
            log.warning("%s:%d skipped (corrupt %s): %s", path, lineno, what, exc)
    return parsed


# -- aggregation ---------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of a non-empty value list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _summarize(values: list[float]) -> dict | None:
    if not values:
        return None
    return {
        "count": len(values),
        "median": statistics.median(values),
        "mean": statistics.mean(values),
        "p5": _percentile(values, 0.05),
        "p95": _percentile(values, 0.95),
    }


@dataclass(frozen=True)
class AggregateReport:
    """Summary statistics over one origin's results, with method disclosure."""

    origin: str
    population: int
    included: int
    exclusions: dict  # flag -> count of results excluded for it
    metrics: dict  # metric name -> summary dict (or None)
    methodology: dict

    def __post_init__(self):
        if self.included + sum(self.exclusions.values()) != self.population:
            raise ValueError("included plus excluded must equal the population")
        if not self.methodology:
            raise ValueError("an aggregate without its method disclosure is invalid")

    def to_dict(self) -> dict:
        return {
            "origin": self.origin,
            "population": self.population,
            "included": self.included,
            "exclusions": self.exclusions,
            "metrics": self.metrics,
            "methodology": self.methodology,
        }


def aggregate_results(results, origin: str) -> AggregateReport:
    """Summaries over one origin's results.

    Results carrying an exclusion flag stay out of the throughput summaries
    (each attributed to its first matching flag, so counts add up); latency,
    jitter, and loss summaries cover every result since those numbers come
    from probes the flags do not taint.
    """
    group = [r for r in results if r.origin == origin]
    exclusions = {}
    included = []
    for result in group:
        hit = next((f for f in EXCLUSION_FLAGS if f in result.flags), None)
        if hit is None:
            included.append(result)
        else:
            exclusions[hit] = exclusions.get(hit, 0) + 1

    summary = {}
    for name in THROUGHPUT_METRICS:
        values = [getattr(r.report, name) for r in included
                  if getattr(r.report, name) is not None]
        summary[name] = _summarize(values)
    for name in QUALITY_METRICS:
        values = [getattr(r.report, name) for r in group
                  if getattr(r.report, name) is not None]
        summary[name] = _summarize(values)

    methods = sorted({canonical_json(r.methodology["method"]) for r in group})
    methodology = {
        "headline": sorted({r.methodology.get("headline", "") for r in group}),
        "methods": [json.loads(m) for m in methods],
        "trace_sources": sorted({r.raw.aggregate_trace.source for r in group}),
        "exclusion_flags": list(EXCLUSION_FLAGS),
    }
    return AggregateReport(
        origin=origin,
        population=len(group),
        included=len(included),
        exclusions=exclusions,
        metrics=summary,
        methodology=methodology,
    )


def report_blocks(results) -> list[AggregateReport]:
    """One aggregate per (origin, trace source) present, sorted; none is pooled with another.

    Model output and measurements of one origin are two blocks, each naming
    its source in ``methodology["trace_sources"]``.
    """
    groups = {}
    for result in results:
        groups.setdefault((result.origin, result.raw.aggregate_trace.source), []).append(result)
    return [aggregate_results(groups[key], key[0]) for key in sorted(groups)]


# -- registry persistence --------------------------------------------------------

def load_registry(path) -> Registry:
    """Registry from its newline-delimited server file; missing file is empty."""
    registry = Registry()

    def add(line):
        # Adding inside the parse skips a line whose id repeats an earlier one.
        registry.add(ServerDescriptor.from_dict(_decode_stored(line)))

    _read_json_lines(path, add, "server record")
    return registry


def save_registry(path, registry: Registry):
    """Rewrite the server file atomically (write-then-rename).

    Each save writes its own temp file beside the target, so processes that
    save at once never share one; the last rename wins.
    """
    path = str(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent or os.curdir,
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            for server in registry:
                fh.write(canonical_json(server.to_dict()) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
