"""Versioned result records, the append-only store, and aggregate reporting.

Every stored result is self-describing: the raw trace, the probe statistics,
and the fully expanded methodology ride along with the reported numbers, so
anyone can recompute the report from the record alone and get the same bits.
Records are canonical JSON, one per line; the store is append-only, any
number of processes may append to it at once, and a corrupted or foreign
trailing line never hides the earlier records.

A record stores every per-connection trace in full, even when they are one
object repeated (as in simulated records).  ``MeasurementResult.to_json``
encodes each distinct trace object once and repeats its text, and encodes
the fields around the traces in one encoder call per run of sorted keys
that no trace interrupts, a few calls a record; the bytes are those of
``canonical_json(to_dict())``, which stays the reference form.
"""

import fcntl
import json
import logging
import math
import os
import statistics
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import ClassVar

from . import metrics
from .coordinator import Registry, ServerDescriptor
from .engine import FLAG_CROSS_TRAFFIC, FLAG_DEGENERATE, RawTestRecord, TestSpec
from .flowmodel import ThroughputTrace
from .metrics import EstimationMethod, LatencyStats, MetricReport

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

ORIGIN_SCHEDULED = "scheduled"
ORIGIN_USER = "user"
ORIGINS = (ORIGIN_SCHEDULED, ORIGIN_USER)

# Results carrying any of these flags are left out of throughput summaries.
EXCLUSION_FLAGS = (FLAG_CROSS_TRAFFIC, FLAG_DEGENERATE)

THROUGHPUT_METRICS = ("download_bps", "upload_bps")
QUALITY_METRICS = ("latency_ms", "jitter_ms", "loss_rate")


class UnknownSchemaError(Exception):
    """The record's schema version is newer than this reader understands."""


# json.dumps builds a new encoder on every call, which costs more than
# encoding a small value. check_circular=False skips the encoder's marker
# table, an id lookup per container (every sample pair of a trace): a value
# that contains itself still raises, as RecursionError instead of ValueError.
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

def trace_to_dict(trace: ThroughputTrace) -> dict:
    # json writes the (t, bytes) tuples as arrays, so the samples need no copy.
    return {
        "sample_interval": trace.sample_interval,
        "samples": trace.samples,
        "source": trace.source,
    }


def trace_from_dict(data: dict) -> ThroughputTrace:
    return ThroughputTrace(
        sample_interval=data["sample_interval"],
        samples=tuple((t, b) for t, b in data["samples"]),
        source=data["source"],
    )


def latency_to_dict(stats: LatencyStats) -> dict:
    return {"rtts": list(stats.rtts), "sent": stats.sent, "received": stats.received}


def latency_from_dict(data: dict) -> LatencyStats:
    return LatencyStats(rtts=tuple(data["rtts"]), sent=data["sent"],
                        received=data["received"])


def _raw_fields(raw: RawTestRecord) -> dict:
    """Every field of ``raw_to_dict`` except the traces."""
    return {
        "spec": raw.spec.to_dict(),
        "latency": latency_to_dict(raw.latency),
        "cross_traffic_bps": raw.cross_traffic_bps,
        "flags": sorted(raw.flags),
        "server_summary": ([list(row) for row in raw.server_summary]
                           if raw.server_summary is not None else None),
        "server_load": list(raw.server_load) if raw.server_load is not None else None,
        "started_at_monotonic": raw.started_at_monotonic,
    }


def raw_to_dict(raw: RawTestRecord) -> dict:
    return {
        **_raw_fields(raw),
        "per_connection_traces": [trace_to_dict(t) for t in raw.per_connection_traces],
        "aggregate_trace": trace_to_dict(raw.aggregate_trace),
    }


def _join_object(plain: dict, encoded: dict) -> str:
    """Canonical JSON of ``{**plain, **encoded}``; ``encoded``'s values are already JSON text.

    An object's canonical JSON is its ``"key":value`` pairs in key order,
    joined by commas in braces. So each run of ``plain`` keys that no
    ``encoded`` key interrupts is one encoder call, with its braces cut off.
    """
    parts = []
    run = {}
    for key in sorted(plain.keys() | encoded.keys()):
        if key in encoded:
            if run:
                parts.append(canonical_json(run)[1:-1])
                run = {}
            parts.append(canonical_json(key) + ":" + encoded[key])
        else:
            run[key] = plain[key]
    if run:
        parts.append(canonical_json(run)[1:-1])
    return "{" + ",".join(parts) + "}"


def _traces_from_dicts(dicts: list[dict]) -> tuple[ThroughputTrace, ...]:
    # A trace equal to an earlier one of the same record decodes to that
    # earlier object: a simulated record's n per-connection traces are one
    # trace written n times, so it is built and validated once, and
    # to_json's memo encodes it once again. Equal is ==, under which a JSON 5
    # equals 5.0; the traces of one written record never mix the two
    # (measured counts are ints, simulated bytes floats).
    decoded = []
    traces = []
    for data in dicts:
        trace = next((known for seen, known in decoded if seen == data), None)
        if trace is None:
            trace = trace_from_dict(data)
            decoded.append((data, trace))
        traces.append(trace)
    return tuple(traces)


def raw_from_dict(data: dict) -> RawTestRecord:
    return RawTestRecord(
        spec=TestSpec.from_dict(data["spec"]),
        per_connection_traces=_traces_from_dicts(data["per_connection_traces"]),
        aggregate_trace=trace_from_dict(data["aggregate_trace"]),
        latency=latency_from_dict(data["latency"]),
        cross_traffic_bps=data["cross_traffic_bps"],
        flags=frozenset(data["flags"]),
        server_summary=(tuple(tuple(row) for row in data["server_summary"])
                        if data["server_summary"] is not None else None),
        server_load=(tuple(data["server_load"])
                     if data["server_load"] is not None else None),
        started_at_monotonic=data["started_at_monotonic"],
    )


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
    # Not a field: the writer can only write the version the reader accepts.
    schema_version: ClassVar[int] = SCHEMA_VERSION

    def __post_init__(self):
        if self.origin not in ORIGINS:
            raise ValueError(f"origin must be one of {ORIGINS}, got {self.origin!r}")

    # Schema v1 stores the spec and flags twice, at the top level and in raw.
    # In memory they are raw's alone, and from_dict refuses a line whose two
    # copies differ.
    @property
    def spec(self) -> TestSpec:
        return self.raw.spec

    @property
    def flags(self) -> frozenset:
        return self.raw.flags

    def _fields(self) -> dict:
        """Every field of ``to_dict`` except ``raw``."""
        return {
            "schema_version": self.schema_version,
            "timestamp": self.timestamp,
            "origin": self.origin,
            "spec": self.spec.to_dict(),
            "report": self.report.to_dict(),
            "server": self.server.to_dict() if self.server is not None else None,
            "flags": sorted(self.flags),
            "methodology": self.methodology,
            "alternate_estimates": self.alternate_estimates,
        }

    def to_dict(self) -> dict:
        return {**self._fields(), "raw": raw_to_dict(self.raw)}

    def to_json(self) -> str:
        """``canonical_json(self.to_dict())``, encoding each distinct trace object once.

        ``raw`` is joined by _join_object from its plain fields and its
        encoded traces, and the record from its plain fields and ``raw``, so
        a record takes a few encoder calls besides its distinct traces.  The
        trace memo is keyed by ``id()`` and lives only for this call;
        ``self`` keeps every trace alive, so no id is reused.
        """
        encoded_traces = {}

        def trace_json(trace: ThroughputTrace) -> str:
            text = encoded_traces.get(id(trace))
            if text is None:
                text = encoded_traces[id(trace)] = canonical_json(trace_to_dict(trace))
            return text

        raw = _join_object(_raw_fields(self.raw), {
            "per_connection_traces":
                "[" + ",".join(map(trace_json, self.raw.per_connection_traces)) + "]",
            "aggregate_trace": trace_json(self.raw.aggregate_trace),
        })
        return _join_object(self._fields(), {"raw": raw})

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementResult":
        if not isinstance(data, dict):
            raise ValueError(f"a record is a JSON object, not {type(data).__name__}")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise UnknownSchemaError(
                f"record schema version {version!r} is not supported "
                f"(this reader understands {SCHEMA_VERSION})")
        raw = data["raw"]
        if data["spec"] != raw["spec"] or data["flags"] != raw["flags"]:
            raise ValueError("top-level spec and flags differ from the raw record's")
        return cls(
            timestamp=data["timestamp"],
            origin=data["origin"],
            raw=raw_from_dict(raw),
            report=MetricReport.from_dict(data["report"]),
            server=(ServerDescriptor.from_dict(data["server"])
                    if data["server"] is not None else None),
            methodology=data["methodology"],
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
        "warmup_excluded": spec.warmup_excluded,
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
        "mean": statistics.fmean(values),
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
    """One aggregate per origin actually present; origins are never pooled."""
    present = [o for o in ORIGINS if any(r.origin == o for r in results)]
    return [aggregate_results(results, origin) for origin in present]


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
