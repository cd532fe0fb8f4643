"""Derived performance metrics: loss rate, jitter, and throughput estimators.

Speed test tools disagree on how a throughput number is computed from the raw
transfer, so every estimator here is a named method that travels with the
result. Nothing in this module touches the network; everything is a pure
function over traces and probe statistics. Every estimator reads the trace's
interval-rate column, which a trace computes once (``interval_bps``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import ge

from .flowmodel import ThroughputTrace

FULL_AVERAGE = "full_average"
STEADY_STATE = "steady_state"
TRIMMED = "trimmed"
MEDIAN = "median"
PEAK = "peak"
METHOD_KINDS = (FULL_AVERAGE, STEADY_STATE, TRIMMED, MEDIAN, PEAK)

# Fraction of the running maximum a sample must reach to count as steady.
STEADY_THRESHOLD_DEFAULT = 0.90
STEADY_RULE_DEFAULT = "peak90"

# Stand-in for the undisclosed Ookla-style discard rule: drop the lowest 30%
# and highest 10% of interval rates.
TRIM_LOW_DEFAULT = 0.30
TRIM_HIGH_DEFAULT = 0.10


@dataclass(frozen=True)
class LatencyStats:
    """Per-probe round-trip times plus the sent/received counts behind loss rate."""

    rtts: tuple[float, ...]
    sent: int
    received: int

    def __post_init__(self):
        object.__setattr__(self, "rtts", tuple(float(r) for r in self.rtts))
        if self.received != len(self.rtts):
            raise ValueError("received must equal the number of recorded rtts")
        if self.received > self.sent:
            raise ValueError("received cannot exceed sent")
        if any(r <= 0 for r in self.rtts):
            raise ValueError("rtts must be positive")

    @property
    def median_rtt(self) -> float:
        return statistics.median(self.rtts)


@dataclass(frozen=True)
class EstimationMethod:
    """A named throughput-calculation rule and its parameters."""

    kind: str = STEADY_STATE
    trim_low_fraction: float = TRIM_LOW_DEFAULT
    trim_high_fraction: float = TRIM_HIGH_DEFAULT
    steady_start: str = STEADY_RULE_DEFAULT

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown estimation method {self.kind!r}")
        if not 0 <= self.trim_low_fraction < 0.5:
            raise ValueError("trim_low_fraction must be in [0, 0.5)")
        if not 0 <= self.trim_high_fraction < 0.5:
            raise ValueError("trim_high_fraction must be in [0, 0.5)")
        if self.trim_low_fraction + self.trim_high_fraction >= 1:
            raise ValueError("trim fractions must sum below 1")
        steady_threshold(self.steady_start)  # validates the rule id

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "trim_low_fraction": self.trim_low_fraction,
            "trim_high_fraction": self.trim_high_fraction,
            "steady_start": self.steady_start,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EstimationMethod":
        return cls(
            kind=d["kind"],
            trim_low_fraction=d["trim_low_fraction"],
            trim_high_fraction=d["trim_high_fraction"],
            steady_start=d["steady_start"],
        )


def steady_threshold(rule: str) -> float:
    """Map a steady-start rule id like ``peak90`` to its threshold fraction."""
    if not rule.startswith("peak"):
        raise ValueError(f"unknown steady-start rule {rule!r}")
    try:
        percent = int(rule[4:])
    except ValueError:
        raise ValueError(f"unknown steady-start rule {rule!r}") from None
    if not 0 < percent <= 100:
        raise ValueError(f"steady-start rule {rule!r} out of range")
    return percent / 100.0


@dataclass(frozen=True)
class MetricReport:
    """The metric set a finished test reports, always with its methodology."""

    method: EstimationMethod
    download_bps: float | None = None
    upload_bps: float | None = None
    latency_ms: float | None = None
    jitter_ms: float | None = None
    loss_rate: float | None = None

    def __post_init__(self):
        if self.method is None:
            raise ValueError("a report without its methodology is invalid")
        for name in ("download_bps", "upload_bps", "jitter_ms"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.loss_rate is not None and not 0 <= self.loss_rate <= 1:
            raise ValueError("loss_rate must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "method": self.method.to_dict(),
            "download_bps": self.download_bps,
            "upload_bps": self.upload_bps,
            "latency_ms": self.latency_ms,
            "jitter_ms": self.jitter_ms,
            "loss_rate": self.loss_rate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricReport":
        return cls(
            method=EstimationMethod.from_dict(d["method"]),
            download_bps=d["download_bps"],
            upload_bps=d["upload_bps"],
            latency_ms=d["latency_ms"],
            jitter_ms=d["jitter_ms"],
            loss_rate=d["loss_rate"],
        )


def loss_rate(sent: int, received: int) -> float:
    """Lost probes divided by transmitted probes."""
    if sent < 1:
        raise ValueError("sent must be >= 1")
    if received > sent:
        raise ValueError("received cannot exceed sent")
    return (sent - received) / sent


def jitter(rtts) -> float:
    """Mean absolute difference between consecutive latency measurements, ms."""
    rtts = list(rtts)
    if len(rtts) < 2:
        raise ValueError("jitter needs at least 2 samples")
    return statistics.fmean(abs(b - a) for a, b in zip(rtts, rtts[1:]))


def interval_rates(trace: ThroughputTrace) -> list[tuple[float, float]]:
    """Per-interval rates from a cumulative trace: (interval end ms, bits/s)."""
    _check_rates(trace)
    return list(zip(trace.times[1:], trace.interval_bps))


def _check_rates(trace: ThroughputTrace):
    if len(trace.times) < 2:
        raise ValueError("a trace needs at least 2 samples to carry a rate")


def detect_steady_start(rates: list[tuple[float, float]], threshold: float = STEADY_THRESHOLD_DEFAULT) -> int:
    """Index of the first sample whose rate reaches ``threshold`` of the trace's peak.

    Slow start ramps toward the running maximum, so the first sample within
    reach of the peak marks the start of the steady region. With a threshold
    up to 1 the peak itself qualifies, so a trace still rising when it ends
    gets the end of its ramp as its "steady region"; nothing flags it, as no
    convergence flag exists yet. A threshold above 1 gives the final index.
    """
    return _steady_start([r for _, r in rates], threshold)


def _steady_start(values, threshold: float) -> int:
    # detect_steady_start over the rates alone.
    if not values:
        raise ValueError("rates must be non-empty")
    reached = map(ge, values, repeat(threshold * max(values)))
    return next(compress(count(), reached), len(values) - 1)


def _weighted_mean(trace: ThroughputTrace, start: int) -> float:
    # Mean of the interval rates from interval ``start`` on, each weighted by
    # its duration so irregular sampling does not skew it. Interval i runs
    # from sample i to sample i + 1.
    total_bits = 0.0
    total_s = 0.0
    prev_t = trace.times[start]
    for t, r in zip(trace.times[start + 1:], trace.interval_bps[start:]):
        dt = (t - prev_t) / 1000.0
        total_bits += r * dt
        total_s += dt
        prev_t = t
    if total_s <= 0:
        raise ValueError("degenerate trace: empty steady region")
    return total_bits / total_s


def estimate_throughput(trace: ThroughputTrace, method: EstimationMethod) -> float:
    """Apply one named estimation method to a trace, returning bits/second."""
    _check_rates(trace)
    return _estimate(trace, method, method.kind)


def _estimate(trace: ThroughputTrace, method: EstimationMethod, kind: str) -> float:
    # The ``kind`` estimate with the rest of ``method``'s parameters, over
    # the trace's cached interval rates.
    values = trace.interval_bps

    if kind == FULL_AVERAGE:
        return 8.0 * trace.total_bytes / (trace.duration_ms / 1000.0)

    if kind == STEADY_STATE:
        return _weighted_mean(trace, _steady_start(values, steady_threshold(method.steady_start)))

    if kind == TRIMMED:
        ordered = sorted(values)
        lo = int(len(ordered) * method.trim_low_fraction)
        hi = int(len(ordered) * method.trim_high_fraction)
        kept = ordered[lo : len(ordered) - hi if hi else None]
        if not kept:
            raise ValueError("trim fractions discarded every sample")
        return statistics.fmean(kept)

    if kind == MEDIAN:
        return statistics.median(values)

    if kind == PEAK:
        return max(values)

    raise ValueError(f"unknown estimation method {kind!r}")


def all_estimates(trace: ThroughputTrace, method: EstimationMethod) -> dict[str, float]:
    """Every method's estimate for one trace, keyed by method kind.

    Each kind is computed with the other parameters of ``method``, so the
    entry for ``method.kind`` is ``estimate_throughput(trace, method)``.
    Results carry all of these alongside the headline number so differently
    configured tools stay comparable.
    """
    _check_rates(trace)
    return {kind: _estimate(trace, method, kind) for kind in METHOD_KINDS}


def build_report(direction: str, trace: ThroughputTrace, latency: LatencyStats,
                 method: EstimationMethod) -> MetricReport:
    """Assemble the standard report for one finished test."""
    return make_report(direction, estimate_throughput(trace, method), latency, method)


def make_report(direction: str, bps: float, latency: LatencyStats,
                method: EstimationMethod) -> MetricReport:
    """The standard report for one finished test whose headline estimate is ``bps``."""
    if direction not in ("download", "upload"):
        raise ValueError(f"direction must be download or upload, got {direction!r}")
    return MetricReport(
        method=method,
        download_bps=bps if direction == "download" else None,
        upload_bps=bps if direction == "upload" else None,
        latency_ms=latency.median_rtt if latency.received else None,
        jitter_ms=jitter(latency.rtts) if latency.received >= 2 else None,
        loss_rate=loss_rate(latency.sent, latency.received),
    )
