import dataclasses
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from linerate.flowmodel import LinkModel, ThroughputTrace, simulate_transfer
from linerate.metrics import (
    METHOD_KINDS,
    EstimationMethod,
    LatencyStats,
    MetricReport,
    all_estimates,
    build_report,
    detect_steady_start,
    estimate_throughput,
    interval_rates,
    jitter,
    loss_rate,
    make_report,
    steady_threshold,
)
from test_flowmodel import irregular_traces, pairwise_rates


def pairwise_interval_rates(trace):
    """interval_rates, one pair of samples at a time."""
    return list(zip((t for t, _ in trace.samples[1:]), pairwise_rates(trace.samples)))


def pairwise_estimate(trace, method):
    """estimate_throughput over pairwise interval rates, one interval at a time."""
    rates = pairwise_interval_rates(trace)
    values = [r for _, r in rates]
    if method.kind == "full_average":
        (t0, b0), (t1, b1) = trace.samples[0], trace.samples[-1]
        return 8.0 * (b1 - b0) / ((t1 - t0) / 1000.0)
    if method.kind == "steady_state":
        threshold = steady_threshold(method.steady_start)
        peak = max(values)
        start = next((i for i, r in enumerate(values) if r >= threshold * peak),
                     len(values) - 1)
        total_bits = total_s = 0.0
        prev_t = trace.samples[start][0]
        for t, r in rates[start:]:
            dt = (t - prev_t) / 1000.0
            total_bits += r * dt
            total_s += dt
            prev_t = t
        return total_bits / total_s
    if method.kind == "trimmed":
        ordered = sorted(values)
        lo = int(len(ordered) * method.trim_low_fraction)
        hi = int(len(ordered) * method.trim_high_fraction)
        return statistics.fmean(ordered[lo : len(ordered) - hi if hi else None])
    if method.kind == "median":
        return statistics.median(values)
    return max(values)


METHODS = st.builds(
    EstimationMethod,
    kind=st.sampled_from(METHOD_KINDS),
    trim_low_fraction=st.floats(0.0, 0.45),
    trim_high_fraction=st.floats(0.0, 0.45),
    steady_start=st.sampled_from(["peak90", "peak40", "peak100", "peak1"]),
)


def trace_from_rates(rates_mbps, interval_ms=1000.0):
    """Build a cumulative trace whose per-interval rates are exactly rates_mbps."""
    samples = [(0.0, 0.0)]
    total = 0.0
    for i, r in enumerate(rates_mbps):
        total += r * 1e6 * (interval_ms / 1000.0) / 8.0
        samples.append(((i + 1) * interval_ms, total))
    return ThroughputTrace(sample_interval=interval_ms, samples=tuple(samples), source="measured")


WORKED_TRACE = trace_from_rates([10, 50, 90, 100, 100, 100])


class TestLossRate:
    def test_definitional(self):
        assert loss_rate(1000, 995) == 0.005

    def test_no_loss(self):
        assert loss_rate(100, 100) == 0.0

    def test_total_loss(self):
        assert loss_rate(10, 0) == 1.0

    def test_rejects_zero_sent(self):
        with pytest.raises(ValueError):
            loss_rate(0, 0)

    @given(st.integers(min_value=1, max_value=10_000), st.data())
    def test_complement_identity(self, sent, data):
        received = data.draw(st.integers(min_value=0, max_value=sent))
        assert loss_rate(sent, received) + received / sent == 1.0


class TestJitter:
    def test_single_pair(self):
        assert jitter([20, 25]) == 5

    def test_constant_latency(self):
        assert jitter([10, 10, 10, 10]) == 0

    def test_alternating(self):
        # consecutive absolute differences: 10, 10, 10 -> mean 10
        assert jitter([10, 20, 10, 20]) == 10

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            jitter([10])

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=2, max_size=50),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_translation_invariant(self, rtts, shift):
        shifted = [r + shift for r in rtts]
        assert jitter(shifted) == pytest.approx(jitter(rtts), abs=1e-6)


class TestIntervalRates:
    def test_one_interval(self):
        trace = ThroughputTrace(sample_interval=1000, samples=((0, 0), (1000, 12_500_000)))
        assert interval_rates(trace) == [(1000.0, 100e6)]

    def test_idle_line(self):
        trace = ThroughputTrace(sample_interval=100, samples=((0, 500), (100, 500), (200, 500)))
        assert [r for _, r in interval_rates(trace)] == [0.0, 0.0]

    def test_simulated_trace_matches_oracle(self):
        link = LinkModel(capacity=200e6, rtt=20)
        trace = simulate_transfer(link, 4, 10)
        rates = interval_rates(trace)
        assert len(rates) == len(trace.samples) - 1
        for t, rate in rates:
            if t > 5000:
                assert rate == pytest.approx(200e6, rel=0.01)

    def test_rejects_single_sample(self):
        trace = ThroughputTrace(sample_interval=100, samples=((0, 0),))
        with pytest.raises(ValueError):
            interval_rates(trace)
        for call in (estimate_throughput, all_estimates):
            with pytest.raises(ValueError, match="at least 2 samples"):
                call(trace, EstimationMethod())


class TestDetectSteadyStart:
    def test_worked_example(self):
        rates = [(float(i), r * 1e6) for i, r in enumerate([10, 50, 90, 100, 100, 100])]
        assert detect_steady_start(rates) == 2

    def test_constant_rates(self):
        rates = [(float(i), 50e6) for i in range(5)]
        assert detect_steady_start(rates) == 0

    def test_strictly_decreasing(self):
        rates = [(float(i), r) for i, r in enumerate([100e6, 90e6, 80e6])]
        assert detect_steady_start(rates) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detect_steady_start([])

    def test_first_rate_within_reach_of_the_peak(self):
        rates = [(float(i), r) for i, r in enumerate([5.0, 95.0, 40.0, 100.0, 89.9])]
        assert detect_steady_start(rates) == 1
        assert detect_steady_start(rates, threshold=1.0) == 3
        assert detect_steady_start([(0.0, 0.0), (1.0, 0.0)]) == 0


class TestEstimateThroughput:
    def test_worked_trace_all_methods(self):
        assert estimate_throughput(WORKED_TRACE, EstimationMethod(kind="full_average")) == 75e6
        assert estimate_throughput(WORKED_TRACE, EstimationMethod(kind="steady_state")) == 97.5e6
        assert estimate_throughput(WORKED_TRACE, EstimationMethod(kind="median")) == 95e6
        assert estimate_throughput(WORKED_TRACE, EstimationMethod(kind="peak")) == 100e6

    def test_constant_trace_every_method_agrees(self):
        trace = trace_from_rates([80, 80, 80, 80])
        for kind in ("full_average", "steady_state", "trimmed", "median", "peak"):
            assert estimate_throughput(trace, EstimationMethod(kind=kind)) == pytest.approx(80e6)

    def test_steady_state_dominates_full_average_on_simulated_corpus(self):
        # Slow-start-bearing traces: capacity-limited ramps where the early
        # window depresses the average. (On loss-limited links the slow-start
        # burst can overshoot the sawtooth, so the ordering is not claimed.)
        steady = EstimationMethod(kind="steady_state")
        full = EstimationMethod(kind="full_average")
        corpus = [
            simulate_transfer(LinkModel(capacity=c, rtt=r), n, 10)
            for c in (50e6, 200e6, 1e9)
            for r in (10, 20, 40)
            for n in (1, 4, 8)
        ]
        for trace in corpus:
            assert estimate_throughput(trace, steady) >= estimate_throughput(trace, full)

    def test_method_ordering_on_slow_start_trace(self):
        trace = simulate_transfer(LinkModel(capacity=200e6, rtt=20), 4, 10)
        est = all_estimates(trace, EstimationMethod())
        assert est["full_average"] <= est["steady_state"] <= est["peak"]
        assert est["median"] <= est["peak"]

    def test_trimmed_with_zero_fractions_is_plain_mean(self):
        method = EstimationMethod(kind="trimmed", trim_low_fraction=0, trim_high_fraction=0)
        rates = [r for _, r in interval_rates(WORKED_TRACE)]
        assert estimate_throughput(WORKED_TRACE, method) == pytest.approx(statistics.fmean(rates))

    def test_trimmed_discards_tails(self):
        method = EstimationMethod(kind="trimmed", trim_low_fraction=0.3, trim_high_fraction=0.1)
        # 6 rates: drop floor(1.8)=1 lowest, floor(0.6)=0 highest
        assert estimate_throughput(WORKED_TRACE, method) == pytest.approx((50 + 90 + 300) * 1e6 / 5)

    @given(st.floats(min_value=0.25, max_value=1000.0))
    def test_scale_equivariance(self, c):
        # Rates chosen off the 90%-of-peak boundary so float rounding cannot
        # flip the steady-start index between the two evaluations.
        base = trace_from_rates([12, 47, 93, 100, 99, 100])
        scaled = ThroughputTrace(
            sample_interval=base.sample_interval,
            samples=tuple((t, b * c) for t, b in base.samples),
            source="measured",
        )
        for kind in ("full_average", "steady_state", "trimmed", "median", "peak"):
            method = EstimationMethod(kind=kind)
            assert estimate_throughput(scaled, method) == pytest.approx(
                c * estimate_throughput(base, method), rel=1e-9
            )

    def test_irregular_sampling_weights_by_duration(self):
        # 1 s at 100 Mbps then 3 s at 50 Mbps in one long interval; the
        # duration-weighted steady mean must favour the long interval.
        samples = ((0.0, 0.0), (1000.0, 12.5e6), (4000.0, 12.5e6 + 3 * 6.25e6))
        trace = ThroughputTrace(sample_interval=1000, samples=samples, source="measured")
        method = EstimationMethod(kind="steady_state", steady_start="peak40")
        est = estimate_throughput(trace, method)
        assert est == pytest.approx((100e6 * 1 + 50e6 * 3) / 4)


class TestPairwiseOracles:
    @settings(max_examples=200, deadline=None)
    @given(trace=irregular_traces(), method=METHODS)
    def test_estimates_match_the_pairwise_loop(self, trace, method):
        # Int and float counts at irregular times; every float must agree.
        assert interval_rates(trace) == pairwise_interval_rates(trace)
        assert estimate_throughput(trace, method) == pairwise_estimate(trace, method)
        assert all_estimates(trace, method) == {
            kind: pairwise_estimate(trace, dataclasses.replace(method, kind=kind))
            for kind in METHOD_KINDS}


class TestEstimationMethodValidation:
    def test_trim_fraction_bounds(self):
        with pytest.raises(ValueError):
            EstimationMethod(kind="trimmed", trim_low_fraction=0.5)
        with pytest.raises(ValueError):
            EstimationMethod(kind="trimmed", trim_high_fraction=-0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EstimationMethod(kind="fastest_ever")

    def test_steady_rule_parse(self):
        assert EstimationMethod(steady_start="peak75").steady_start == "peak75"
        with pytest.raises(ValueError):
            EstimationMethod(steady_start="nonsense")

    def test_roundtrip_dict(self):
        m = EstimationMethod(kind="trimmed", trim_low_fraction=0.2, trim_high_fraction=0.05)
        assert EstimationMethod.from_dict(m.to_dict()) == m


class TestLatencyStats:
    def test_counts_must_agree(self):
        with pytest.raises(ValueError):
            LatencyStats(rtts=(10.0,), sent=5, received=2)
        with pytest.raises(ValueError):
            LatencyStats(rtts=(10.0, 11.0), sent=1, received=2)

    def test_median(self):
        stats = LatencyStats(rtts=(10.0, 30.0, 20.0), sent=3, received=3)
        assert stats.median_rtt == 20.0


class TestMetricReport:
    def test_requires_method(self):
        with pytest.raises((ValueError, TypeError)):
            MetricReport(method=None)

    def test_bounds(self):
        with pytest.raises(ValueError):
            MetricReport(method=EstimationMethod(), loss_rate=1.5)
        with pytest.raises(ValueError):
            MetricReport(method=EstimationMethod(), download_bps=-1)

    @pytest.mark.parametrize("direction", ["download", "upload"])
    def test_report_from_a_headline_estimate_is_build_report(self, direction):
        method = EstimationMethod(kind="trimmed", trim_low_fraction=0.2)
        latency = LatencyStats(rtts=(10.0, 12.0, 11.0), sent=4, received=3)
        headline = all_estimates(WORKED_TRACE, method)[method.kind]
        assert make_report(direction, headline, latency, method) == \
            build_report(direction, WORKED_TRACE, latency, method)
        with pytest.raises(ValueError):
            make_report("sideways", headline, latency, method)

    def test_roundtrip_dict(self):
        report = MetricReport(
            method=EstimationMethod(),
            download_bps=100e6,
            latency_ms=12.0,
            jitter_ms=1.5,
            loss_rate=0.0,
        )
        assert MetricReport.from_dict(report.to_dict()) == report
