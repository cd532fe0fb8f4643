import dataclasses
import math
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from linerate import flowmodel
from linerate.flowmodel import (
    CONGESTION_AVOIDANCE,
    MEASURED,
    MSS_DEFAULT,
    SIMULATED,
    SLOW_START,
    TIMEOUT_RECOVERY,
    FlowState,
    LinkModel,
    ThroughputTrace,
    advance_round,
    loss_limited_throughput,
    simulate_transfer,
    slow_start_rounds,
)
from linerate.metrics import interval_rates


def oracle_round_bytes(link, n_connections, n_rounds, initial_cwnd=10.0, initial_ssthresh=64.0):
    """Independent oracle: iterate advance_round directly and sum delivered bytes.

    Returns cumulative delivered bytes at each round boundary, with no trace
    sampling or interpolation involved.
    """
    flows = [
        FlowState(cwnd=initial_cwnd, ssthresh=initial_ssthresh, initial_cwnd=initial_cwnd)
        for _ in range(n_connections)
    ]
    bdp = link.bdp_segments
    cumulative = [0.0]
    for _ in range(n_rounds):
        # Every flow is advanced on its own, so the model's claim that n
        # lockstep flows act as one representative flow is tested, not assumed.
        # fsum rounds the windows' sum once, as the model's n * window does:
        # a float running sum of n equal windows can be a few ulps off, and
        # that moves a flow's ``sent`` across a loss-period multiple a round
        # early or late.
        total = math.fsum(min(f.cwnd, bdp) for f in flows)
        share = min(1.0, bdp / total)
        flows = [advance_round(f, link, capacity_share=share) for f in flows]
        cumulative.append(sum(f.delivered for f in flows) * link.mss)
    return cumulative


def stepped_ledgers(links, n_connections, duration_ms, access_bdp=math.inf,
                    initial=FlowState()):
    """simulate_paths' round loop with no shortcut: every round goes through _step.

    Returns the per-path and total round boundaries, summed in the same order
    as simulate_paths sums them, so the two must agree bit for bit.
    """
    bdps = [link.bdp_segments for link in links]
    periods = [link.loss_period for link in links]
    states = [(initial.cwnd, initial.ssthresh, initial.phase, initial.loss_rounds)] * len(links)
    sents = [initial.sent] * len(links)
    paths = [[0.0] for _ in links]
    total = [0.0]
    for _ in range(math.ceil(duration_ms / links[0].rtt)):
        shares = []
        demand = 0.0
        for state, bdp in zip(states, bdps):
            window = n_connections * min(state[0], bdp)
            share = min(1.0, bdp / window)
            shares.append(share)
            demand += window * share
        access_scale = min(1.0, access_bdp / demand)
        round_total = 0.0
        for i, link in enumerate(links):
            states[i], sents[i], delivered = flowmodel._step(
                states[i], sents[i], initial.initial_cwnd, bdps[i], periods[i],
                shares[i] * access_scale)
            delta = n_connections * delivered * link.mss
            paths[i].append(paths[i][-1] + delta)
            round_total += delta
        total.append(total[-1] + round_total)
    return paths, total


def capacity_for_bdp(bdp, rtt):
    return bdp * MSS_DEFAULT * 8 / (rtt / 1000.0)


def ledger_lists(result):
    ledgers, total_ledger = result
    return [ledger.boundaries for ledger in ledgers], total_ledger.boundaries


# Per-sample and per-pair references for the batched passes over a trace.

def per_sample_reference(ledger, sample_interval, duration_ms):
    """RoundLedger.sample's samples, one interpolation call per sample."""
    bounds = ledger.boundaries

    def bytes_at(t_ms):
        pos = t_ms / ledger.rtt
        lo = math.floor(pos)
        if lo >= len(bounds) - 1:
            return bounds[-1]
        frac = pos - lo
        return bounds[lo] + frac * (bounds[lo + 1] - bounds[lo])

    n_samples = math.floor(duration_ms / sample_interval)
    return tuple((float(k * sample_interval), bytes_at(k * sample_interval))
                 for k in range(n_samples + 1))


def pairwise_rates(samples):
    """Interval rates, bits/s, one pair of samples at a time."""
    return [8.0 * (b1 - b0) / ((t1 - t0) / 1000.0)
            for (t0, b0), (t1, b1) in zip(samples, samples[1:])]


def pairwise_rate_cap(trace, cap_bps):
    """check_rate_cap, one pair of samples at a time."""
    for (t0, b0), (t1, b1) in zip(trace.samples, trace.samples[1:]):
        rate = 8.0 * (b1 - b0) / ((t1 - t0) / 1000.0)
        if rate > cap_bps * (1 + flowmodel.RATE_CAP_SLACK):
            raise ValueError(f"trace rate {rate:.0f} bps exceeds cap {cap_bps:.0f} bps")


def error_of(call):
    """The message of the ValueError ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


# Byte counts as a measured trace holds them (ints) or a simulated one (floats).
COUNT_STEPS = st.one_of(st.integers(min_value=0, max_value=10**9),
                        st.floats(min_value=0.0, max_value=1e9))


@st.composite
def irregular_traces(draw, min_samples=2):
    """Strictly increasing, unevenly spaced times with non-decreasing counts."""
    n = draw(st.integers(min_value=min_samples, max_value=40))
    gaps = draw(st.lists(st.floats(min_value=0.5, max_value=500.0), min_size=n, max_size=n))
    steps = draw(st.lists(COUNT_STEPS, min_size=n, max_size=n))
    times = list(accumulate(gaps[1:], initial=gaps[0]))
    counts = list(accumulate(steps))
    return ThroughputTrace(sample_interval=100.0, samples=tuple(zip(times, counts)),
                           source=draw(st.sampled_from([MEASURED, SIMULATED])))


class TestLinkModel:
    def test_bdp_segments(self):
        link = LinkModel(capacity=100e6, rtt=20)
        assert link.bdp_segments == pytest.approx(166.667, rel=1e-3)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinkModel(capacity=0, rtt=20)
        with pytest.raises(ValueError):
            LinkModel(capacity=1e6, rtt=0)
        with pytest.raises(ValueError):
            LinkModel(capacity=1e6, rtt=20, loss_rate=1.0)
        with pytest.raises(ValueError):
            LinkModel(capacity=1e6, rtt=20, mss=0)

    @pytest.mark.parametrize("field", ["capacity", "rtt", "mss"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        params = dict(capacity=1e8, rtt=20.0, mss=MSS_DEFAULT)
        params[field] = value
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            LinkModel(**params)

    def test_loss_period(self):
        assert LinkModel(capacity=1e6, rtt=20, loss_rate=0.01).loss_period == 100
        assert LinkModel(capacity=1e6, rtt=20).loss_period is None


class TestFlowStateInvariants:
    def test_cwnd_floor(self):
        with pytest.raises(ValueError):
            FlowState(cwnd=0.5)

    def test_slow_start_requires_cwnd_below_ssthresh(self):
        with pytest.raises(ValueError):
            FlowState(cwnd=64, ssthresh=64, phase=SLOW_START)

    def test_unknown_phase(self):
        with pytest.raises(ValueError):
            FlowState(phase="fast_retransmit")


class TestAdvanceRound:
    def test_slow_start_doubles(self):
        link = LinkModel(capacity=200e6, rtt=12, mss=1500)  # bdp = 200 segments
        state = FlowState(cwnd=10, ssthresh=64, phase=SLOW_START)
        out = advance_round(state, link)
        assert out.cwnd == 20
        assert out.phase == SLOW_START
        assert out.delivered == 10

    def test_additive_increase(self):
        link = LinkModel(capacity=200e6, rtt=20)
        state = FlowState(cwnd=64, ssthresh=64, phase=CONGESTION_AVOIDANCE)
        out = advance_round(state, link)
        assert out.cwnd == 65
        assert out.phase == CONGESTION_AVOIDANCE

    def test_multiplicative_decrease_on_loss(self):
        # loss_rate 0.5 drops a segment every 2 sent, so the first round with
        # cwnd=100 is guaranteed a loss event.
        link = LinkModel(capacity=1e9, rtt=20, loss_rate=0.5)
        state = FlowState(cwnd=100, ssthresh=100, phase=CONGESTION_AVOIDANCE)
        out = advance_round(state, link)
        assert out.cwnd == 50
        assert out.ssthresh == 50
        assert out.phase == CONGESTION_AVOIDANCE

    def test_slow_start_caps_at_ssthresh(self):
        link = LinkModel(capacity=1e9, rtt=20)
        state = FlowState(cwnd=40, ssthresh=64, phase=SLOW_START)
        out = advance_round(state, link)
        assert out.cwnd == 64
        assert out.phase == CONGESTION_AVOIDANCE

    def test_cwnd_capped_by_bdp(self):
        link = LinkModel(capacity=100e6, rtt=20)  # bdp ~ 166.7
        state = FlowState(cwnd=160, ssthresh=1000, phase=CONGESTION_AVOIDANCE)
        for _ in range(20):
            state = advance_round(state, link)
        assert state.cwnd == pytest.approx(link.bdp_segments)

    def test_three_loss_rounds_reenter_slow_start(self):
        link = LinkModel(capacity=1e9, rtt=20, loss_rate=0.5)
        state = FlowState(cwnd=100, ssthresh=100, phase=CONGESTION_AVOIDANCE)
        state = advance_round(state, link)  # 100 -> 50
        state = advance_round(state, link)  # 50 -> 25
        assert state.loss_rounds == 2
        state = advance_round(state, link)  # timeout
        assert state.phase == TIMEOUT_RECOVERY
        assert state.cwnd == state.initial_cwnd
        assert state.loss_rounds == 0

    def test_delivered_non_decreasing(self):
        link = LinkModel(capacity=100e6, rtt=40, loss_rate=0.01)
        state = FlowState()
        for _ in range(500):
            nxt = advance_round(state, link)
            assert nxt.delivered >= state.delivered
            assert nxt.cwnd >= 1
            state = nxt

    def test_rejects_bad_share(self):
        link = LinkModel(capacity=100e6, rtt=40)
        with pytest.raises(ValueError):
            advance_round(FlowState(), link, capacity_share=0)
        with pytest.raises(ValueError):
            advance_round(FlowState(), link, capacity_share=1.5)


class TestThroughputTrace:
    def test_rejects_non_increasing_time(self):
        with pytest.raises(ValueError):
            ThroughputTrace(sample_interval=100, samples=((0, 0), (0, 10)))

    def test_rejects_decreasing_bytes(self):
        with pytest.raises(ValueError):
            ThroughputTrace(sample_interval=100, samples=((0, 10), (100, 5)))

    def test_rate_cap_check(self):
        trace = ThroughputTrace(sample_interval=100, samples=((0, 0), (100, 12_500_000)))
        trace.check_rate_cap(1e9)  # 1 Gbps over 100 ms is exactly at cap
        with pytest.raises(ValueError):
            trace.check_rate_cap(0.5e9)

    @pytest.mark.parametrize("samples,message", [
        (((0, 0), (100, 5), (100, 6), (50, 7)),
         "sample times must be strictly increasing (100.0 -> 100.0)"),
        (((0, 0), (100, 5), (90, 6), (80, 4)),
         "sample times must be strictly increasing (100.0 -> 90.0)"),
        (((0, 0), (100, 10), (200, 5), (300, 1)),
         "cumulative bytes must be non-decreasing (10 -> 5)"),
        (((0, 0), (100, 10.5), (200, 10.25), (200, 1)),
         "cumulative bytes must be non-decreasing (10.5 -> 10.25)"),
    ])
    def test_first_offending_pair_is_named(self, samples, message):
        with pytest.raises(ValueError) as exc:
            ThroughputTrace(sample_interval=100, samples=samples)
        assert str(exc.value) == message

    @settings(max_examples=150, deadline=None)
    @given(trace=irregular_traces(min_samples=1))
    def test_pairs_and_columns_build_equal_traces(self, trace):
        pairs = trace.samples
        built = ThroughputTrace.from_columns(trace.sample_interval, [t for t, _ in pairs],
                                             [b for _, b in pairs], trace.source)
        assert built == trace
        assert built.samples == pairs
        assert built.interval_bps == trace.interval_bps
        assert (built.duration_ms, built.total_bytes) == (trace.duration_ms, trace.total_bytes)

    @settings(max_examples=300, deadline=None)
    @given(times=st.lists(st.integers(0, 4), max_size=6), data=st.data())
    def test_columns_raise_what_pairs_raise(self, times, data):
        # Small drawn values make equal and decreasing neighbours common.
        counts = data.draw(st.lists(st.one_of(st.integers(0, 3), st.floats(0.0, 3.0)),
                                    min_size=len(times), max_size=len(times)))
        from_pairs = error_of(lambda: ThroughputTrace(100, tuple(zip(times, counts))))
        assert error_of(lambda: ThroughputTrace.from_columns(100, times, counts)) == from_pairs
        if from_pairs is None:
            assert ThroughputTrace.from_columns(100, times, counts) == \
                ThroughputTrace(100, tuple(zip(times, counts)))

    @pytest.mark.parametrize("samples", [((0, 0), (100, 5, 6)), ((0, 0), (100,)),
                                         ((0, 0, 1), (100, 5, 6)), ((0,), (100,))])
    def test_a_sample_that_is_not_a_pair_is_refused(self, samples):
        with pytest.raises(ValueError):
            ThroughputTrace(sample_interval=100, samples=samples)

    def test_a_trace_built_on_another_shares_its_time_column(self):
        trace = ThroughputTrace.from_columns(100, [0, 100, 200], [0, 10, 30], MEASURED)
        assert trace.times == (0.0, 100.0, 200.0)
        assert all(type(t) is float for t in trace.times)
        half = trace.with_counts([0.0, 5.0, 15.0])
        assert half.times is trace.times
        assert (half.sample_interval, half.source) == (100, MEASURED)
        assert error_of(lambda: trace.with_counts([0, 5, 4])) == \
            "cumulative bytes must be non-decreasing (5 -> 4)"
        assert error_of(lambda: trace.with_counts([0, 5])) == \
            "every byte column must be as long as the time column"

    def test_rate_cap_names_the_first_interval_over_the_cap(self):
        # 1, 3 and 2 Gbit/s over 100 ms intervals, against a 1.5 Gbit/s cap.
        trace = ThroughputTrace(sample_interval=100, samples=(
            (0, 0), (100, 12_500_000), (200, 50_000_000), (300, 75_000_000)))
        assert error_of(lambda: trace.check_rate_cap(1.5e9)) == \
            "trace rate 3000000000 bps exceeds cap 1500000000 bps"
        trace.check_rate_cap(3e9)
        trace.check_rate_cap(3e9 * (1 - 5e-7))  # over by less than the rounding slack

    @settings(max_examples=150, deadline=None)
    @given(trace=irregular_traces(min_samples=1), cap_scale=st.floats(0.5, 1.5))
    def test_interval_rates_and_rate_cap_match_the_pairwise_loop(self, trace, cap_scale):
        rates = pairwise_rates(trace.samples)
        assert trace.interval_bps == tuple(rates)
        cap = cap_scale * max(rates, default=1e6)
        assert error_of(lambda: trace.check_rate_cap(cap)) == \
            error_of(lambda: pairwise_rate_cap(trace, cap))

    def test_interval_rates_computed_once(self):
        trace = ThroughputTrace(sample_interval=100, samples=((0, 0), (100, 10), (200, 30)))
        assert trace.interval_bps is trace.interval_bps
        assert dataclasses.replace(trace).interval_bps == trace.interval_bps


class TestRoundLedgerSample:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(COUNT_STEPS, max_size=60),
        rtt=st.floats(min_value=0.5, max_value=200.0),
        sample_interval=st.floats(min_value=1.0, max_value=500.0),
        n_intervals=st.floats(min_value=1.0, max_value=300.0),
    )
    @example(steps=[1500.0] * 10, rtt=20.0, sample_interval=30.0, n_intervals=12.5)
    @example(steps=[7, 0, 3], rtt=3.0, sample_interval=1.0, n_intervals=20.0)
    def test_matches_per_sample_interpolation(self, steps, rtt, sample_interval, n_intervals):
        # Int and float counts, intervals that are not multiples of the RTT,
        # and durations running past the ledger's last round.
        ledger = flowmodel.RoundLedger(rtt=rtt, boundaries=list(accumulate(steps, initial=0)))
        duration_ms = sample_interval * n_intervals
        trace = ledger.sample(sample_interval, duration_ms)
        assert trace.samples == per_sample_reference(ledger, sample_interval, duration_ms)
        assert trace.sample_interval == sample_interval

    @pytest.mark.parametrize("loss", [0.0, 1e-4])
    def test_simulated_trace_matches_per_sample_interpolation(self, loss):
        link = LinkModel(capacity=10e9, rtt=2.0, loss_rate=loss)
        _, ledger = flowmodel.simulate_paths([link], 16, 10_000.0)
        trace = ledger.sample(100.0, 10_000.0)
        assert trace.samples == per_sample_reference(ledger, 100.0, 10_000.0)


class TestSimulateTransfer:
    def test_steady_state_matches_oracle_within_one_percent(self):
        link = LinkModel(capacity=200e6, rtt=20)
        trace = simulate_transfer(link, 4, 10)
        # Oracle: per-round delivery over the second half of the run.
        cumulative = oracle_round_bytes(link, 4, 500)
        oracle_rate = 8 * (cumulative[500] - cumulative[250]) / (250 * 0.020)
        assert oracle_rate == pytest.approx(200e6, rel=1e-6)
        for t, rate in interval_rates(trace):
            if t > 5000:
                assert rate == pytest.approx(200e6, rel=0.01)

    def test_trace_cumulative_matches_oracle_at_round_boundaries(self):
        link = LinkModel(capacity=200e6, rtt=20)
        trace = simulate_transfer(link, 4, 10, sample_interval=100)
        cumulative = oracle_round_bytes(link, 4, 500)
        by_time = dict(trace.samples)
        for r in range(0, 501, 5):  # every 100 ms lands on a round boundary
            assert by_time[r * 20.0] == pytest.approx(cumulative[r])

    def test_single_connection_same_steady_state_but_slower_rampup(self):
        link = LinkModel(capacity=200e6, rtt=20)
        t1 = simulate_transfer(link, 1, 10)
        t4 = simulate_transfer(link, 4, 10)

        def first_index_at_95pct(trace):
            for i, (_, rate) in enumerate(interval_rates(trace)):
                if rate >= 0.95 * link.capacity:
                    return i
            return math.inf

        assert interval_rates(t1)[-1][1] == pytest.approx(200e6, rel=0.01)
        assert interval_rates(t4)[-1][1] == pytest.approx(200e6, rel=0.01)
        assert first_index_at_95pct(t1) > first_index_at_95pct(t4)

    def test_lossy_link_multi_connection_wins(self):
        link = LinkModel(capacity=100e6, rtt=40, loss_rate=0.01)
        b1 = oracle_round_bytes(link, 1, 250)[-1]
        b4 = oracle_round_bytes(link, 4, 250)[-1]
        assert b4 > b1
        t1 = simulate_transfer(link, 1, 10)
        t4 = simulate_transfer(link, 4, 10)
        assert t4.total_bytes > t1.total_bytes
        assert t4.total_bytes == pytest.approx(b4, rel=1e-6)
        assert t1.total_bytes == pytest.approx(b1, rel=1e-6)

    def test_deterministic(self):
        link = LinkModel(capacity=100e6, rtt=37, loss_rate=0.02)
        a = simulate_transfer(link, 3, 7, sample_interval=130)
        b = simulate_transfer(link, 3, 7, sample_interval=130)
        assert a == b

    def test_monotone_in_connections_saturating_at_capacity(self):
        link = LinkModel(capacity=100e6, rtt=40, loss_rate=0.01)
        previous = 0.0
        for n in (1, 2, 4, 8, 16, 32):
            total = simulate_transfer(link, n, 10).total_bytes
            assert total >= previous
            previous = total
        # enough flows saturate the pipe
        assert 8 * previous / 10 <= link.capacity * 1.000001

    def test_capacity_bound_holds_everywhere(self):
        for loss in (0.0, 0.01, 0.05):
            link = LinkModel(capacity=100e6, rtt=30, loss_rate=loss)
            trace = simulate_transfer(link, 8, 10, sample_interval=70)
            trace.check_rate_cap(link.capacity)

    def test_short_test_bias(self):
        link = LinkModel(capacity=1e9, rtt=20)
        assert slow_start_rounds(link) >= 3
        short = simulate_transfer(link, 4, 1)
        long = simulate_transfer(link, 4, 20)
        short_avg = 8 * short.total_bytes / 1
        long_avg = 8 * long.total_bytes / 20
        assert short_avg < long_avg

    def test_rejects_bad_arguments(self):
        link = LinkModel(capacity=100e6, rtt=20)
        with pytest.raises(ValueError):
            simulate_transfer(link, 0, 10)
        with pytest.raises(ValueError):
            simulate_transfer(link, 1, 0.5)
        with pytest.raises(ValueError):
            simulate_transfer(link, 1, 2, sample_interval=3000)


class TestPathModel:
    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.floats(min_value=1e6, max_value=10e9),
        rtt=st.floats(min_value=10.0, max_value=100.0),
        loss=st.one_of(st.just(0.0), st.floats(min_value=1e-5, max_value=0.2)),
        n_connections=st.integers(min_value=1, max_value=64),
        duration=st.floats(min_value=1.0, max_value=3.0),
        initial_cwnd=st.sampled_from([1.0, 4.0, 10.0, 32.0]),
    )
    def test_matches_n_flow_reference(self, capacity, rtt, loss, n_connections, duration,
                                      initial_cwnd):
        link = LinkModel(capacity=capacity, rtt=rtt, loss_rate=loss)
        # One sample per round: sample k sits on round boundary k.
        trace = simulate_transfer(link, n_connections, duration, sample_interval=rtt,
                                  initial_cwnd=initial_cwnd)
        cumulative = oracle_round_bytes(link, n_connections, len(trace.samples) - 1,
                                        initial_cwnd=initial_cwnd)
        for (_, got), expected in zip(trace.samples, cumulative):
            assert got == pytest.approx(expected, rel=1e-9)

    def test_cost_does_not_depend_on_connections(self, step_calls):
        # The bdp (58,333 segments) exceeds 64 windows of any size reached
        # here, so at every n each flow gets share 1 and sends its whole
        # window. The window doubles 10 -> 20 -> 40 -> 64 (3 stepped rounds),
        # then grows one segment per round and halves at each drop: a
        # sawtooth between about 80 and 160 segments. Its 286 rounds send
        # about 34,000 segments and so cross 3 multiples of the 10,000-segment
        # loss period. Each crossing steps 1 round, the drop; the ramp after
        # it starts with a loss round pending, which its first round clears.
        # The ramps between drops are computed, not stepped. (On a link that
        # limits the flows, n changes each flow's share, so its drops, and so
        # the cost.)
        link = LinkModel(capacity=1e11, rtt=7.0, loss_rate=1e-4)
        stepped = 3 + 3
        for n in (1, 64):
            step_calls.clear()
            simulate_transfer(link, n, 2)
            assert len(step_calls) == stepped

    def test_lossless_cost_stops_at_the_fixed_point(self, step_calls):
        link = LinkModel(capacity=400e6, rtt=7.0)
        # The window doubles 10 -> 20 -> 40 -> 64 (ssthresh) in 3 stepped
        # rounds, then grows one segment per round up to the bdp (233.3
        # segments) and holds it to the end: one ramp that is computed, not
        # stepped, its pinned rounds appended.
        settled = 3
        counts = []
        for n in (1, 64):
            step_calls.clear()
            simulate_transfer(link, n, 2)
            counts.append(len(step_calls))
        assert counts == [settled, settled]
        assert settled < math.ceil(2000 / 7.0)

    def test_lossless_paths_build_no_sent_runs(self, monkeypatch):
        # A lossless path never drops, so its ramps, pinned rounds included,
        # build no running ``sent`` list for the search for the next drop to
        # read; a lossy path still does.
        calls = []
        for name in ("_drop_free_rounds",):
            def counting(*args, _name=name, _original=getattr(flowmodel, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(flowmodel, name, counting)
        simulate_transfer(LinkModel(capacity=400e6, rtt=7.0), 4, 2)
        flowmodel.simulate_paths([LinkModel(capacity=c, rtt=7.0) for c in (300e6, 500e6)],
                                 4, 2000.0, access_bdp=40.0)
        assert calls == []
        simulate_transfer(LinkModel(capacity=400e6, rtt=7.0, loss_rate=1e-5), 4, 10)
        assert set(calls) == {"_drop_free_rounds"}

    # Links are drawn by bdp (1-300 segments) at 1-10 ms RTT, so windows often
    # reach the bdp and sit there between drops: the stretches the model skips.
    @settings(max_examples=60, deadline=None)
    @given(
        bdp=st.floats(min_value=1.0, max_value=300.0),
        rtt=st.floats(min_value=1.0, max_value=10.0),
        loss=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.05)),
        n_connections=st.integers(min_value=1, max_value=64),
        duration_ms=st.floats(min_value=1000.0, max_value=3000.0),
    )
    def test_single_link_bit_identical_to_stepping_every_round(
            self, bdp, rtt, loss, n_connections, duration_ms):
        links = [LinkModel(capacity=capacity_for_bdp(bdp, rtt), rtt=rtt, loss_rate=loss)]
        assert ledger_lists(flowmodel.simulate_paths(links, n_connections, duration_ms)) == \
            stepped_ledgers(links, n_connections, duration_ms)

    @settings(max_examples=40, deadline=None)
    @given(
        paths=st.lists(st.tuples(st.floats(min_value=1.0, max_value=300.0),
                                 st.one_of(st.just(0.0), st.floats(min_value=1e-5, max_value=0.01))),
                       min_size=1, max_size=4),
        access_bdp=st.floats(min_value=1.0, max_value=1000.0),
        rtt=st.floats(min_value=1.0, max_value=10.0),
        n_connections=st.integers(min_value=1, max_value=16),
        duration_ms=st.floats(min_value=1000.0, max_value=3000.0),
    )
    def test_paths_with_access_scaling_bit_identical_to_stepping_every_round(
            self, paths, access_bdp, rtt, n_connections, duration_ms):
        links = [LinkModel(capacity=capacity_for_bdp(bdp, rtt), rtt=rtt, loss_rate=loss)
                 for bdp, loss in paths]
        got = flowmodel.simulate_paths(links, n_connections, duration_ms, access_bdp=access_bdp)
        assert ledger_lists(got) == stepped_ledgers(links, n_connections, duration_ms, access_bdp)

    def test_send_landing_on_a_loss_multiple_is_a_drop_round(self, step_calls):
        # One connection (share 1), a bdp of exactly 50 segments and integer
        # windows: ``sent`` reaches exactly 1000, the loss period, at the end
        # of round 20, which must drop a segment and halve the window.
        links = [LinkModel(capacity=50 * 12000, rtt=1000.0, loss_rate=1e-3)]
        assert links[0].bdp_segments == 50.0 and links[0].loss_period == 1000
        initial = FlowState(cwnd=50.0, phase=CONGESTION_AVOIDANCE)
        got = flowmodel.simulate_paths(links, 1, 120_000.0, initial=initial)
        assert len(step_calls) < 120  # pinned rounds were appended, not stepped
        want = stepped_ledgers(links, 1, 120_000.0, initial=initial)
        assert ledger_lists(got) == want
        deltas = [b - a for a, b in zip(want[1], want[1][1:])]
        assert deltas[18:21] == [50 * 1500, 49 * 1500, 25 * 1500]

    # Bench-scale and edge cases of the congestion-avoidance ramps, outside
    # the Hypothesis ranges above (bdp at most 300 segments, runs of at most
    # 3 s). Each pins its cost in _step calls, read before the stepped
    # reference runs (it calls _step too).

    @pytest.mark.parametrize("loss, most_steps", [
        # Lossless: 3 doubling rounds, then one ramp up to the bdp (1666.7
        # segments) that holds it to the end; the bound has a round to spare.
        (0.0, 3 + 1),
        # 3 doubling rounds, then 1 stepped round per drop: the ramp after a
        # drop starts with its loss round pending. The link carries at most
        # a bdp per round, so each of the 16 flows sends at most 104.2
        # segments a round, 520,833 over the 5000 rounds: at most 52
        # crossings of the 10,000-segment loss period.
        (1e-4, 3 + 52),
    ])
    def test_ten_gigabit_link_bit_identical_to_stepping_every_round(
            self, step_calls, loss, most_steps):
        links = [LinkModel(capacity=10e9, rtt=2.0, loss_rate=loss)]
        got = ledger_lists(flowmodel.simulate_paths(links, 16, 10_000.0))
        assert len(step_calls) <= most_steps
        assert got == stepped_ledgers(links, 16, 10_000.0)

    def test_ramp_ending_on_a_loss_multiple_stops_before_the_drop_round(self, step_calls):
        # One connection (share 1), a bdp of 200 segments and integer windows
        # 50, 51, 52, ...: after 25 rounds ``sent`` is 25 * 50 + 300 = 1550,
        # exactly the loss period, so the 25th round is a drop round and the
        # ramp before it must end one round short of it.
        links = [LinkModel(capacity=200 * 12000, rtt=1000.0, loss_rate=1 / 1550)]
        assert links[0].bdp_segments == 200.0 and links[0].loss_period == 1550
        initial = FlowState(cwnd=50.0, ssthresh=50.0, phase=CONGESTION_AVOIDANCE)
        got = flowmodel.simulate_paths(links, 1, 60_000.0, initial=initial)
        # The first round, then 1 round per drop: in 60 rounds ``sent``
        # crosses 1550 and 3100 (windows 37, 38, ... after the first halving).
        assert len(step_calls) == 1 + 2
        want = stepped_ledgers(links, 1, 60_000.0, initial=initial)
        assert ledger_lists(got) == want
        deltas = [b - a for a, b in zip(want[1], want[1][1:])]
        assert deltas[23:26] == [73 * 1500, 73 * 1500, 37 * 1500]

    def test_ramp_reaching_the_bdp_mid_run_goes_steady(self, step_calls):
        # The window grows 50, 51, ... 100 and is then capped at the bdp of
        # 100.5 segments. One stepped round starts the ramp, which runs to
        # the end: its rounds at the bdp are appended, not computed.
        links = [LinkModel(capacity=100.5 * 12000, rtt=1000.0)]
        assert links[0].bdp_segments == 100.5
        initial = FlowState(cwnd=50.0, ssthresh=50.0, phase=CONGESTION_AVOIDANCE)
        got = flowmodel.simulate_paths(links, 1, 200_000.0, initial=initial)
        assert len(step_calls) == 1
        want = stepped_ledgers(links, 1, 200_000.0, initial=initial)
        assert ledger_lists(got) == want
        deltas = [b - a for a, b in zip(want[1], want[1][1:])]
        assert deltas[49:52] == [99 * 1500, 100 * 1500, 100.5 * 1500]

    def test_lossy_ramp_that_pins_then_drops_is_one_run(self, step_calls):
        # One connection (share 1), a bdp of exactly 100 segments and a loss
        # period of 5000: after the first round (``sent`` 50) the window
        # grows 51, 52, ... 100 (``sent`` 3825) and then holds the bdp, and
        # the 12th round at the bdp takes ``sent`` past 5000, a drop round.
        # The window halves to 50 and the cycle repeats (the next drop at
        # 10,000). Each cycle is one run, ramp and pinned rounds together:
        # 1 stepped round, then 1 per drop (the drop; the run after it starts
        # with its loss round pending).
        links = [LinkModel(capacity=100 * 12000, rtt=1000.0, loss_rate=1 / 5000)]
        assert links[0].bdp_segments == 100.0 and links[0].loss_period == 5000
        initial = FlowState(cwnd=50.0, ssthresh=50.0, phase=CONGESTION_AVOIDANCE)
        got = flowmodel.simulate_paths(links, 1, 130_000.0, initial=initial)
        assert len(step_calls) == 1 + 2
        want = stepped_ledgers(links, 1, 130_000.0, initial=initial)
        assert ledger_lists(got) == want
        deltas = [b - a for a, b in zip(want[1], want[1][1:])]
        assert deltas[60:64] == [100 * 1500, 100 * 1500, 99 * 1500, 50 * 1500]
        assert deltas[123:127] == [100 * 1500, 100 * 1500, 99 * 1500, 50 * 1500]

    def test_ramp_landing_exactly_on_an_integer_bdp_pins_while_another_path_grows(
            self, step_calls):
        # One connection per path (share 1), windows 51, 52, ...: the first
        # path's chain reaches its bdp of exactly 60 segments after 10 rounds
        # and stays there for the rest of the ramp, while the second grows to
        # its bdp of 200. One stepped round of 2 paths starts the ramp, which
        # runs to the end.
        links = [LinkModel(capacity=bdp * 12000, rtt=1000.0) for bdp in (60, 200)]
        assert [link.bdp_segments for link in links] == [60.0, 200.0]
        initial = FlowState(cwnd=50.0, ssthresh=50.0, phase=CONGESTION_AVOIDANCE)
        got = flowmodel.simulate_paths(links, 1, 200_000.0, initial=initial)
        assert len(step_calls) == 1 * 2
        want = stepped_ledgers(links, 1, 200_000.0, initial=initial)
        assert ledger_lists(got) == want
        first = [b - a for a, b in zip(want[0][0], want[0][0][1:])]
        assert first[8:12] == [58 * 1500, 59 * 1500, 60 * 1500, 60 * 1500]
        assert first[-1] == 60 * 1500

    def test_ramp_whose_share_is_exactly_one_at_the_split(self, step_calls):
        # 4 connections on a bdp of 240 segments: windows 4 * 51, 4 * 52, ...
        # reach exactly 240 after 10 rounds, where the share bdp / window is
        # exactly 1.0, and fall below 1.0 from the next round, while each
        # flow's window keeps growing to the bdp. The link then carries
        # 240 segments a round. One ramp covers both sides of the split.
        links = [LinkModel(capacity=240 * 12000, rtt=1000.0)]
        assert links[0].bdp_segments == 240.0
        initial = FlowState(cwnd=50.0, ssthresh=50.0, phase=CONGESTION_AVOIDANCE)
        got = flowmodel.simulate_paths(links, 4, 200_000.0, initial=initial)
        assert len(step_calls) == 1
        want = stepped_ledgers(links, 4, 200_000.0, initial=initial)
        assert ledger_lists(got) == want
        deltas = [b - a for a, b in zip(want[1], want[1][1:])]
        assert deltas[8:12] == [4 * 58 * 1500, 4 * 59 * 1500, 240 * 1500, 240 * 1500]

    def test_ramp_behind_an_access_link_that_binds_mid_ramp(self, step_calls):
        # One connection on a bdp of 300 segments behind a 200-segment access
        # link: windows 51, 52, ... are sent whole up to 200, then scaled
        # down to the access link while the window grows on to 300.
        links = [LinkModel(capacity=300 * 12000, rtt=1000.0)]
        initial = FlowState(cwnd=50.0, ssthresh=50.0, phase=CONGESTION_AVOIDANCE)
        got = flowmodel.simulate_paths(links, 1, 300_000.0, access_bdp=200.0, initial=initial)
        assert len(step_calls) == 1
        want = stepped_ledgers(links, 1, 300_000.0, 200.0, initial=initial)
        assert ledger_lists(got) == want
        deltas = [b - a for a, b in zip(want[1], want[1][1:])]
        assert deltas[148:152] == [198 * 1500, 199 * 1500, 200 * 1500, 200 * 1500]
        assert deltas[-1] == 200 * 1500

    def test_slow_start_pinned_below_the_initial_window_rides_along_a_ramp(self, step_calls):
        # The first path's bdp (5 segments) is below the initial window, so it
        # stays in slow start with its window pinned at 5: unchanged by every
        # round. The second path doubles 10 -> 20 -> 40 -> 64 in 3 rounds, then
        # ramps to its bdp of 300 segments and holds it to the end while the
        # first rides along. 3 rounds of 2 paths are stepped.
        links = [LinkModel(capacity=capacity_for_bdp(bdp, 5.0), rtt=5.0) for bdp in (5.0, 300.0)]
        got = flowmodel.simulate_paths(links, 1, 5000.0)
        assert len(step_calls) == 3 * 2
        assert ledger_lists(got) == stepped_ledgers(links, 1, 5000.0)

    def test_three_destinations_whose_access_scale_changes_during_the_ramp(self, step_calls):
        # Paths of 500, 833 and 1333 segments behind a 1666.7-segment access
        # link: once the 4 flows of each path have grown past about 146
        # segments, their summed demand exceeds the access link, and the
        # access scale falls every round as the windows grow. The first path
        # pins at its bdp while the others still grow. The 3 doubling rounds
        # of each path are stepped; one ramp covers the remaining rounds.
        links = [LinkModel(capacity=cap, rtt=20.0) for cap in (300e6, 500e6, 800e6)]
        access_bdp = 1e9 * 0.02 / (MSS_DEFAULT * 8)
        got = flowmodel.simulate_paths(links, 4, 10_000.0, access_bdp=access_bdp)
        assert len(step_calls) == 3 * 3
        want = stepped_ledgers(links, 4, 10_000.0, access_bdp)
        assert ledger_lists(got) == want
        first = [b - a for a, b in zip(want[0][0], want[0][0][1:])]
        assert first[-1] < 0.7 * max(first)  # the scale fell after the first path pinned
        deltas = [b - a for a, b in zip(want[1], want[1][1:])]
        assert deltas[-1] == pytest.approx(access_bdp * MSS_DEFAULT)

    @settings(max_examples=40, deadline=None)
    @given(
        bdp=st.floats(min_value=1.0, max_value=300.0),
        loss=st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=0.05)),
        n_connections=st.integers(min_value=1, max_value=64),
    )
    def test_single_path_is_its_own_aggregate(self, bdp, loss, n_connections):
        links = [LinkModel(capacity=capacity_for_bdp(bdp, 2.0), rtt=2.0, loss_rate=loss)]
        ledgers, total = flowmodel.simulate_paths(links, n_connections, 2000.0)
        assert total is ledgers[0]
        # The aggregate a separate ledger would have summed, bit for bit.
        assert total.boundaries == stepped_ledgers(links, n_connections, 2000.0)[1]

    def test_unequal_rtts_rejected(self):
        with pytest.raises(ValueError):
            flowmodel.simulate_paths([LinkModel(capacity=1e6, rtt=10),
                                      LinkModel(capacity=1e6, rtt=20)], 1, 1000)


class TestSlowStartRounds:
    def test_100mbps_20ms(self):
        # oracle: 10, 20, 40, 80, 160, 320 >= 166.7 after 5 doublings
        link = LinkModel(capacity=100e6, rtt=20, mss=1500)
        cwnd, rounds = 10.0, 0
        while cwnd < link.bdp_segments:
            cwnd *= 2
            rounds += 1
        assert rounds == 5
        assert slow_start_rounds(link, 10) == 5

    def test_already_at_capacity(self):
        link = LinkModel(capacity=1e6, rtt=10)  # bdp ~ 0.83 segments
        assert slow_start_rounds(link, 10) == 0

    def test_1gbps_20ms(self):
        link = LinkModel(capacity=1e9, rtt=20)
        cwnd, rounds = 10.0, 0
        while cwnd < link.bdp_segments:
            cwnd *= 2
            rounds += 1
        assert rounds == 8
        assert slow_start_rounds(link, 10) == 8

    @given(
        doublings=st.integers(min_value=0, max_value=20),
        fraction=st.floats(min_value=0.01, max_value=0.99),
        initial_cwnd=st.sampled_from([1.0, 2.0, 10.0]),
        rtt=st.floats(min_value=1.0, max_value=200.0),
    )
    def test_log2_oracle(self, doublings, fraction, initial_cwnd, rtt):
        # A bdp strictly between two powers of two times the initial window,
        # so rounding in log2 cannot move the ceiling.
        bdp = initial_cwnd * 2 ** (doublings + fraction)
        link = LinkModel(capacity=bdp * 1500 * 8 / (rtt / 1000), rtt=rtt)
        expected = math.ceil(math.log2(link.bdp_segments / initial_cwnd))
        assert expected == doublings + 1
        assert slow_start_rounds(link, initial_cwnd) == expected

    @pytest.mark.parametrize("doublings", [0, 1, 5, 12])
    def test_log2_oracle_exact_power(self, doublings):
        # rtt 1 s and 1-byte segments make bdp = capacity / 8 exactly.
        link = LinkModel(capacity=8 * 10 * 2 ** doublings, rtt=1000, mss=1)
        assert link.bdp_segments == 10 * 2 ** doublings
        assert slow_start_rounds(link, 10) == doublings


class TestLossLimitedThroughput:
    def test_rtt_inverse_proportionality(self):
        fast = loss_limited_throughput(LinkModel(capacity=100e6, rtt=40, loss_rate=0.01))
        slow = loss_limited_throughput(LinkModel(capacity=100e6, rtt=80, loss_rate=0.01))
        # oracle: run the limit cycle by hand at both RTTs
        def cycle_rate(rtt):
            state = FlowState()
            link = LinkModel(capacity=100e6, rtt=rtt, loss_rate=0.01)
            for _ in range(200):
                state = advance_round(state, link)
            before = state.delivered
            for _ in range(2000):
                state = advance_round(state, link)
            return (state.delivered - before) / 2000 * 1500 * 8 / (rtt / 1000)

        assert fast == pytest.approx(cycle_rate(40))
        assert slow == pytest.approx(cycle_rate(80))
        assert slow == pytest.approx(fast / 2, rel=0.10)

    @settings(max_examples=20, deadline=None)
    @given(
        capacity=st.floats(min_value=1e6, max_value=1e10),
        rtt=st.floats(min_value=1.0, max_value=300.0),
        loss=st.floats(min_value=1e-6, max_value=0.05),
        mss=st.sampled_from([536, 1500, 9000]),
    )
    def test_matches_one_flow_stepped_through_advance_round(self, capacity, rtt, loss, mss):
        # The rate comes from simulate_paths' ledger; one flow stepped round
        # by round is its oracle. Both see the same rounds and differ only in
        # how they sum them (bytes per round against segments), so they agree
        # to rounding.
        link = LinkModel(capacity=capacity, rtt=rtt, loss_rate=loss, mss=mss)
        state = FlowState()
        for _ in range(200):
            state = advance_round(state, link)
        before = state.delivered
        for _ in range(2000):
            state = advance_round(state, link)
        stepped = (state.delivered - before) / 2000 * mss * 8 / (rtt / 1000)
        assert loss_limited_throughput(link) == pytest.approx(stepped, rel=1e-12)

    def test_below_capacity(self):
        link = LinkModel(capacity=100e6, rtt=40, loss_rate=0.01)
        assert loss_limited_throughput(link) < link.capacity

    def test_mss_doubling_doubles_throughput(self):
        base = loss_limited_throughput(LinkModel(capacity=100e6, rtt=40, loss_rate=0.01, mss=1500))
        double = loss_limited_throughput(LinkModel(capacity=100e6, rtt=40, loss_rate=0.01, mss=3000))
        assert double == pytest.approx(2 * base, rel=0.10)

    def test_rejects_lossless_link(self):
        with pytest.raises(ValueError):
            loss_limited_throughput(LinkModel(capacity=100e6, rtt=40, loss_rate=0.0))

    @settings(max_examples=30, deadline=None)
    @given(
        loss=st.floats(min_value=1e-5, max_value=1e-3),
        rtt=st.floats(min_value=1.0, max_value=300.0),
        mss=st.sampled_from([536, 1500, 9000]),
        headroom=st.floats(min_value=4 / 3, max_value=100.0),
    )
    def test_mathis_oracle(self, loss, rtt, mss, headroom):
        # Mathis et al. (CCR 1997): periodic loss p gives MSS/RTT * sqrt(3/(2p)).
        # Its sawtooth peaks at 4/3 of the mean window, so the link is given at
        # least that much room; a capped window would clip the sawtooth.
        mathis = mss * 8 / (rtt / 1000) * math.sqrt(3 / (2 * loss))
        link = LinkModel(capacity=headroom * mathis, rtt=rtt, loss_rate=loss, mss=mss)
        assert 0.97 <= loss_limited_throughput(link) / mathis <= 1.0
