"""Registry health, latency-ranked selection, scheduling, multi-destination runs."""

import itertools
import math
import socket
import sys
import threading
from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from linerate import coordinator as co
from linerate import engine as engine_mod
from linerate import flowmodel, metrics, protocol
from linerate.coordinator import (
    InfeasibleScheduleError,
    MultiDestFailedError,
    NoServersError,
    Registry,
    Schedule,
    ServerDescriptor,
    apply_outcome,
    candidate_pool,
    generate_schedule,
    run_multi_destination,
    select_server,
    simulate_destination_transfers,
)
from linerate.engine import Engine
from linerate.metrics import EstimationMethod, LatencyStats
from linerate.responder import Responder
from test_engine import ClosingServer


def server(sid, location="", removed=False, health=(), port=9000):
    return ServerDescriptor(id=sid, host=f"{sid}.example.net", port=port,
                            declared_location=location, removed=removed,
                            health=health)


def scripted_prober(rtt_by_id, unreachable=()):
    """Prober returning a fixed median RTT per server id."""

    def probe(srv, count):
        if srv.id in unreachable:
            raise engine_mod.UnreachableTargetError(f"{srv.id} is down")
        rtt = rtt_by_id[srv.id]
        return LatencyStats(rtts=(rtt,) * count, sent=count, received=count)

    return probe


class TestServerDescriptor:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            ServerDescriptor(id="", host="h", port=1)

    def test_rejects_empty_host(self):
        with pytest.raises(ValueError, match="host"):
            ServerDescriptor(id="x", host="", port=7777)

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            ServerDescriptor(id="x", host="h", port=0)
        with pytest.raises(ValueError):
            ServerDescriptor(id="x", host="h", port=70000)

    def test_rejects_unknown_outcome_in_window(self):
        with pytest.raises(ValueError):
            ServerDescriptor(id="x", host="h", port=1, health=("great",))

    def test_rejects_overlong_window(self):
        with pytest.raises(ValueError):
            ServerDescriptor(id="x", host="h", port=1,
                             health=("ok",) * (co.HEALTH_WINDOW + 1))

    def test_health_score(self):
        assert server("a").health_score() == 1.0
        assert server("a", health=("ok", "ok", "unreachable", "underperformed")
                      ).health_score() == 0.5

    def test_dict_round_trip(self):
        original = ServerDescriptor(id="nyc-1", host="nyc-1.example.net", port=8443,
                                    declared_location="new-york-ny", network="AS999",
                                    capacity_hint=1e9, health=("ok", "unreachable"),
                                    removed=False)
        assert ServerDescriptor.from_dict(original.to_dict()) == original

    def test_target_string(self):
        assert server("a", port=8443).target == "a.example.net:8443"


class TestHealthTransitions:
    def test_five_consecutive_failures_remove(self):
        s = server("a")
        for _ in range(4):
            s = apply_outcome(s, "unreachable")
            assert not s.removed
        s = apply_outcome(s, "unreachable")
        assert s.removed

    def test_mixed_bad_outcomes_count_together(self):
        s = server("a")
        for outcome in ["unreachable", "underperformed"] * 2:
            s = apply_outcome(s, outcome)
        s = apply_outcome(s, "underperformed")
        assert s.removed

    def test_sparse_failures_do_not_remove(self):
        # Four bad results diluted by sixteen good ones stay under the bar.
        s = server("a")
        for outcome in (["underperformed"] + ["ok"] * 4) * 4:
            s = apply_outcome(s, outcome)
        assert not s.removed
        assert len(s.health) == co.HEALTH_WINDOW

    def test_old_failures_age_out_of_window(self):
        s = server("a")
        for _ in range(4):
            s = apply_outcome(s, "unreachable")
        for _ in range(co.HEALTH_WINDOW):
            s = apply_outcome(s, "ok")
        # the four failures have scrolled out entirely
        s = apply_outcome(s, "unreachable")
        assert not s.removed
        assert s.health.count("unreachable") == 1

    def test_restore_needs_full_ok_streak(self):
        s = server("a")
        for _ in range(5):
            s = apply_outcome(s, "unreachable")
        assert s.removed
        for _ in range(9):
            s = apply_outcome(s, "ok")
            assert s.removed
        s = apply_outcome(s, "ok")
        assert not s.removed

    def test_restore_clears_window(self):
        # Without the reset the five stale failures still in the window would
        # remove the server again on its next bad result.
        s = server("a")
        for _ in range(5):
            s = apply_outcome(s, "unreachable")
        for _ in range(10):
            s = apply_outcome(s, "ok")
        assert s.health == ()
        for _ in range(4):
            s = apply_outcome(s, "underperformed")
        assert not s.removed

    def test_failure_resets_restore_streak(self):
        s = server("a")
        for _ in range(5):
            s = apply_outcome(s, "unreachable")
        for _ in range(9):
            s = apply_outcome(s, "ok")
        s = apply_outcome(s, "underperformed")
        for _ in range(9):
            s = apply_outcome(s, "ok")
        assert s.removed  # streak broken at nine; needs ten in a row
        s = apply_outcome(s, "ok")
        assert not s.removed

    def test_rejects_unknown_outcome(self):
        with pytest.raises(ValueError):
            apply_outcome(server("a"), "flaky")


class TestRegistry:
    def test_add_get_remove(self):
        reg = Registry([server("a"), server("b")])
        assert len(reg) == 2
        assert reg.get("a").id == "a"
        reg.remove("a")
        assert len(reg) == 1
        with pytest.raises(KeyError):
            reg.get("a")

    def test_duplicate_id_rejected(self):
        reg = Registry([server("a")])
        with pytest.raises(ValueError):
            reg.add(server("a"))

    def test_update_health_unknown_id(self):
        with pytest.raises(KeyError):
            Registry([]).update_health("ghost", "ok")

    def test_update_health_swaps_descriptor(self):
        reg = Registry([server("a")])
        updated = reg.update_health("a", "unreachable")
        assert updated.health == ("unreachable",)
        assert reg.get("a") is updated


class TestCandidatePool:
    def make_registry(self):
        return Registry([
            server("nj-1", "newark-nj"),
            server("nj-2", "newark-nj"),
            server("nj-3", "newark-nj"),
            server("ny-1", "new-york-ny"),
            server("ny-2", "new-york-ny"),
        ])

    def test_location_match_wins(self):
        pool = candidate_pool(self.make_registry(), "newark-nj", k=3)
        assert [s.id for s in pool] == ["nj-1", "nj-2", "nj-3"]

    def test_match_is_case_insensitive(self):
        pool = candidate_pool(self.make_registry(), "Newark-NJ", k=5)
        assert [s.id for s in pool] == ["nj-1", "nj-2", "nj-3"]

    def test_no_match_falls_back_to_all_healthy(self):
        pool = candidate_pool(self.make_registry(), "austin-tx", k=10)
        assert len(pool) == 5

    def test_removed_servers_excluded(self):
        reg = Registry([
            server("nj-1", "newark-nj", removed=True),
            server("nj-2", "newark-nj"),
            server("ny-1", "new-york-ny"),
        ])
        pool = candidate_pool(reg, "newark-nj", k=3)
        assert [s.id for s in pool] == ["nj-2"]

    def test_k_caps_pool_deterministically(self):
        pool = candidate_pool(self.make_registry(), "newark-nj", k=2)
        assert [s.id for s in pool] == ["nj-1", "nj-2"]

    def test_empty_registry_raises(self):
        with pytest.raises(NoServersError):
            candidate_pool(Registry([]), "anywhere", k=3)

    def test_all_removed_raises(self):
        reg = Registry([server("a", removed=True), server("b", removed=True)])
        with pytest.raises(NoServersError):
            candidate_pool(reg, "", k=3)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            candidate_pool(self.make_registry(), "", k=0)


class TestSelectServer:
    def test_lowest_median_rtt_wins(self):
        servers = [server("a"), server("b"), server("c")]
        prober = scripted_prober({"a": 12.0, "b": 5.0, "c": 30.0})
        assert select_server(servers, prober=prober).id == "b"

    def test_order_invariant(self):
        servers = [server("a"), server("b"), server("c")]
        prober = scripted_prober({"a": 12.0, "b": 5.0, "c": 30.0})
        for perm in itertools.permutations(servers):
            assert select_server(list(perm), prober=prober).id == "b"

    def test_location_label_cannot_beat_measurement(self):
        # The "local" server answers slower than the mislabeled remote one;
        # measurement decides.
        servers = [server("near", "right-here"), server("far", "antipodes")]
        prober = scripted_prober({"near": 80.0, "far": 9.0})
        assert select_server(servers, prober=prober).id == "far"

    def test_rtt_tie_broken_by_health(self):
        healthy = server("zz-healthy")
        shaky = server("aa-shaky", health=("unreachable",) + ("ok",) * 3)
        prober = scripted_prober({"zz-healthy": 10.0, "aa-shaky": 10.0})
        assert select_server([shaky, healthy], prober=prober).id == "zz-healthy"

    def test_full_tie_broken_by_id(self):
        prober = scripted_prober({"a": 10.0, "b": 10.0})
        assert select_server([server("b"), server("a")], prober=prober).id == "a"

    def test_unreachable_candidates_skipped(self):
        servers = [server("a"), server("b")]
        prober = scripted_prober({"b": 25.0}, unreachable={"a"})
        assert select_server(servers, prober=prober).id == "b"

    def test_all_unreachable_raises_with_reasons(self):
        servers = [server("a"), server("b")]
        prober = scripted_prober({}, unreachable={"a", "b"})
        with pytest.raises(NoServersError) as err:
            select_server(servers, prober=prober)
        assert set(err.value.reasons) == {"a", "b"}

    def test_zero_replies_counts_as_unreachable(self):
        def prober(srv, count):
            if srv.id == "a":
                return LatencyStats(rtts=(), sent=count, received=0)
            return LatencyStats(rtts=(7.0,) * count, sent=count, received=count)

        assert select_server([server("a"), server("b")], prober=prober).id == "b"

    def test_minimum_probe_count_enforced(self):
        with pytest.raises(ValueError):
            select_server([server("a")], probes_per_candidate=2,
                          prober=scripted_prober({"a": 1.0}))

    def test_prober_receives_probe_count(self):
        counts = []

        def prober(srv, count):
            counts.append(count)
            return LatencyStats(rtts=(5.0,) * count, sent=count, received=count)

        select_server([server("a")], probes_per_candidate=7, prober=prober)
        assert counts == [7]

    def test_no_candidates_raises(self):
        with pytest.raises(NoServersError):
            select_server([], prober=scripted_prober({}))

    def test_over_the_wire_against_dead_candidate(self):
        live = Responder("127.0.0.1", 0).start()
        try:
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                dead_port = sock.getsockname()[1]
            host, port = live.address
            candidates = [
                ServerDescriptor(id="dead", host="127.0.0.1", port=dead_port),
                ServerDescriptor(id="live", host=host, port=port),
            ]
            assert select_server(candidates).id == "live"
        finally:
            live.stop()


class TestScheduleGeneration:
    DAY = date(2026, 3, 14)

    def starts(self, schedule, day=None, **kwargs):
        return generate_schedule(schedule, day or self.DAY, **kwargs)

    def seconds_of_day(self, when: datetime) -> float:
        midnight = datetime(when.year, when.month, when.day)
        return (when - midnight).total_seconds()

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(tests_per_day=0)
        with pytest.raises(ValueError):
            Schedule(tests_per_day=4, fraction_peak=1.5)
        with pytest.raises(ValueError):
            Schedule(tests_per_day=4, peak_window=("23:00", "19:00"))

    @pytest.mark.parametrize("window", [
        ("19:75", "23:00"), ("19:-5", "23:00"), ("-1:90", "23:00"), ("19:00", "23:60"),
        ("19:00", "24:01"), ("19:00", "25:00"), ("7 pm", "23:00"),
    ], ids="-".join)
    def test_times_outside_a_day_are_refused(self, window):
        with pytest.raises(ValueError, match="time of day"):
            Schedule(tests_per_day=4, peak_window=window)

    def test_midnight_ends_a_window(self):
        schedule = Schedule(tests_per_day=4, peak_window=("19", "24:00"))
        assert schedule.peak_minutes == (19 * 60, 24 * 60)

    def test_split_counts(self):
        times = self.starts(Schedule(tests_per_day=4, seed=3))
        peak = [t for t in times if 19 * 3600 <= self.seconds_of_day(t) < 23 * 3600]
        assert len(times) == 4
        assert len(peak) == 2

    def test_odd_count_rounds_peak_up(self):
        times = self.starts(Schedule(tests_per_day=5, seed=3))
        peak = [t for t in times if 19 * 3600 <= self.seconds_of_day(t) < 23 * 3600]
        assert len(peak) == 3

    def test_peak_tests_contained_in_window(self):
        times = self.starts(Schedule(tests_per_day=40, seed=11))
        for t in times:
            s = self.seconds_of_day(t)
            if s >= 19 * 3600:
                # anything at or after the window opens must finish inside it
                assert s + 10.0 <= 23 * 3600 or s >= 23 * 3600

    def test_off_peak_tests_clear_the_peak_window(self):
        times = self.starts(Schedule(tests_per_day=60, seed=5))
        spacing = 30.0
        for t in times:
            s = self.seconds_of_day(t)
            in_peak = 19 * 3600 <= s <= 23 * 3600 - 10
            before = s <= 19 * 3600 - spacing
            after = 23 * 3600 + 20 <= s <= 86400 - 10
            assert in_peak or before or after

    def test_global_spacing(self):
        for seed in range(10):
            times = self.starts(Schedule(tests_per_day=50, seed=seed))
            gaps = [(b - a).total_seconds() for a, b in zip(times, times[1:])]
            assert min(gaps) >= 30.0 - 1e-6

    def test_spacing_scales_with_duration(self):
        times = self.starts(Schedule(tests_per_day=20, seed=2), test_duration_s=60.0)
        gaps = [(b - a).total_seconds() for a, b in zip(times, times[1:])]
        assert min(gaps) >= 180.0 - 1e-6

    def test_deterministic_for_seed_and_day(self):
        schedule = Schedule(tests_per_day=30, seed=9)
        assert self.starts(schedule) == self.starts(schedule)

    def test_different_days_differ(self):
        schedule = Schedule(tests_per_day=30, seed=9)
        assert self.starts(schedule) != self.starts(schedule, day=date(2026, 3, 15))

    def test_different_seeds_differ(self):
        a = self.starts(Schedule(tests_per_day=30, seed=1))
        b = self.starts(Schedule(tests_per_day=30, seed=2))
        assert a != b

    def test_hundred_per_day_fits(self):
        times = self.starts(Schedule(tests_per_day=100, seed=7))
        assert len(times) == 100

    def test_thousand_per_day_does_not_fit(self):
        # 500 peak tests at 30 s start-to-start need more room than a four
        # hour window has.
        with pytest.raises(InfeasibleScheduleError):
            self.starts(Schedule(tests_per_day=1000, seed=7))

    def test_all_peak_fraction(self):
        times = self.starts(Schedule(tests_per_day=10, fraction_peak=1.0, seed=4))
        for t in times:
            s = self.seconds_of_day(t)
            assert 19 * 3600 <= s <= 23 * 3600 - 10

    def test_no_peak_fraction(self):
        times = self.starts(Schedule(tests_per_day=10, fraction_peak=0.0, seed=4))
        for t in times:
            s = self.seconds_of_day(t)
            assert s <= 19 * 3600 - 30 or s >= 23 * 3600 + 20

    def test_results_sorted(self):
        times = self.starts(Schedule(tests_per_day=25, seed=13))
        assert times == sorted(times)


def oracle_destination_bytes(access_bps, caps, rtt_ms, n_connections, n_rounds):
    """Independent oracle: n FlowStates per destination advanced by advance_round.

    Returns the cumulative delivered bytes at each round boundary, per
    destination and in aggregate, with no trace sampling involved.
    """
    links = [flowmodel.LinkModel(capacity=cap, rtt=rtt_ms) for cap in caps]
    access_bdp = access_bps * (rtt_ms / 1000.0) / (links[0].mss * 8)
    flows = [[flowmodel.FlowState() for _ in range(n_connections)] for _ in links]
    per = [[0.0] for _ in links]
    total = [0.0]
    for _ in range(n_rounds):
        shares, demand = [], 0.0
        for link, dest_flows in zip(links, flows):
            bdp = link.bdp_segments
            window = sum(min(f.cwnd, bdp) for f in dest_flows)
            shares.append(min(1.0, bdp / window))
            demand += window * shares[-1]
        access_scale = min(1.0, access_bdp / demand)
        for i, link in enumerate(links):
            flows[i] = [flowmodel.advance_round(f, link, capacity_share=shares[i] * access_scale)
                        for f in flows[i]]
            per[i].append(sum(f.delivered for f in flows[i]) * link.mss)
        total.append(sum(p[-1] for p in per))
    return per, total


class TestMultiDestinationSimulation:
    def estimate(self, trace):
        return metrics.estimate_throughput(trace, EstimationMethod())

    def test_two_capped_destinations_sum(self):
        per, agg = simulate_destination_transfers(1e9, [400e6, 400e6])
        for trace in per:
            assert self.estimate(trace) == pytest.approx(400e6, rel=0.02)
        assert self.estimate(agg) == pytest.approx(800e6, rel=0.02)

    def test_three_destinations_saturate_access(self):
        per, agg = simulate_destination_transfers(1e9, [400e6] * 3)
        assert self.estimate(agg) == pytest.approx(1e9, rel=0.02)
        for trace in per:
            assert self.estimate(trace) == pytest.approx(1e9 / 3, rel=0.02)

    def test_unequal_destination_caps(self):
        per, agg = simulate_destination_transfers(1e9, [100e6, 400e6])
        assert self.estimate(per[0]) == pytest.approx(100e6, rel=0.02)
        assert self.estimate(per[1]) == pytest.approx(400e6, rel=0.02)
        assert self.estimate(agg) == pytest.approx(500e6, rel=0.02)

    def test_access_link_binds(self):
        per, agg = simulate_destination_transfers(500e6, [400e6, 400e6])
        assert self.estimate(agg) == pytest.approx(500e6, rel=0.02)
        assert self.estimate(per[0]) == pytest.approx(250e6, rel=0.05)

    def test_aggregate_dominates_every_destination(self):
        per, agg = simulate_destination_transfers(1e9, [300e6, 200e6, 100e6])
        best = max(self.estimate(t) for t in per)
        assert self.estimate(agg) >= best

    def test_single_destination_matches_plain_transfer(self):
        # With the access link out of the way the lockstep reduces exactly to
        # the one-link model.
        link = flowmodel.LinkModel(capacity=400e6, rtt=20.0, loss_rate=0.0)
        reference = flowmodel.simulate_transfer(link, 4, duration=10.0)
        per, agg = simulate_destination_transfers(10e9, [400e6])
        assert agg.samples == reference.samples
        assert per[0].samples == reference.samples

    def test_rate_caps_hold(self):
        per, agg = simulate_destination_transfers(600e6, [400e6, 400e6])
        per[0].check_rate_cap(400e6)
        per[1].check_rate_cap(400e6)
        agg.check_rate_cap(600e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_destination_transfers(1e9, [])
        with pytest.raises(ValueError):
            simulate_destination_transfers(0, [1e6])
        with pytest.raises(ValueError):
            simulate_destination_transfers(1e9, [1e6], n_connections=0)

    @settings(max_examples=25, deadline=None)
    @given(
        access=st.floats(min_value=1e7, max_value=10e9),
        caps=st.lists(st.floats(min_value=1e6, max_value=2e9), min_size=1, max_size=4),
        rtt=st.floats(min_value=10.0, max_value=100.0),
        n_connections=st.integers(min_value=1, max_value=64),
    )
    def test_matches_n_flow_reference(self, access, caps, rtt, n_connections):
        # One sample per round: sample k sits on round boundary k.
        per, agg = simulate_destination_transfers(access, caps, rtt_ms=rtt, duration_s=1.5,
                                                  n_connections=n_connections,
                                                  sample_interval_ms=rtt)
        ref_per, ref_total = oracle_destination_bytes(access, caps, rtt, n_connections,
                                                      len(agg.samples) - 1)
        for trace, expected in zip(per + [agg], ref_per + [ref_total]):
            for (_, got), want in zip(trace.samples, expected):
                assert got == pytest.approx(want, rel=1e-9)

    def test_cost_per_destination_does_not_depend_on_connections(self, step_calls):
        # The paths are lossless, so at any n every window doubles 10 -> 20 ->
        # 40 -> 64 (ssthresh) in 3 stepped rounds, then grows one segment per
        # round up to the path's bdp (233.3 segments) and holds it to the
        # end of the test: one ramp that is computed, not stepped, its
        # pinned rounds appended.
        settled = 3
        counts = []
        for n in (1, 64):
            step_calls.clear()
            simulate_destination_transfers(1e9, [400e6] * 3, rtt_ms=7.0, duration_s=2.0,
                                           n_connections=n)
            counts.append(len(step_calls))
        assert counts == [3 * settled, 3 * settled]


def scanned_bytes(samples, t_ms):
    """Cumulative bytes at t_ms by a linear scan of (time, bytes) samples: the reference."""
    if t_ms <= samples[0][0]:
        return samples[0][1]
    if t_ms >= samples[-1][0]:
        return samples[-1][1]
    for (t0, b0), (t1, b1) in zip(samples, samples[1:]):
        if t0 <= t_ms <= t1:
            return b0 + (b1 - b0) * (t_ms - t0) / (t1 - t0)
    return samples[-1][1]


def overlap_record(trace, started):
    """A record of one destination's test: ``trace`` from ``started`` s on the shared clock."""
    return engine_mod.RawTestRecord(
        spec=engine_mod.TestSpec(target="h.example.net:7777",
                                 duration=max(1.0, trace.duration_ms / 1000.0),
                                 sample_interval=trace.sample_interval),
        per_connection_traces=(trace,), aggregate_trace=trace,
        latency=LatencyStats(rtts=(20.0,), sent=1, received=1), cross_traffic_bps=0.0,
        flags=frozenset(), started_at_monotonic=started)


def summed_trace(monkeypatch, records):
    """The trace _aggregate_over_overlap sums for ``records`` and hands to the estimator."""
    summed = []
    monkeypatch.setattr(co.metrics, "estimate_throughput",
                        lambda trace, method: summed.append(trace) or 0.0)
    co._aggregate_over_overlap(records, EstimationMethod())
    [trace] = summed
    return trace


def summed_overlap_trace(monkeypatch, started, later_started):
    """The trace _aggregate_over_overlap sums for two 2 s simulated tests."""
    trace = flowmodel.simulate_transfer(flowmodel.LinkModel(capacity=1e8, rtt=20.0), 2, 2.0)
    return summed_trace(monkeypatch, [overlap_record(trace, started),
                                      overlap_record(trace, later_started)])


def grid_trace(interval, counts):
    return flowmodel.ThroughputTrace.from_columns(
        interval, [k * interval for k in range(len(counts))], counts)


class TestInterpolation:
    def test_summed_overlap_trace_holds_a_plain_time_column(self, monkeypatch):
        trace = summed_overlap_trace(monkeypatch, 100.0, 100.25)
        assert type(trace.times) is tuple and all(type(t) is float for t in trace.times)

    def test_summed_overlap_trace_is_sampled_at_whole_steps(self, monkeypatch):
        # The later test starts 67.18... ms in, where (start + k * step) - start
        # is not k * step for k = 1 and 5.
        trace = summed_overlap_trace(monkeypatch, 0.0, 0.06718212205620061)
        assert trace.times == tuple(k * 100.0 for k in range(len(trace.times)))
        assert len(trace.times) == 20  # the 1932.8 ms overlap holds 19 whole steps

    def test_tests_started_together_sum_their_columns(self, monkeypatch):
        # Each time of the sum is a sample time of both traces, so each is read
        # exactly. Interpolating to the end of the segment there instead gives
        # 0.2 + (0.9 - 0.2) * 1.0 and 0.4 + (1.7 - 0.4) * 1.0, each an ulp off.
        columns = [(0.1, 0.2, 0.9, 1.5), (0.3, 0.4, 1.7, 2.0)]
        records = [overlap_record(grid_trace(100.0, counts), 7.5) for counts in columns]
        sums = [sum(column) for column in zip(*columns)]
        trace = summed_trace(monkeypatch, records)
        assert trace.times == (0.0, 100.0, 200.0, 300.0)
        assert trace.counts == tuple(total - sums[0] for total in sums)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_scanned_sum_at_the_shifted_times(self, data):
        records = []
        for _ in range(data.draw(st.integers(2, 4))):
            interval = data.draw(st.sampled_from([50.0, 100.0, 250.0]))
            size = data.draw(st.integers(21, 60))  # at least 1 s, so they overlap
            if data.draw(st.booleans()):
                added = st.lists(st.integers(0, 10**10), min_size=size - 1, max_size=size - 1)
            else:
                added = st.lists(st.floats(0.0, 1e10), min_size=size - 1, max_size=size - 1)
            counts = list(itertools.accumulate(data.draw(added), initial=0))
            started = 1000.0 + data.draw(st.floats(0.0, 0.5))
            records.append(overlap_record(grid_trace(interval, counts), started))
        with pytest.MonkeyPatch.context() as monkeypatch:
            trace = summed_trace(monkeypatch, records)

        base_ms = min(r.started_at_monotonic for r in records) * 1000.0
        starts = [r.started_at_monotonic * 1000.0 - base_ms for r in records]
        totals = []
        for t in trace.times:
            total = 0.0
            for record, start in zip(records, starts):
                total += scanned_bytes(record.aggregate_trace.samples, max(starts) + t - start)
            totals.append(total)
        # u is the unit roundoff, N the longest trace's length and M the sum of
        # the final counts, which bounds every count, increment and sum. At a
        # shifted time t both reads approximate the exact interpolant L of
        # (k * interval, count k). resample's position t / interval is within
        # u * N of exact, and L moves at most M per position, so it is off by
        # u * N * M, plus 3 u M for its difference, product and sum. The scan
        # interpolates between fl(k * interval), each within u * N intervals
        # of its grid point (u * N * M again); its t - t0 and t1 - t0 are
        # exact (Sterbenz), and its division, difference, product and sum add
        # 4 u M. Two sums of at most 4 terms from 0.0 differ by a further
        # 2 * 3 u M, so the totals differ by (2N + 13) u M. Each side subtracts
        # its first total and rounds once more: 2 (2N + 13) u M + 2 u M. The
        # bound rounds that up to absorb the terms in u squared.
        u = sys.float_info.epsilon / 2
        longest = max(len(r.aggregate_trace.counts) for r in records)
        final = sum(r.aggregate_trace.counts[-1] for r in records)
        bound = (4 * longest + 32) * u * final
        for got, total in zip(trace.counts, totals):
            assert abs(got - (total - totals[0])) <= bound

    def test_tests_that_never_ran_together_are_refused(self, monkeypatch):
        trace = grid_trace(100.0, range(0, 2100, 100))
        records = [overlap_record(trace, 10.0), overlap_record(trace, 13.0)]
        with pytest.raises(MultiDestFailedError) as refused:
            summed_trace(monkeypatch, records)
        assert refused.value.failures == {"overlap": "tests never ran simultaneously"}

    def test_an_overlap_shorter_than_one_sample_is_refused(self, monkeypatch):
        trace = grid_trace(100.0, range(0, 2100, 100))
        records = [overlap_record(trace, 10.0), overlap_record(trace, 11.95)]
        with pytest.raises(MultiDestFailedError) as refused:
            summed_trace(monkeypatch, records)
        assert refused.value.failures == {"overlap": "overlap shorter than one sample"}


def quiet_factory():
    return Engine(counter_provider=lambda: 0)


def dest_spec(responder, sid, **overrides):
    defaults = dict(target="%s:%d" % responder.address, duration=1.5,
                    n_connections=2, target_id=sid)
    defaults.update(overrides)
    return engine_mod.TestSpec(**defaults)


class TestRunMultiDestination:
    def test_two_destinations_full_result(self):
        servers = [Responder("127.0.0.1", 0).start() for _ in range(2)]
        try:
            specs = [dest_spec(servers[0], "east"), dest_spec(servers[1], "west")]
            result = run_multi_destination(specs, engine_factory=quiet_factory)
        finally:
            for s in servers:
                s.stop()
        assert [sid for sid, _ in result.per_destination] == ["east", "west"]
        rates = [report.download_bps for _, report in result.per_destination]
        assert all(r > 0 for r in rates)
        assert result.flags == frozenset()
        assert result.failures == ()
        # concurrent tests overlap almost entirely
        start, end = result.overlap_window
        assert 0 <= start < 500.0
        assert end - start > 1000.0
        assert result.aggregate_bps > 0.5 * max(rates)

    def test_refused_destination_leaves_partial_result(self):
        ok_server = Responder("127.0.0.1", 0).start()
        full = Responder("127.0.0.1", 0, max_tests=1).start()
        parked = socket.create_connection(full.address)
        try:
            # occupy the only slot so the real test is refused
            protocol.send_frame(parked, protocol.HELLO, b"p" * 16,
                                protocol.pack_hello("download", 30_000, 1))
            protocol.recv_frame(parked)
            specs = [dest_spec(ok_server, "good"), dest_spec(full, "busy")]
            result = run_multi_destination(specs, engine_factory=quiet_factory)
        finally:
            parked.close()
            ok_server.stop()
            full.stop()
        assert [sid for sid, _ in result.per_destination] == ["good"]
        assert co.FLAG_PARTIAL in result.flags
        assert len(result.failures) == 1
        assert result.failures[0][0] == "busy"
        assert result.aggregate_bps > 0

    def test_destination_that_closes_is_a_failure(self):
        ok_server = Responder("127.0.0.1", 0).start()
        closing = ClosingServer()
        try:
            specs = [dest_spec(ok_server, "good"),
                     engine_mod.TestSpec(target=closing.address, duration=1.5,
                                         n_connections=2, target_id="gone")]
            result = run_multi_destination(specs, engine_factory=quiet_factory)
        finally:
            ok_server.stop()
            closing.close()
        assert [sid for sid, _ in result.per_destination] == ["good"]
        assert [sid for sid, _ in result.failures] == ["gone"]
        assert co.FLAG_PARTIAL in result.flags

    def test_other_error_propagates_after_every_test_ends(self):
        returned = []

        class FailingEngine(Engine):
            def run_test(self, spec, capacity_hint_bps=None):
                if spec.target_id == "broken":
                    raise RuntimeError("engine fault")
                record = super().run_test(spec, capacity_hint_bps)
                returned.append(spec.target_id)
                return record

        ok_server = Responder("127.0.0.1", 0).start()
        try:
            specs = [dest_spec(ok_server, "good", duration=1.0),
                     engine_mod.TestSpec(target="127.0.0.1:1", target_id="broken")]
            with pytest.raises(RuntimeError, match="engine fault"):
                run_multi_destination(
                    specs, engine_factory=lambda: FailingEngine(counter_provider=lambda: 0))
            assert returned == ["good"]
        finally:
            ok_server.stop()

    def test_all_destinations_failing_raises(self):
        ports = []
        for _ in range(2):
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                ports.append(sock.getsockname()[1])
        specs = [engine_mod.TestSpec(target=f"127.0.0.1:{p}", duration=1.0,
                                     target_id=f"dead-{p}") for p in ports]
        with pytest.raises(MultiDestFailedError) as err:
            run_multi_destination(specs, engine_factory=quiet_factory)
        assert set(err.value.failures) == {f"dead-{p}" for p in ports}

    def test_destination_count_bounds(self):
        spec = engine_mod.TestSpec(target="127.0.0.1:1", target_id="only")
        with pytest.raises(ValueError):
            run_multi_destination([spec])
        five = [engine_mod.TestSpec(target=f"127.0.0.1:{p}", target_id=str(p))
                for p in range(1, 6)]
        with pytest.raises(ValueError):
            run_multi_destination(five)

    def test_duplicate_destinations_rejected(self):
        specs = [engine_mod.TestSpec(target="127.0.0.1:1", target_id="same")
                 for _ in range(2)]
        with pytest.raises(ValueError):
            run_multi_destination(specs)


def run_pair(engine_factory):
    servers = [Responder("127.0.0.1", 0).start() for _ in range(2)]
    try:
        specs = [dest_spec(servers[0], "east", duration=1.0),
                 dest_spec(servers[1], "west", duration=1.0)]
        return run_multi_destination(specs, engine_factory=engine_factory)
    finally:
        for s in servers:
            s.stop()


def run_counted_pair(monkeypatch, foreign):
    """Two loopback destinations on a path patched to "counted"; the counters
    advance by every wire byte the engines compute, plus ``foreign`` bytes."""
    computed = []
    wire_bytes = engine_mod.tcp_wire_bytes

    def recording(info, family):
        computed.append(wire_bytes(info, family))
        return computed[-1]

    monkeypatch.setattr(engine_mod, "_crosses_counted_interface", lambda local, peer: True)
    monkeypatch.setattr(engine_mod, "tcp_wire_bytes", recording)
    counters = lambda: sum(computed) + (foreign if computed else 0)
    result = run_pair(lambda: Engine(counter_provider=counters))
    assert len(computed) == 4
    return result


class TestMultiDestinationCrossTraffic:
    def test_siblings_bytes_are_not_foreign(self, monkeypatch):
        result = run_counted_pair(monkeypatch, foreign=0)
        assert result.cross_traffic_bps == 0.0
        assert not result.flags & {engine_mod.FLAG_CROSS_TRAFFIC, engine_mod.FLAG_CROSS_UNKNOWN}

    def test_foreign_bytes_over_the_run_flag_cross_traffic(self, monkeypatch):
        result = run_counted_pair(monkeypatch, foreign=10_000_000)
        assert engine_mod.FLAG_CROSS_TRAFFIC in result.flags
        assert result.cross_traffic_bps > 5e6

    def test_unreadable_wire_bytes_are_unknown(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_crosses_counted_interface", lambda local, peer: True)
        monkeypatch.delattr(socket, "TCP_INFO", raising=False)
        result = run_pair(quiet_factory)
        assert result.cross_traffic_bps is None
        assert engine_mod.FLAG_CROSS_UNKNOWN in result.flags
