"""Deterministic fluid model of TCP slow start and AIMD over bottleneck paths.

The model advances whole RTT rounds instead of individual packets: each round a
flow transmits its congestion window, the link delivers at most one
bandwidth-delay product worth of segments, and the window reacts to a
deterministic loss schedule. The n flows of a path start identical and always
get equal shares, so they stay in lockstep: one representative flow stands for
all n and the path delivers n times what it does. A run of drop-free rounds
is computed instead of stepped, up to the next scheduled drop or the end of
the test: each window grows by one segment a round until it sits at its
bdp, and once every window does, each round repeats the last exactly and is
appended without being computed. What is left to step is drop rounds, the
round after each, and slow start, so the cost scales with those, not with
the rounds or with n. Identical inputs always produce identical traces,
which is what makes the throughput estimators testable at desk scale.

A run is computed without a per-round ``min``. Its windows never decrease,
so each ``min`` the round loop takes (a window capped at the bdp, a share
capped at 1.0) switches sides once, at a split found by bisection, and is
the one operand before it and the other after. The access link's scale is
computed round by round only when the access link is finite: behind an
uncapped one (every single link) it is exactly 1.0. Every float a computed
round makes is the one stepping would make. A lossless path never drops, so
the running count of segments sent, which only the search for the next
drop reads, is not built for it.

Each pass from a ledger to a checked trace happens once. A ledger is
sampled with no call per sample (its times, positions and floors are one
``map`` each), a trace holds a time and a byte column and validates each
once (``with_counts`` builds a trace on another's checked times), and its
interval-rate column (``interval_bps``) is computed once and cached, for
check_rate_cap and every estimator. A single path is its own aggregate, so
its ledger is built once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, compress, islice, repeat
from operator import add, gt, le, lt, mul, truediv

MSS_DEFAULT = 1500  # bytes per segment

SLOW_START = "slow_start"
CONGESTION_AVOIDANCE = "congestion_avoidance"
TIMEOUT_RECOVERY = "timeout_recovery"
PHASES = (SLOW_START, CONGESTION_AVOIDANCE, TIMEOUT_RECOVERY)

INITIAL_CWND = 10.0  # segments, common modern default
INITIAL_SSTHRESH = 64.0

# The window law _step applies (Reno, from an initial ssthresh of 64
# segments) and the revision of the model's output, as a record stores them.
MODEL_CC = "reno64"
MODEL_REVISION = 1

# Consecutive loss rounds that count as a timeout and force slow-start re-entry.
TIMEOUT_LOSS_ROUNDS = 3

SIMULATED = "simulated"
MEASURED = "measured"

# Relative excess over a rate cap that check_rate_cap forgives as float rounding.
RATE_CAP_SLACK = 1e-6


@dataclass(frozen=True)
class LinkModel:
    """One bottleneck path: capacity in bits/s, base RTT in ms, per-segment loss."""

    capacity: float
    rtt: float
    loss_rate: float = 0.0
    mss: int = MSS_DEFAULT

    def __post_init__(self):
        if not 0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if not 0 < self.rtt < math.inf:
            raise ValueError(f"rtt must be > 0, got {self.rtt}")
        if not 0 <= self.loss_rate < 1:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if not 0 < self.mss < math.inf:
            raise ValueError(f"mss must be > 0, got {self.mss}")

    @property
    def bdp_segments(self) -> float:
        """Segments in flight needed to fill the pipe: capacity * rtt / segment bits."""
        return self.capacity * (self.rtt / 1000.0) / (self.mss * 8)

    @property
    def loss_period(self) -> int | None:
        """Every k-th transmitted segment is dropped; None on a lossless link."""
        if self.loss_rate == 0:
            return None
        return math.floor(1.0 / self.loss_rate)


@dataclass(frozen=True)
class FlowState:
    """Congestion state of one flow, advanced one RTT round at a time.

    ``sent`` counts transmitted segments (it drives the deterministic loss
    schedule) and ``loss_rounds`` counts consecutive lossy rounds so that a
    sustained loss episode degrades into a timeout.
    """

    cwnd: float = INITIAL_CWND
    ssthresh: float = INITIAL_SSTHRESH
    phase: str = SLOW_START
    delivered: float = 0.0
    sent: float = 0.0
    loss_rounds: int = 0
    initial_cwnd: float = INITIAL_CWND

    def __post_init__(self):
        if self.cwnd < 1:
            raise ValueError(f"cwnd must be >= 1, got {self.cwnd}")
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.phase == SLOW_START and self.cwnd >= self.ssthresh:
            raise ValueError("slow_start requires cwnd < ssthresh")
        if self.delivered < 0 or self.sent < 0:
            raise ValueError("delivered and sent must be non-negative")


@dataclass(frozen=True, init=False)
class ThroughputTrace:
    """Timestamped cumulative byte counts from one test: ``times`` (floats, ms since start)
    and ``counts`` (ints measured, floats simulated); ``samples`` pairs them on each read."""

    sample_interval: float  # ms
    times: tuple[float, ...] = field(init=False)
    counts: tuple = field(init=False)
    source: str = SIMULATED
    # An init field only so that dataclasses.replace passes the pairs on.
    samples: tuple = field(default=property(lambda self: tuple(zip(self.times, self.counts))),
                           repr=False, compare=False)

    def __init__(self, sample_interval: float, samples, source: str = SIMULATED):
        samples = tuple(samples)
        times, counts = zip(*samples, strict=True) if samples else ((), ())
        self._hold(sample_interval, times, counts, source)

    @classmethod
    def from_columns(cls, sample_interval: float, times, counts, source: str = SIMULATED):
        """A trace of a time and a byte column, each made a tuple and checked."""
        return cls.__new__(cls)._hold(sample_interval, times, counts, source)

    def with_counts(self, counts) -> ThroughputTrace:
        """A trace on this one's interval, source and ``times`` object; checks only ``counts``."""
        return ThroughputTrace.__new__(ThroughputTrace)._hold(
            self.sample_interval, self.times, counts, self.source, times_checked=True)

    def _hold(self, sample_interval: float, times, counts, source: str, times_checked=False):
        if source not in (SIMULATED, MEASURED):
            raise ValueError(f"unknown trace source {source!r}")
        if sample_interval <= 0:
            raise ValueError("sample_interval must be > 0")
        counts = tuple(counts)
        unordered = any(map(lt, counts[1:], counts))
        if not times_checked:
            times = tuple(map(float, times))
            unordered = unordered or any(map(le, times[1:], times))
        if len(counts) != len(times):
            raise ValueError("every byte column must be as long as the time column")
        if unordered:  # name the first offending pair, its times checked first
            for t0, t1, b0, b1 in zip(times, times[1:], counts, counts[1:]):
                if t1 <= t0:
                    raise ValueError(f"sample times must be strictly increasing ({t0} -> {t1})")
                if b1 < b0:
                    raise ValueError(f"cumulative bytes must be non-decreasing ({b0} -> {b1})")
        self.__dict__.update(sample_interval=sample_interval, times=times, counts=counts,
                             source=source)
        return self

    @cached_property
    def interval_bps(self) -> tuple[float, ...]:
        """Rate of each interval between consecutive samples, bits/s (empty below 2 samples).

        Computed once per trace and cached; check_rate_cap and every estimator
        in ``metrics`` read it.
        """
        times, counts = self.times, self.counts
        return tuple([8.0 * (b1 - b0) / ((t1 - t0) / 1000.0)
                      for t0, t1, b0, b1 in zip(times, times[1:], counts, counts[1:])])

    def check_rate_cap(self, cap_bps: float):
        """Raise if any inter-sample rate exceeds the physical cap by more than rounding."""
        rates = self.interval_bps
        for rate in compress(rates, map(gt, rates, repeat(cap_bps * (1 + RATE_CAP_SLACK)))):
            raise ValueError(f"trace rate {rate:.0f} bps exceeds cap {cap_bps:.0f} bps")

    @property
    def duration_ms(self) -> float:
        return self.times[-1] - self.times[0] if self.times else 0.0

    @property
    def total_bytes(self) -> float:
        return self.counts[-1] - self.counts[0] if self.counts else 0.0


def _drops_between(sent_before: float, sent_after: float, period: int | None) -> float:
    # One segment is lost every time cumulative transmission crosses a multiple
    # of the loss period. Works for fractional sends too.
    if period is None:
        return 0.0
    return math.floor(sent_after / period) - math.floor(sent_before / period)


def _step(state: tuple, sent: float, initial_cwnd: float, bdp: float, period: int | None,
          share: float) -> tuple[tuple, float, float]:
    # The AIMD rules, on plain floats. ``state`` is (cwnd, ssthresh, phase,
    # loss_rounds) and ``sent`` the segments transmitted so far; returns the
    # next state, the next ``sent`` and the segments delivered this round.
    # This is the only place where drops, halving, timeouts and slow start
    # happen: simulate_paths steps a round here unless the round is part of
    # a drop-free run (_ramp).
    cwnd, ssthresh, phase, loss_rounds = state
    cwnd = min(cwnd, bdp)  # the link cannot carry more than one bdp
    send = cwnd * share

    drops = _drops_between(sent, sent + send, period)
    delivered = max(0.0, send - drops)

    if drops > 0:
        loss_rounds += 1
        if loss_rounds >= TIMEOUT_LOSS_ROUNDS:
            # Sustained loss: timeout, window collapses to the initial value.
            ssthresh = max(cwnd / 2.0, 2.0)
            new_cwnd = initial_cwnd
            phase = TIMEOUT_RECOVERY
            loss_rounds = 0
        else:
            new_cwnd = max(cwnd / 2.0, 1.0)
            ssthresh = new_cwnd
            phase = CONGESTION_AVOIDANCE
    else:
        loss_rounds = 0
        if phase in (SLOW_START, TIMEOUT_RECOVERY):
            new_cwnd = min(cwnd * 2.0, ssthresh)
            phase = SLOW_START if new_cwnd < ssthresh else CONGESTION_AVOIDANCE
        else:
            new_cwnd = cwnd + 1.0
            phase = CONGESTION_AVOIDANCE
        new_cwnd = min(new_cwnd, bdp)

    return (max(new_cwnd, 1.0), ssthresh, phase, loss_rounds), sent + send, delivered


def _lookahead(sent: float, send: float, period: int | None, limit: int) -> int:
    # Rounds worth building ahead of ``sent`` at about ``send`` per round:
    # up to ``limit``, and on a lossy path just past the round expected to
    # cross the next multiple of the loss period. The bound only sizes the
    # lookahead; rounds past it are left to the loop.
    if period is None:
        return limit
    return min(limit, int(((math.floor(sent / period) + 1) * period - sent) / send) + 2)


def _drop_free_rounds(sents: list[float], period: int) -> int:
    # Of the rounds that take ``sents[0]`` to ``sents[1]``, ``sents[2]``, ...,
    # how many come before the first that crosses a multiple of the loss
    # period (the round in which _step drops a segment). The test is
    # _drops_between's floor(sent / period).
    mark = math.floor(sents[0] / period)
    return bisect_right(sents, mark, lo=1, key=lambda s: math.floor(s / period)) - 1


def _ramp(states: list[tuple], sents: list[float], sends: list[float], bdps: list[float],
          periods: list, mss: list[int], n_connections: int, access_bdp: float,
          limit: int) -> tuple[int, int, list[tuple], list[float], list[list[float]], list[float]]:
    """Up to ``limit`` drop-free rounds of paths that grow by one segment per round.

    Every path is either in congestion avoidance with no loss round pending
    or at a fixed point of _step (a window pinned at its bdp, even in slow
    start). Until some path drops a segment, whatever its share, _step
    delivers what such a path sends, keeps its phase and ssthresh, and sets
    ``cwnd = min(min(cwnd, bdp) + 1.0, bdp)`` (floored at 1), which leaves a
    pinned window where it is. Each other quantity of a round is computed
    for all rounds at once, with the operands of simulate_paths' loop in its
    order, so each float is the one the loop makes. The loop's ``min`` calls
    are not made round by round: each takes a monotone sequence and so
    switches sides once, at a split found by bisection.

    - Windows: the chain ``accumulate(repeat(1.0), initial=min(cwnd, bdp))``
      never decreases, so ``min(c, bdp)`` is the chain up to
      ``bisect_right(chain, bdp)`` and ``bdp`` after it.
    - Shares: ``n * cwnd`` never decreases and float division is monotone,
      so the share ``min(1.0, bdp / (n * cwnd))`` is 1.0 up to the first
      round whose quotient is below 1.0 and the quotient from there on.
    - Access scale: behind an uncapped access link (``access_bdp`` inf, as
      for every single link) ``min(1.0, inf / demand)`` is exactly 1.0, so a
      send is ``cwnd * share``, and the cwnd itself where the share is 1.0
      (``x * 1.0 == x``). Only a finite access link needs the demand
      ``window0 * share0 + window1 * share1 ...`` and the scale
      ``min(1.0, access_bdp / demand)`` of each round, and then a send is
      ``cwnd * (share * scale)``.
    - ``sent`` is the running sum of sends, a round's delta
      ``(n * send) * mss`` and its total ``delta0 + delta1 ...``. The loop
      starts the demand and the total from 0.0, and ``0.0 + x == x`` for
      every ``x >= 0``, so the first path's terms start them here.

    The run stops before the first round in which some path's ``sent``
    crosses a multiple of its loss period (_step's drop), or after
    ``limit`` rounds. Rounds are computed only up to the first in which
    every window sits at its bdp: each round after it gets the same
    windows, shares and scale, so it repeats that round exactly and is held,
    not computed; only a lossy path's ``sent`` is summed over held rounds.
    The lookahead is bounded by those stops, estimated from ``sends`` (each
    path's last send); a run they cut short is resumed by the loop, so they
    size the work and never change the result.

    Returns (rounds, held, states, sents, per-path deltas, round totals)
    after the run: the deltas and totals of ``rounds`` computed rounds,
    which the next ``held`` rounds repeat the last of; or zero rounds.
    """
    # The first round in which every window sits at its bdp, were the chains
    # below exact; where they pin later, the run is not held and is resumed.
    all_pinned = max(math.ceil(bdp - min(state[0], bdp)) for state, bdp in zip(states, bdps))
    built = min(limit, all_pinned + 1)
    for sent, send, period in zip(sents, sends, periods):
        built = _lookahead(sent, send, period, built)
    cwnds, splits = [], []
    for state, bdp in zip(states, bdps):
        path_cwnds = list(accumulate(repeat(1.0, built), initial=min(state[0], bdp)))
        pinned = bisect_right(path_cwnds, bdp)
        path_cwnds[pinned:] = repeat(bdp, built + 1 - pinned)
        split = bisect_left(path_cwnds, True, hi=built,
                            key=lambda cwnd: bdp / (n_connections * cwnd) < 1.0)
        quotients = list(map(truediv, repeat(bdp),
                             map(mul, repeat(n_connections), path_cwnds[split:built])))
        cwnds.append(path_cwnds)
        splits.append((split, quotients))
    if access_bdp == math.inf:
        path_sends = [path_cwnds[:split] + list(map(mul, path_cwnds[split:built], quotients))
                      for path_cwnds, (split, quotients) in zip(cwnds, splits)]
    else:
        shares = [[1.0] * split + quotients for split, quotients in splits]
        terms = [map(mul, map(mul, repeat(n_connections, built), path_cwnds), path_shares)
                 for path_cwnds, path_shares in zip(cwnds, shares)]
        demand = terms[0]
        for path_terms in terms[1:]:
            demand = map(add, demand, path_terms)
        scales = list(map(min, repeat(1.0), map(truediv, repeat(access_bdp), demand)))
        path_sends = [list(map(mul, path_cwnds, map(mul, path_shares, scales)))
                      for path_cwnds, path_shares in zip(cwnds, shares)]
    # A lossless path never drops, so only lossy paths' running sums can
    # stop the run; a lossless path's ``sent`` is never read again and is
    # left where it is.
    rounds = built
    runs = {}
    for i, (sends, sent, period) in enumerate(zip(path_sends, sents, periods)):
        if period is not None:
            runs[i] = list(accumulate(sends, initial=sent))
            rounds = min(rounds, _drop_free_rounds(runs[i], period))
    if not rounds:
        return 0, 0, states, sents, [], []
    sents = [runs[i][rounds] if i in runs else sent for i, sent in enumerate(sents)]
    held = 0
    if rounds == built < limit and all(c[built - 1] == bdp for c, bdp in zip(cwnds, bdps)):
        held = limit - built
        for i in runs:
            send = path_sends[i][-1]
            runs[i] = list(accumulate(repeat(send, _lookahead(sents[i], send, periods[i], held)),
                                      initial=sents[i]))
            held = _drop_free_rounds(runs[i], periods[i])
        for i, run in runs.items():
            sents[i] = run[held]
    deltas = [list(map(mul, map(mul, repeat(n_connections, rounds), sends), repeat(m)))
              for sends, m in zip(path_sends, mss)]
    totals = deltas[0]
    for path_deltas in deltas[1:]:
        totals = list(map(add, totals, path_deltas))
    states = [(max(path_cwnds[rounds], 1.0),) + state[1:]
              for path_cwnds, state in zip(cwnds, states)]
    return rounds, held, states, sents, deltas, totals


def advance_round(state: FlowState, link: LinkModel, capacity_share: float = 1.0) -> FlowState:
    """Advance one flow by a single RTT round.

    The flow transmits min(cwnd, bdp) segments scaled by ``capacity_share``
    (the fraction of the link this flow gets when several share it). Slow start
    doubles the window up to ssthresh, congestion avoidance adds one segment
    per round, a round containing a scheduled loss halves the window instead,
    and three lossy rounds in a row count as a timeout that re-enters slow
    start at the initial window.
    """
    if not 0 < capacity_share <= 1:
        raise ValueError(f"capacity_share must be in (0, 1], got {capacity_share}")
    (cwnd, ssthresh, phase, loss_rounds), sent, delivered = _step(
        (state.cwnd, state.ssthresh, state.phase, state.loss_rounds), state.sent,
        state.initial_cwnd, link.bdp_segments, link.loss_period, capacity_share)
    return replace(
        state,
        cwnd=cwnd,
        ssthresh=ssthresh,
        phase=phase,
        delivered=state.delivered + delivered,
        sent=sent,
        loss_rounds=loss_rounds,
    )


def _append_sums(boundaries: list[float], deltas: list[float], held: int):
    # Append ``boundaries[-1] + delta`` for each delta in turn, then for the
    # last delta ``held`` times more: accumulate makes the same float sums as
    # appending one round at a time.
    boundaries.extend(islice(accumulate(deltas, initial=boundaries[-1]), 1, None))
    if held:
        held_sums = accumulate(repeat(deltas[-1], held), initial=boundaries[-1])
        boundaries.extend(islice(held_sums, 1, None))


def sample_times(duration_ms: float, sample_interval: float) -> list[float]:
    """The sample grid of every test, simulated or measured, and of an overlap sum:
    ``k * sample_interval`` ms for each k from 0 while that is within ``duration_ms``."""
    return list(map(mul, range(math.floor(duration_ms / sample_interval) + 1),
                    repeat(sample_interval)))


@dataclass
class RoundLedger:
    """Cumulative delivered bytes at each round boundary, for resampling."""

    rtt: float
    boundaries: list[float] = field(default_factory=lambda: [0.0])

    def sample(self, sample_interval: float, duration_ms: float) -> ThroughputTrace:
        """The ledger as a trace sampled every ``sample_interval`` ms up to ``duration_ms``.

        Delivery is fluid within a round, so a sample interpolates linearly
        between the boundaries of the round it falls in, which keeps
        inter-sample rates at or below capacity; a sample at or past the last
        boundary holds the ledger's final count. The sample times, their
        positions ``t / rtt`` in rounds and the floors of those are one
        ``map`` each over all samples, and the interpolation one inline pass,
        with no call per sample. Sample times increase, so the floors do too,
        and the samples past the last round are one trailing run found by
        bisection.
        """
        bounds = self.boundaries
        times = sample_times(duration_ms, sample_interval)
        positions = list(map(truediv, times, repeat(self.rtt)))
        floors = list(map(math.floor, positions))
        inside = bisect_left(floors, len(bounds) - 1)
        counts = [bounds[lo] + (pos - lo) * (bounds[lo + 1] - bounds[lo])
                  for pos, lo in zip(positions, floors[:inside])]
        counts.extend(repeat(bounds[-1], len(times) - inside))
        return ThroughputTrace.from_columns(sample_interval, times, counts)


def simulate_paths(
    links: list[LinkModel],
    n_connections: int,
    duration_ms: float,
    access_bdp: float = math.inf,
    initial: FlowState = FlowState(),
) -> tuple[list[RoundLedger], RoundLedger]:
    """Round ledgers of paths that share one access link, each carrying n flows.

    All paths have the same RTT, so rounds advance in lockstep. The n flows on
    a path start identical and always get the same share of it, so they stay
    identical: one representative flow, starting from ``initial``, stands for
    all n and its delivery is scaled by n. Each round a path's capacity is
    split over its flows (share = min(1, bdp / sum of windows)), then every
    path is scaled down when the summed demand exceeds ``access_bdp``
    segments. A single link is one path behind an uncapped access link.

    Runs: when a round leaves every path either unchanged (a window pinned
    at its bdp) or in congestion avoidance with no loss round pending, the
    windows grow by one segment a round, capped at the bdp, until the first
    round whose ``sent`` crosses the next multiple of some path's loss
    period (on lossless paths, to the end of the test). _ramp computes those
    rounds for every path at once, making each float the loop makes, up to
    the first round in which every window sits at its bdp; the rounds after
    it repeat its per-path and total deltas exactly and are appended with
    the same float sums.

    So the ledgers are bit-identical to stepping every round. The rounds
    still stepped are the drop rounds, the round after each, and slow start:
    the cost scales with those, not with the number of rounds, and n enters
    only through each flow's share.

    A single path's aggregate is the path itself: each round's total starts
    from 0.0 and ``0.0 + x == x``, so its ledger would repeat the path's
    bit for bit, and the path's ledger is returned as the aggregate instead
    of being built twice.
    Returns (per-path ledgers, aggregate ledger).
    """
    rtt = links[0].rtt
    if any(link.rtt != rtt for link in links):
        raise ValueError("paths advance in lockstep and need equal RTTs")
    if not 0 < duration_ms < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_ms} ms")
    bdps = [link.bdp_segments for link in links]
    periods = [link.loss_period for link in links]
    mss = [link.mss for link in links]
    states = [(initial.cwnd, initial.ssthresh, initial.phase, initial.loss_rounds)] * len(links)
    sents = [initial.sent] * len(links)
    delivered = [0.0] * len(links)
    ledgers = [RoundLedger(rtt=rtt) for _ in links]
    multi = len(links) > 1
    total_ledger = RoundLedger(rtt=rtt) if multi else ledgers[0]

    # Rounds append to the ledgers' lists directly: a method call per path
    # and round would cost more than the check for a run.
    boundaries = [ledger.boundaries for ledger in ledgers]
    total_bytes = total_ledger.boundaries
    rounds = math.ceil(duration_ms / rtt)
    while rounds:
        rounds -= 1
        shares = []
        demand = 0.0
        for state, bdp in zip(states, bdps):
            window = n_connections * min(state[0], bdp)
            share = min(1.0, bdp / window)
            shares.append(share)
            demand += window * share
        access_scale = min(1.0, access_bdp / demand)

        round_total = 0.0
        ramp = True
        for i in range(len(links)):
            state = states[i]
            states[i], sents[i], delivered[i] = _step(
                state, sents[i], initial.initial_cwnd, bdps[i], periods[i],
                shares[i] * access_scale)
            ramp = ramp and (states[i] == state or states[i][2:] == (CONGESTION_AVOIDANCE, 0))
            delta = n_connections * delivered[i] * mss[i]
            path_bytes = boundaries[i]
            path_bytes.append(path_bytes[-1] + delta)
            round_total += delta
        if multi:
            total_bytes.append(total_bytes[-1] + round_total)

        if ramp and rounds:
            # No path dropped a segment this round (a drop leaves a loss
            # round pending or a timeout), so each delivered what it sent.
            ramped, held, states, sents, deltas, totals = _ramp(
                states, sents, delivered, bdps, periods, mss, n_connections, access_bdp, rounds)
            rounds -= ramped + held
            for path_bytes, path_deltas in zip(boundaries, deltas):
                _append_sums(path_bytes, path_deltas, held)
            if multi:
                _append_sums(total_bytes, totals, held)
    return ledgers, total_ledger


def simulate_transfer(
    link: LinkModel,
    n_connections: int,
    duration: float,
    sample_interval: float = 100.0,
    initial_cwnd: float = INITIAL_CWND,
    initial_ssthresh: float = INITIAL_SSTHRESH,
) -> ThroughputTrace:
    """Simulate ``n_connections`` flows sharing one link for ``duration`` seconds.

    The flows start identical and split the link proportionally to their
    windows, so they stay in lockstep: one representative flow stands for all
    n and the link's delivery is n times its own (see ``simulate_paths``), at a
    cost that does not depend on n. Returns the aggregate trace sampled every
    ``sample_interval`` ms. Pure function: identical inputs yield identical
    traces.
    """
    if n_connections < 1:
        raise ValueError(f"n_connections must be >= 1, got {n_connections}")
    if duration < 1:
        raise ValueError(f"duration must be >= 1 s, got {duration}")
    duration_ms = duration * 1000.0
    if sample_interval > duration_ms:
        raise ValueError(
            f"sample_interval {sample_interval} ms exceeds duration {duration_ms} ms"
        )
    initial = FlowState(cwnd=initial_cwnd, ssthresh=initial_ssthresh, initial_cwnd=initial_cwnd)
    _, ledger = simulate_paths([link], n_connections, duration_ms, initial=initial)
    trace = ledger.sample(sample_interval, duration_ms)
    # The link never delivers more than one bdp per round, whatever n is.
    trace.check_rate_cap(link.capacity)
    return trace


def model_inputs(link: LinkModel) -> dict:
    """The inputs simulate_transfer needs besides connections, duration and sample interval.

    A simulated record stores them, so its trace can be regenerated from
    the record alone (simulate_model). ``cc`` names the congestion-control
    law and ``revision`` the model's; a change that moves any bit of the
    model's output bumps the revision.
    """
    return {
        "capacity": link.capacity,
        "rtt": link.rtt,
        "loss_rate": link.loss_rate,
        "mss": link.mss,
        "initial_cwnd": INITIAL_CWND,
        "initial_ssthresh": INITIAL_SSTHRESH,
        "cc": MODEL_CC,
        "revision": MODEL_REVISION,
    }


def simulate_model(inputs: dict, n_connections: int, duration: float,
                   sample_interval: float) -> ThroughputTrace:
    """simulate_transfer on ``model_inputs``' output; ValueError for another law or revision."""
    if inputs["cc"] != MODEL_CC or inputs["revision"] != MODEL_REVISION:
        raise ValueError(f"model {inputs['cc']!r} revision {inputs['revision']!r} is not "
                         f"this model ({MODEL_CC!r} revision {MODEL_REVISION})")
    link = LinkModel(capacity=inputs["capacity"], rtt=inputs["rtt"],
                     loss_rate=inputs["loss_rate"], mss=inputs["mss"])
    return simulate_transfer(link, n_connections, duration, sample_interval,
                             initial_cwnd=inputs["initial_cwnd"],
                             initial_ssthresh=inputs["initial_ssthresh"])


def slow_start_rounds(link: LinkModel, initial_cwnd: float = INITIAL_CWND) -> int:
    """Doubling rounds until the window first reaches the link's bdp, lossless."""
    if initial_cwnd < 1:
        raise ValueError(f"initial_cwnd must be >= 1, got {initial_cwnd}")
    rounds = 0
    cwnd = initial_cwnd
    while cwnd < link.bdp_segments:
        cwnd *= 2
        rounds += 1
    return rounds


def loss_limited_throughput(
    link: LinkModel,
    warmup_rounds: int = 200,
    measure_rounds: int = 2000,
) -> float:
    """Steady-state rate of one flow under the link's periodic loss, in bits/s.

    Runs the round model past its transient, then averages delivered bytes
    per RTT over many loss cycles, read from one flow's ledger. Only
    meaningful when loss limits the flow, so a lossless link is rejected.
    """
    if link.loss_rate == 0:
        raise ValueError("loss_rate must be > 0; a lossless link is capacity-limited")
    end = warmup_rounds + measure_rounds
    (ledger,), _ = simulate_paths([link], 1, end * link.rtt)
    bounds = ledger.boundaries
    bytes_per_round = (bounds[end] - bounds[warmup_rounds]) / measure_rounds
    return bytes_per_round * 8 / (link.rtt / 1000.0)
