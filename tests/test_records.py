"""Record serialization fidelity, the append-only store, and aggregation."""

import dataclasses
import hashlib
import json
import logging
import math
import multiprocessing
import os
import random
import shutil
import threading
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from linerate import cli, records
from linerate.coordinator import ServerDescriptor
from linerate import engine as engine_mod
from linerate.engine import RawTestRecord
from linerate.flowmodel import MEASURED, SIMULATED, ThroughputTrace
from linerate.metrics import EstimationMethod, LatencyStats, METHOD_KINDS
from linerate.records import (
    AggregateReport,
    MeasurementResult,
    ResultStore,
    UnknownSchemaError,
    aggregate_results,
    canonical_json,
    load_registry,
    make_result,
    recompute_report,
    report_blocks,
    save_registry,
)


def random_trace(rng, n_intervals=None, interval=None) -> ThroughputTrace:
    n = n_intervals or rng.randint(3, 20)
    interval = interval or rng.choice([50.0, 100.0, 250.0])
    total = 0
    samples = [(0.0, 0)]
    for k in range(1, n + 1):
        total += rng.randint(1, 5_000_000)
        samples.append((k * interval, total))
    return ThroughputTrace(sample_interval=interval, samples=tuple(samples),
                           source=rng.choice([MEASURED, SIMULATED]))


def random_result(rng) -> MeasurementResult:
    n_conn = rng.randint(1, 6)
    interval = rng.choice([50.0, 100.0])
    n_intervals = rng.randint(3, 15)
    per_conn = [random_trace(rng, n_intervals, interval) for _ in range(n_conn)]
    # One sampler: every trace of a record shares its times and source.
    source = per_conn[0].source
    per_conn = tuple(dataclasses.replace(trace, source=source) for trace in per_conn)
    # aggregate as the exact sum keeps the record internally consistent
    aggregate = ThroughputTrace(
        sample_interval=interval,
        samples=tuple(
            (per_conn[0].samples[k][0], sum(t.samples[k][1] for t in per_conn))
            for k in range(n_intervals + 1)
        ),
        source=source,
    )
    sent = rng.randint(5, 12)
    received = rng.randint(1, sent)
    latency = LatencyStats(rtts=tuple(rng.uniform(1.0, 80.0) for _ in range(received)),
                           sent=sent, received=received)
    flag_choices = ["cross_traffic_detected", "cross_traffic_unknown",
                    "degenerate_trace", "below_recommended_connections"]
    flags = frozenset(rng.sample(flag_choices, rng.randint(0, 3)))
    raw = RawTestRecord(
        spec=engine_mod.TestSpec(
            target=f"host-{rng.randint(0, 999)}.example.net:{rng.randint(1024, 65000)}",
            direction=rng.choice(["download", "upload"]),
            duration=n_intervals * interval / 1000.0,
            n_connections=n_conn,
            sample_interval=interval,
            target_id=rng.choice(["", f"srv-{rng.randint(0, 99)}"]),
            nonce=rng.getrandbits(128).to_bytes(16, "big"),
        ),
        per_connection_traces=per_conn,
        aggregate_trace=aggregate,
        latency=latency,
        cross_traffic_bps=rng.choice([None, rng.uniform(0, 1e8)]),
        flags=flags,
        server_summary=rng.choice([
            None,
            tuple((i, rng.randint(0, 10**9), rng.randint(1, 60_000))
                  for i in range(n_conn)),
        ]),
        server_load=rng.choice([None, (rng.randint(1, 8), 8)]),
    )
    method = EstimationMethod(kind=rng.choice(METHOD_KINDS))
    server = rng.choice([
        None,
        ServerDescriptor(id=f"srv-{rng.randint(0, 99)}", host="s.example.net",
                         port=rng.randint(1024, 65000),
                         declared_location=rng.choice(["", "newark-nj"]),
                         capacity_hint=rng.choice([None, 1e9]),
                         health=tuple(rng.choices(["ok", "unreachable"],
                                                  k=rng.randint(0, 6)))),
    ])
    stamp = (datetime(2026, 1, 1, tzinfo=timezone.utc)
             + timedelta(seconds=rng.randint(0, 10**7))).isoformat()
    return make_result(raw, method, rng.choice(records.ORIGINS), server=server,
                       timestamp=stamp)


def clean_result(rng=None, origin="user", flags=frozenset(), direction="download",
                 method=None) -> MeasurementResult:
    rng = rng or random.Random(0)
    base = random_result(rng)
    raw = RawTestRecord(
        spec=engine_mod.TestSpec(target="h.example.net:7777", direction=direction,
                      duration=1.0, n_connections=4, sample_interval=100.0,
                      nonce=rng.getrandbits(128).to_bytes(16, "big")),
        per_connection_traces=base.raw.per_connection_traces,
        aggregate_trace=base.raw.aggregate_trace,
        latency=base.raw.latency,
        cross_traffic_bps=0.0,
        flags=flags,
    )
    return make_result(raw, method or EstimationMethod(), origin,
                       timestamp="2026-02-03T04:05:06+00:00")


def simulated_result(n_connections, direction="download", link=200e6, rtt=20.0,
                     duration=2.0) -> MeasurementResult:
    """A ``run --simulate`` record with a fixed nonce and timestamp."""
    raw = cli.simulated_raw({"link": link, "rtt": rtt, "loss": 1e-4,
                             "connections": n_connections, "duration": duration}, direction)
    raw = dataclasses.replace(raw, spec=dataclasses.replace(raw.spec,
                                                            nonce=bytes(range(16))))
    return make_result(raw, EstimationMethod(), records.ORIGIN_USER,
                       timestamp="2026-01-02T03:04:05+00:00")


def measured_result(duration=2.0) -> MeasurementResult:
    """A hand-built measured record: int byte counts, a distinct trace per connection.

    Its traces hold 21 samples, 0 to 2000 ms, whatever the spec's ``duration``.
    """
    per_connection = tuple(
        ThroughputTrace(sample_interval=100.0, source=MEASURED, samples=tuple(
            (100 * k, (c + 1) * 1_000 * k * k + 7 * c * k) for k in range(21)))
        for c in range(3))
    aggregate = ThroughputTrace(sample_interval=100.0, source=MEASURED, samples=tuple(
        (100 * k, sum(trace.samples[k][1] for trace in per_connection)) for k in range(21)))
    raw = RawTestRecord(
        spec=engine_mod.TestSpec(target="198.51.100.7:7777", direction="upload",
                                 duration=duration, n_connections=3, sample_interval=100.0,
                                 target_id="srv-7", nonce=bytes(range(16, 32))),
        per_connection_traces=per_connection,
        aggregate_trace=aggregate,
        latency=LatencyStats(rtts=(12.5, 13.25, 11.75, 14.0), sent=5, received=4),
        cross_traffic_bps=1.5e6,
        flags=frozenset({"below_recommended_connections", "cross_traffic_detected"}),
        server_summary=tuple((i, 3_000_000 * (i + 1), 2_000) for i in range(3)),
        server_load=(2, 8),
        started_at_monotonic=12345.678,
    )
    server = ServerDescriptor(id="srv-7", host="198.51.100.7", port=7777,
                              declared_location="newark-nj", network="AS64500",
                              capacity_hint=1e9, health=("ok", "unreachable", "ok"))
    return make_result(raw, EstimationMethod(kind="trimmed", trim_low_fraction=0.2),
                       records.ORIGIN_SCHEDULED, server=server,
                       timestamp="2026-03-04T05:06:07+00:00")


# Strings json must escape: a quote, a backslash, control and non-ASCII characters.
ESCAPED_TEXT = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "naïve ☃ 東京", "tab\tnew\nline\x01"]),
    st.text(max_size=12))


@st.composite
def drawn_traces(draw, interval, n_steps, source):
    """A trace of ``n_steps`` intervals: the sampler's times, drawn byte counts."""
    steps = draw(st.lists(st.one_of(st.integers(0, 10**7), st.floats(0.0, 1e7)),
                          min_size=n_steps, max_size=n_steps))
    samples = [(0.0, 0)]
    for k, step in enumerate(steps, start=1):
        samples.append((k * interval, samples[-1][1] + step))
    return ThroughputTrace(sample_interval=interval, samples=tuple(samples), source=source)


@st.composite
def per_connection_traces(draw, sharing, shape):
    n = draw(st.integers(1, 6))
    if sharing == "same":
        return (draw(drawn_traces(*shape)),) * n
    if sharing == "distinct":
        return tuple(draw(drawn_traces(*shape)) for _ in range(n))
    # dataclasses.replace with no changes gives an equal but distinct object.
    if sharing == "equal":
        first = draw(drawn_traces(*shape))
        return (first,) + tuple(dataclasses.replace(first) for _ in range(n - 1))
    pool = draw(st.lists(drawn_traces(*shape), min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                          min_size=n, max_size=n))
    return tuple(pool[i] if same else dataclasses.replace(pool[i]) for i, same in picks)


@st.composite
def drawn_results(draw, sharing):
    # One sampler: the traces share an interval, a time column and a source.
    shape = (draw(st.sampled_from([50.0, 100.0])), draw(st.integers(1, 6)),
             draw(st.sampled_from([MEASURED, SIMULATED])))
    interval = shape[0]
    per_conn = draw(per_connection_traces(sharing, shape))
    aggregate = draw(st.one_of(st.just(per_conn[0]), drawn_traces(*shape)))
    n = len(per_conn)
    server = draw(st.none() | st.builds(
        ServerDescriptor, id=ESCAPED_TEXT.filter(bool), host=ESCAPED_TEXT.filter(bool),
        port=st.integers(1, 65535), declared_location=ESCAPED_TEXT, network=ESCAPED_TEXT,
        capacity_hint=st.none() | st.floats(1e6, 1e10),
        health=st.lists(st.sampled_from(["ok", "unreachable"]), max_size=4)))
    raw = RawTestRecord(
        spec=engine_mod.TestSpec(target="h.example.net:7777",
                                 direction=draw(st.sampled_from(["download", "upload"])),
                                 duration=10.0, n_connections=n, sample_interval=interval,
                                 target_id=draw(ESCAPED_TEXT), nonce=bytes(16)),
        per_connection_traces=per_conn,
        aggregate_trace=aggregate,
        latency=LatencyStats(rtts=(12.5, 13.0), sent=3, received=2),
        cross_traffic_bps=draw(st.none() | st.floats(0.0, 1e9)),
        flags=draw(st.frozensets(st.sampled_from(["degenerate_trace", "simulated"]))),
        server_summary=draw(st.none() | st.just(
            tuple((i, 1000 * i, 500) for i in range(n)))),
        server_load=draw(st.none() | st.tuples(st.integers(0, 8), st.just(8))),
    )
    return make_result(raw, EstimationMethod(), draw(st.sampled_from(records.ORIGINS)),
                       server=server, timestamp=draw(ESCAPED_TEXT.filter(bool)))


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    @pytest.mark.parametrize("make", [clean_result, lambda: simulated_result(4)],
                             ids=["measured", "simulated"])
    def test_equals_json_dumps_on_a_full_record(self, make):
        data = make().to_dict()
        assert canonical_json(data) == json.dumps(data, sort_keys=True, separators=(",", ":"),
                                                  allow_nan=False)


class TestConverters:
    def test_latency_round_trip(self):
        stats = LatencyStats(rtts=(1.5, 2.25, 3.125), sent=5, received=3)
        assert records.latency_from_dict(records.latency_to_dict(stats)) == stats

    def test_raw_round_trip(self):
        raw = random_result(random.Random(2)).raw
        assert records.raw_from_dict(records.raw_to_dict(raw)) == raw


class TestMeasurementResult:
    def test_rejects_unknown_origin(self):
        result = clean_result()
        with pytest.raises(ValueError):
            MeasurementResult(timestamp=result.timestamp, origin="nightly",
                              raw=result.raw, report=result.report, server=None,
                              methodology=result.methodology,
                              alternate_estimates=result.alternate_estimates)

    def test_spec_and_flags_are_the_raw_records(self):
        # Schema v2 stores them once, in raw; v1's top-level copies are gone.
        result = clean_result()
        other = simulated_result(1, direction="upload").raw
        swapped = dataclasses.replace(result, raw=other)
        assert swapped.spec == other.spec
        assert swapped.flags == other.flags
        stored = json.loads(swapped.to_json())
        assert "spec" not in stored and "flags" not in stored
        assert stored["raw"]["spec"] == other.spec.to_dict()
        assert stored["raw"]["flags"] == sorted(other.flags)
        loaded = MeasurementResult.from_json(swapped.to_json())
        assert (loaded.spec, loaded.flags) == (other.spec, other.flags)

    @pytest.mark.parametrize("edit", [
        lambda data: data["spec"].update(direction="upload"),
        lambda data: data["spec"].update(n_connections=1),
        lambda data: data["flags"].append("degenerate_trace"),
        lambda data: data["raw"]["flags"].append("degenerate_trace"),
    ], ids=["spec-direction", "spec-connections", "top-level-flag", "raw-flag"])
    def test_line_whose_spec_or_flags_differ_from_raw_is_corrupt(self, tmp_path, edit):
        # Only schema v1 stores the two copies.
        good = clean_result()
        data = json.loads(good.to_json(records.SCHEMA_V1))
        edit(data)
        with pytest.raises(ValueError):
            MeasurementResult.from_dict(data)
        store = ResultStore(tmp_path / "results.jsonl")
        with open(store.path, "w") as fh:
            fh.write(canonical_json(data) + "\n")
        store.append(good)
        assert store.load() == [good]

    def test_json_round_trip_preserves_equality(self):
        result = random_result(random.Random(3))
        assert MeasurementResult.from_json(result.to_json()) == result

    def test_serialize_parse_serialize_is_byte_identical(self):
        rng = random.Random(4)
        for _ in range(50):
            first = random_result(rng).to_json()
            second = MeasurementResult.from_json(first).to_json()
            assert second == first

    def test_unknown_schema_version_rejected(self):
        data = json.loads(clean_result().to_json())
        data["schema_version"] = 3
        with pytest.raises(UnknownSchemaError):
            MeasurementResult.from_dict(data)

    def test_writer_cannot_write_a_version_the_reader_refuses(self):
        result = clean_result()
        with pytest.raises(TypeError):
            dataclasses.replace(result, schema_version=2)
        assert result.schema_version == records.SCHEMA_VERSION
        assert json.loads(result.to_json())["schema_version"] == records.SCHEMA_VERSION
        with pytest.raises(UnknownSchemaError):
            result.to_json(records.SCHEMA_VERSION + 1)

    def test_missing_schema_version_rejected(self):
        data = json.loads(clean_result().to_json())
        del data["schema_version"]
        with pytest.raises(UnknownSchemaError):
            MeasurementResult.from_dict(data)

    def test_report_recomputable_from_stored_raw(self):
        rng = random.Random(5)
        for _ in range(50):
            result = random_result(rng)
            reparsed = MeasurementResult.from_json(result.to_json())
            assert recompute_report(reparsed) == reparsed.report

    @pytest.mark.parametrize("sharing", ["same", "distinct", "equal", "mixed"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_to_json_is_canonical_json_of_to_dict(self, sharing, data):
        result = data.draw(drawn_results(sharing))
        text = result.to_json()
        assert text == canonical_json(result.to_dict())
        assert MeasurementResult.from_json(text).to_json() == text

    def test_nan_in_a_repeated_trace_rejected(self):
        result = simulated_result(4)
        share = result.raw.per_connection_traces[0]
        bad = dataclasses.replace(
            share, samples=((0.0, 0.0), (100.0, math.nan)) + share.samples[2:])
        raw = dataclasses.replace(result.raw, per_connection_traces=(bad,) * 4)
        with pytest.raises(ValueError):
            dataclasses.replace(result, raw=raw).to_json()

    def test_self_referencing_value_still_raises(self):
        result = clean_result()
        methodology = dict(result.methodology)
        methodology["self"] = methodology
        with pytest.raises((ValueError, RecursionError)):
            dataclasses.replace(result, methodology=methodology).to_json()
        loop = []
        loop.append(loop)
        with pytest.raises((ValueError, RecursionError)):
            canonical_json(loop)

    @pytest.mark.parametrize("n_connections", [1, 16])
    def test_encoding_cost_does_not_grow_with_connections(self, n_connections):
        # One repeated per-connection trace plus the aggregate, whose byte
        # columns are stored as they are, not copied. At one connection the
        # share's column equals the aggregate's, so the record stores one column.
        result = simulated_result(n_connections)
        raw = result.raw
        stored = records.trace_table(raw.aggregate_trace, raw.per_connection_traces)
        traces = (raw.aggregate_trace, *raw.per_connection_traces)
        assert stored["times"] is raw.aggregate_trace.times
        assert all(any(column is trace.counts for trace in traces)
                   for column in stored["columns"])
        table = json.loads(result.to_json())["raw"]["trace"]
        assert len(table["columns"]) == (1 if n_connections == 1 else 2)
        assert table["aggregate"] == 0
        assert table["per_connection"] == [0 if n_connections == 1 else 1] * n_connections

    def test_alternate_estimates_cover_every_method(self):
        result = clean_result()
        assert set(result.alternate_estimates) == set(METHOD_KINDS)

    def test_methodology_fully_expanded(self):
        result = clean_result()
        m = result.methodology
        assert m["method"] == result.report.method.to_dict()
        assert m["headline"] == result.report.method.kind
        assert m["n_connections"] == result.spec.n_connections
        assert m["sample_interval_ms"] == result.spec.sample_interval
        assert m["trace_source"] in (MEASURED, SIMULATED)


class TestStoredBytes:
    # Pinned so that encoding changes cannot alter stored records, on any
    # supported Python version. The v1 digests are those of the records the
    # last v1 writer stored; the records now reach them through
    # to_json(SCHEMA_V1), so a v1 line still re-encodes to its own bytes.
    GOLDEN_SHA256 = {
        ("download", 1): "c29b7a271f6123961fb2c60bc28052202ad608c9d230567e57c0fbcea5638058",
        ("download", 4): "2480a523b545183f32a2b2e850d8e04763fc7eb8aa2eb573f0baf98f0f75992c",
        ("download", 16): "ce1da84b7d5695c199b8c76612f0cdf1586fc0ad265908cb6da41704367bc716",
        ("upload", 1): "7415a1db211097b724808179c107cc755844a5c4fc2549372d3172dd743717d2",
        ("upload", 4): "eaded0516ecaba9cd7ab7f74236621bfe26a1b039970e00a11f67e33174fc9c6",
        ("upload", 16): "221b76d8ce17a0de9bf1c4a08e482c86683d824cce63d4a4102462c416770789",
    }
    V2_SHA256 = {
        ("download", 1): "0912683a757b5b5d2a00028b361ec447afca7831bc6aa98157101dedf88c9ade",
        ("download", 4): "63beff8d222539d35c3feea54ca1fed48c893750fe3607fbdeac9b7235aa2968",
        ("download", 16): "df49269dbce10426ced2f5f0b258ccf66e91b17146e6b02e376a837a4c7de873",
        ("upload", 1): "2ee2d399b8c1bd0b76e7e70e382dc9a9aeced669a4702c3e0cc794b7d7693b19",
        ("upload", 4): "eb3f6f9409ea43fb4adaafbe5b90dfe1c35e10bd7c02b604dcfd60c25cfbbf48",
        ("upload", 16): "9b19044cf1e9fc617f63e8b0590866b73badef751a353708c04e08b5f4084803",
    }

    @pytest.mark.parametrize("direction,n_connections", sorted(GOLDEN_SHA256))
    def test_simulated_record_bytes_are_pinned(self, direction, n_connections):
        text = simulated_result(n_connections, direction).to_json(records.SCHEMA_V1)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.GOLDEN_SHA256[direction, n_connections]

    @pytest.mark.parametrize("direction,n_connections", sorted(V2_SHA256))
    def test_simulated_v2_record_bytes_are_pinned(self, direction, n_connections):
        text = simulated_result(n_connections, direction).to_json()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.V2_SHA256[direction, n_connections]

    # A link-limited lossy path that ramps between drops for its whole test
    # (10 Gbit/s, 2 ms, p=1e-4, 16 connections, 10 s), and a measured record
    # with int counts and a distinct trace per connection.
    LOSSY_RAMPS_SHA256 = "46ebf6cd8a53bf89865f2709659f92cb9e5d8cbe582d135e443865a7d25b72a4"
    MEASURED_SHA256 = "58f5ca89942bcb6aa57dac7281e4c429e15d35da5e34c96bc762fb2ddaf2bbdb"
    LOSSY_RAMPS_V2_SHA256 = "7f89841249e07368ae5635962498862a63839f2e858c28731590fe64940fd2d2"
    MEASURED_V2_SHA256 = "20a0b73648b5dcf7a8c9f99b9910c2c6621c64d2ad7396b6c66fffd0ef3023b8"

    def test_lossy_many_ramp_record_bytes_are_pinned(self):
        text = simulated_result(16, link=10e9, rtt=2.0, duration=10.0).to_json(records.SCHEMA_V1)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.LOSSY_RAMPS_SHA256

    def test_measured_record_bytes_are_pinned(self):
        text = measured_result().to_json(records.SCHEMA_V1)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.MEASURED_SHA256

    def test_lossy_many_ramp_v2_record_bytes_are_pinned(self):
        text = simulated_result(16, link=10e9, rtt=2.0, duration=10.0).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.LOSSY_RAMPS_V2_SHA256

    def test_measured_v2_record_bytes_are_pinned(self):
        text = measured_result().to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.MEASURED_V2_SHA256


def stored_fields_equal(loaded: MeasurementResult, result: MeasurementResult):
    """Assert ``==`` on every field a v2 line stores, one field at a time."""
    for field in dataclasses.fields(MeasurementResult):
        if field.name != "raw":
            assert getattr(loaded, field.name) == getattr(result, field.name), field.name
    for field in dataclasses.fields(RawTestRecord):
        if field.name != "started_at_monotonic":
            assert getattr(loaded.raw, field.name) == getattr(result.raw, field.name), field.name


class TestSchemaV2:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_record_round_trips_every_stored_field(self, seed):
        result = random_result(random.Random(seed))
        text = result.to_json()
        assert json.loads(text)["schema_version"] == 2
        loaded = MeasurementResult.from_json(text)
        stored_fields_equal(loaded, result)
        assert loaded.to_json() == text

    @pytest.mark.parametrize("change", [
        lambda trace: dataclasses.replace(trace, sample_interval=50.0),
        lambda trace: dataclasses.replace(trace, source=MEASURED),
        lambda trace: dataclasses.replace(
            trace, samples=tuple((t + 1.0, b) for t, b in trace.samples)),
        lambda trace: dataclasses.replace(trace, samples=trace.samples[:-1]),
    ], ids=["interval", "source", "times", "fewer-samples"])
    @pytest.mark.parametrize("changed", ["aggregate", "one-connection"])
    def test_traces_that_do_not_share_one_time_column_are_refused(self, change, changed):
        result = simulated_result(4)
        raw = result.raw
        if changed == "aggregate":
            raw = dataclasses.replace(raw, aggregate_trace=change(raw.aggregate_trace))
        else:
            traces = list(raw.per_connection_traces)
            traces[2] = change(traces[2])
            raw = dataclasses.replace(raw, per_connection_traces=tuple(traces))
        with pytest.raises(ValueError, match="must share one"):
            dataclasses.replace(result, raw=raw).to_json()

    def test_equal_distinct_traces_are_one_column_and_load_as_one_object(self):
        result = simulated_result(4)
        share = result.raw.per_connection_traces[0]
        copies = tuple(dataclasses.replace(share) for _ in range(4))
        assert len({id(trace) for trace in copies}) == 4
        copied = dataclasses.replace(
            result, raw=dataclasses.replace(result.raw, per_connection_traces=copies))
        text = copied.to_json()
        assert text == result.to_json()
        table = json.loads(text)["raw"]["trace"]
        assert (len(table["columns"]), table["per_connection"]) == (2, [1, 1, 1, 1])
        loaded = MeasurementResult.from_json(text)
        assert len({id(trace) for trace in loaded.raw.per_connection_traces}) == 1
        assert loaded.raw.per_connection_traces == copies

    @pytest.mark.parametrize("make", [measured_result, lambda: simulated_result(4)],
                             ids=["measured", "simulated"])
    def test_loaded_traces_share_one_time_column(self, make):
        raw = MeasurementResult.from_json(make().to_json()).raw
        traces = (raw.aggregate_trace, *raw.per_connection_traces)
        assert len({id(trace.counts) for trace in traces}) > 1
        assert len({id(trace.times) for trace in traces}) == 1

    def test_single_connection_trace_is_the_aggregate_object(self):
        loaded = MeasurementResult.from_json(simulated_result(1).to_json())
        assert loaded.raw.per_connection_traces == (loaded.raw.aggregate_trace,)
        assert loaded.raw.per_connection_traces[0] is loaded.raw.aggregate_trace

    def test_sixteen_connection_simulated_record_is_at_most_a_fifth_of_v1(self):
        # Default-length (10 s) tests; at 2 s the fields around the traces
        # weigh as much as the traces do.
        for result in (simulated_result(16, duration=10.0),
                       simulated_result(16, link=10e9, rtt=2.0, duration=10.0)):
            assert 5 * len(result.to_json()) <= len(result.to_json(records.SCHEMA_V1))

    @pytest.mark.parametrize("edit", [
        lambda table: table["per_connection"].__setitem__(0, 5),
        lambda table: table["per_connection"].__setitem__(0, -1),
        lambda table: table["per_connection"].__setitem__(0, True),
        lambda table: table.update(aggregate=1.0),
        lambda table: table["columns"][1].pop(),
        lambda table: table["times"].pop(),
        lambda table: table["columns"][1].reverse(),
    ], ids=["index-past-end", "negative-index", "bool-index", "float-index",
            "short-column", "short-times", "decreasing-bytes"])
    def test_malformed_trace_table_makes_a_line_corrupt(self, tmp_path, edit):
        good = simulated_result(4)
        data = json.loads(good.to_json())
        edit(data["raw"]["trace"])
        store = ResultStore(tmp_path / "results.jsonl")
        with open(store.path, "w") as fh:
            fh.write(canonical_json(data) + "\n")
        store.append(good)
        assert store.load() == [good]

    def test_simulated_record_stores_its_model_inputs(self):
        result = simulated_result(4)
        stored = json.loads(result.to_json())["raw"]["model"]
        assert stored == {"capacity": 200e6, "rtt": 20.0, "loss_rate": 1e-4, "mss": 1500,
                          "initial_cwnd": 10.0, "initial_ssthresh": 64.0, "cc": "reno64",
                          "revision": 1}
        loaded = MeasurementResult.from_json(result.to_json())
        assert records.simulate_raw(loaded.spec, loaded.raw.model) == loaded.raw
        assert json.loads(measured_result().to_json())["raw"]["model"] is None

    # v2 drops four v1 fields; each test below checks what now carries
    # the information.
    def test_started_at_monotonic_stays_in_memory_only(self):
        # A reading of one process's monotonic clock: run_multi_destination
        # lines up its tests with it in memory; a stored record's wall time
        # is its timestamp.
        result = measured_result()
        assert result.raw.started_at_monotonic == 12345.678
        stored = json.loads(result.to_json())
        assert "started_at_monotonic" not in stored["raw"]
        loaded = MeasurementResult.from_json(result.to_json())
        assert loaded.raw.started_at_monotonic is None
        assert datetime.fromisoformat(loaded.timestamp).tzinfo is not None

    def test_wire_bytes_stay_in_memory_only(self):
        # The engine's own-bytes sum for cross-traffic detection: no schema stores it.
        result = measured_result()
        carrying = dataclasses.replace(
            result, raw=dataclasses.replace(result.raw, wire_bytes=123_456))
        for version in (records.SCHEMA_V1, records.SCHEMA_VERSION):
            assert carrying.to_json(version) == result.to_json(version)
        assert MeasurementResult.from_json(carrying.to_json()).raw.wire_bytes is None

    def test_the_stored_method_names_the_warmup_rule(self):
        # v1's warmup_excluded was true on every run and read by nothing.
        # What the headline leaves out is the method's: steady_state and
        # trimmed start at its steady_start rule, full_average keeps all.
        result = clean_result()
        stored = json.loads(result.to_json())
        assert "warmup_excluded" not in stored["raw"]["spec"]
        assert "warmup_excluded" not in stored["methodology"]
        method = stored["methodology"]["method"]
        assert method["kind"] == "steady_state"
        assert method["steady_start"] == EstimationMethod().steady_start
        assert EstimationMethod.from_dict(method) == result.report.method
        v1 = json.loads(result.to_json(records.SCHEMA_V1))
        assert v1["spec"]["warmup_excluded"] is v1["methodology"]["warmup_excluded"] is True


V1_STORE = os.path.join(os.path.dirname(__file__), "data", "store_v1.jsonl")


def v1_lines() -> list[str]:
    with open(V1_STORE, encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestSchemaV1:
    """Lines the last v1 writer stored, in ``tests/data/store_v1.jsonl``.

    The file holds simulated_result(1), simulated_result(4),
    simulated_result(16, "upload"), the lossy 10 Gbit/s 16-connection
    record and measured_result(), appended by the v1 ResultStore.
    """

    def test_fixture_holds_the_pinned_v1_records(self):
        golden = TestStoredBytes.GOLDEN_SHA256
        assert [hashlib.sha256(line.encode("utf-8")).hexdigest() for line in v1_lines()] == [
            golden["download", 1], golden["download", 4], golden["upload", 16],
            TestStoredBytes.LOSSY_RAMPS_SHA256, TestStoredBytes.MEASURED_SHA256]

    def test_every_line_loads_and_re_encodes_to_its_bytes(self):
        lines = v1_lines()
        loaded = ResultStore(V1_STORE).load()
        assert len(loaded) == len(lines) == 5
        for line, result in zip(lines, loaded):
            assert json.loads(line)["schema_version"] == records.SCHEMA_V1
            assert result.to_json(records.SCHEMA_V1) == line
            assert result.raw.model is None
            assert recompute_report(result) == result.report

    def test_equal_v1_traces_decode_to_one_object(self):
        # The simulated lines' per-connection traces are one trace each; the
        # measured line's are distinct.
        loaded = ResultStore(V1_STORE).load()
        assert [len({id(trace) for trace in result.raw.per_connection_traces})
                for result in loaded] == [1, 1, 1, 1, len(loaded[4].raw.per_connection_traces)]
        # A trace on another clock than the aggregate's makes the line corrupt.
        data = json.loads(v1_lines()[4])
        trace = data["raw"]["per_connection_traces"][1]
        trace["samples"] = [[t + 1.0, b] for t, b in trace["samples"]]
        assert records.verify_line(canonical_json(data)) == ["corrupt"]

    @pytest.mark.parametrize("sample", [[100.0], [100.0, 5, 6], 7],
                             ids=["one-value", "three-values", "number"])
    def test_a_v1_sample_that_is_not_a_pair_makes_a_line_corrupt(self, tmp_path, sample):
        data = json.loads(v1_lines()[1])
        data["raw"]["per_connection_traces"][1]["samples"][3] = sample
        line = canonical_json(data)
        assert records.verify_line(line) == ["corrupt"]
        path = tmp_path / "results.jsonl"
        path.write_text(line + "\n" + v1_lines()[0] + "\n")
        assert [result.to_json(records.SCHEMA_V1) for result in ResultStore(path).load()] == \
            [v1_lines()[0]]

    @pytest.mark.parametrize("sharing", ["same", "distinct", "equal", "mixed"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_v1_line_decodes_to_a_record_that_encodes_like_the_original(self, sharing, data):
        result = data.draw(drawn_results(sharing))
        line = result.to_json(records.SCHEMA_V1)
        loaded = MeasurementResult.from_json(line)
        assert loaded.to_json(records.SCHEMA_V1) == line
        assert loaded.to_json() == result.to_json()

    def test_v1_lines_followed_by_v2_appends_load_in_order(self, tmp_path):
        path = tmp_path / "results.jsonl"
        shutil.copyfile(V1_STORE, path)
        store = ResultStore(path)
        appended = [simulated_result(4), measured_result(), simulated_result(1, "upload")]
        for result in appended:
            store.append(result)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        versions = [json.loads(line)["schema_version"] for line in lines]
        assert versions == [1] * 5 + [2] * 3
        loaded = store.load()
        assert [result.to_json(version) for result, version in zip(loaded, versions)] == lines
        for result, fresh in zip(loaded[5:], appended):
            stored_fields_equal(result, fresh)
        # The v1 records re-encode as v2 lines that load to the same records.
        for result in loaded[:5]:
            stored_fields_equal(MeasurementResult.from_json(result.to_json()), result)


@pytest.mark.parametrize("raw", [
    lambda: records.simulate_raw(simulated_result(4).spec, simulated_result(4).raw.model),
    lambda: MeasurementResult.from_json(simulated_result(4).to_json()).raw,
    lambda: MeasurementResult.from_json(measured_result().to_json()).raw,
    lambda: MeasurementResult.from_json(v1_lines()[1]).raw,
    lambda: MeasurementResult.from_json(v1_lines()[4]).raw,
], ids=["simulate_raw", "v2-simulated", "v2-measured", "v1-simulated", "v1-measured"])
def test_a_records_traces_hold_one_plain_tuple_time_column(raw):
    raw = raw()
    times = raw.aggregate_trace.times
    assert type(times) is tuple and all(type(t) is float for t in times)
    assert all(trace.times is times for trace in raw.per_connection_traces)


def every_kind_store(path) -> list[str]:
    """A store of v1 lines and v2 appends of every record kind; returns its lines."""
    shutil.copyfile(V1_STORE, path)
    store = ResultStore(path)
    for result in (simulated_result(1), simulated_result(4, "upload"),
                   simulated_result(16, link=10e9, rtt=2.0, duration=10.0),
                   measured_result(),
                   # Its traces are simulated, which every writer flags.
                   clean_result(flags=frozenset({"cross_traffic_detected", "simulated"}))):
        store.append(result)
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def rewrite_line(path, lines, index, edit):
    """Write ``lines`` back to ``path`` with line ``index`` edited by hand."""
    data = json.loads(lines[index])
    edit(data)
    lines = lines[:index] + [canonical_json(data)] + lines[index + 1:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TestVerify:
    def test_passes_on_every_record_kind(self, tmp_path):
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)
        assert records.verify_store(path) == (len(lines), 0, Counter())

    def test_passes_on_the_v1_fixture(self):
        assert records.verify_store(V1_STORE) == (5, 0, Counter())

    @pytest.mark.parametrize("index", [1, 6, 8], ids=["v1", "v2-simulated", "v2-measured"])
    def test_fails_on_a_report_edited_by_hand(self, tmp_path, index):
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)

        def edit(data):
            report = data["report"]
            axis = "download_bps" if report["download_bps"] is not None else "upload_bps"
            report[axis] *= 1.01

        rewrite_line(path, lines, index, edit)
        assert records.verify_store(path) == (len(lines), 1, Counter(report=1))

    @pytest.mark.parametrize("key,value", [
        ("capacity", 100e6), ("loss_rate", 0.0), ("rtt", 2.5), ("initial_cwnd", 4.0),
        ("revision", 2), ("cc", "cubic"), ("mss", -1),
    ])
    def test_fails_on_a_model_input_edited_by_hand(self, tmp_path, key, value):
        # The lossy 10 Gbit/s record, whose trace every one of its inputs
        # shapes (a 2 s, 200 Mbit/s test drops nothing at p = 1e-4, so its
        # trace does not depend on its loss rate).
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)
        rewrite_line(path, lines, 7, lambda data: data["raw"]["model"].update({key: value}))
        assert records.verify_store(path) == (len(lines), 1, Counter(model=1))

    @pytest.mark.parametrize("index", [1, 6, 8], ids=["v1", "v2-simulated", "v2-measured"])
    @pytest.mark.parametrize("edit", [
        lambda data: data["alternate_estimates"].update(
            peak=data["alternate_estimates"]["peak"] * 1.01),
        lambda data: data["methodology"].update(
            n_connections=data["methodology"]["n_connections"] + 1),
    ], ids=["alternate-estimate", "methodology"])
    def test_fails_on_a_derived_field_edited_by_hand(self, tmp_path, index, edit):
        # Every alternate estimate and the methodology are derived again from
        # the stored method, spec and aggregate trace, like the report.
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)
        rewrite_line(path, lines, index, edit)
        assert records.verify_store(path) == (len(lines), 1, Counter(report=1))

    def test_fails_on_a_per_connection_column_edited_by_hand(self, tmp_path):
        # The 4-connection simulated record: its per-connection column is the
        # aggregate's split four ways, stored once, apart from the aggregate.
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)

        def edit(data):
            table = data["raw"]["trace"]
            column = table["per_connection"][0]
            assert column != table["aggregate"]
            table["columns"][column] = [b * 1.01 for b in table["columns"][column]]

        rewrite_line(path, lines, 6, edit)
        assert records.verify_store(path) == (len(lines), 1, Counter(model=1))

    @pytest.mark.parametrize("index", [4, 8], ids=["v1", "v2"])
    def test_fails_on_a_measured_per_connection_count_edited_by_hand(self, tmp_path, index):
        # A measured aggregate is the int sum of its per-connection columns.
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)

        def edit(data):
            raw = data["raw"]
            if "trace" in raw:
                raw["trace"]["columns"][raw["trace"]["per_connection"][1]][5] += 1
            else:
                raw["per_connection_traces"][1]["samples"][5][1] += 1

        rewrite_line(path, lines, index, edit)
        assert records.verify_store(path) == (len(lines), 1, Counter(derived=1))

    @pytest.mark.parametrize("line,failed", [
        (lambda: v1_lines()[4], ["derived"]),
        (lambda: simulated_result(4).to_json(), ["derived", "model"]),
    ], ids=["v1-measured", "v2-simulated"])
    @pytest.mark.parametrize("edit", [
        lambda raw: raw.update(flags=sorted(set(raw["flags"]) ^ {"below_recommended_connections"})),
        lambda raw: raw.update(flags=sorted(set(raw["flags"]) ^ {"cross_traffic_unknown"})),
        lambda raw: raw.update(cross_traffic_bps=None),
    ], ids=["connection-flag-flipped", "unknown-flag-flipped", "cross-traffic-dropped"])
    def test_fails_on_a_flag_its_raw_fields_contradict(self, line, failed, edit):
        # below_recommended_connections follows from the connection count, and
        # cross_traffic_unknown is set exactly when cross_traffic_bps is null.
        data = json.loads(line())
        edit(data["raw"])
        if "flags" in data:  # v1 stores the flags a second time, at the top level
            data["flags"] = data["raw"]["flags"]
        assert records.verify_line(canonical_json(data)) == failed

    @pytest.mark.parametrize("line,failed", [
        (lambda: v1_lines()[4], ["derived"]),
        (lambda: measured_result().to_json(), ["derived"]),
        (lambda: simulated_result(4).to_json(), ["derived", "model"]),
    ], ids=["v1-measured", "v2-measured", "v2-simulated"])
    def test_fails_on_a_sample_interval_edited_by_hand(self, line, failed):
        # No estimator reads the interval; the spec's says what it must be.
        # A v1 line stores it in every trace, which must share one clock.
        data = json.loads(line())
        raw = data["raw"]
        tables = ([raw["trace"]] if "trace" in raw
                  else [raw["aggregate_trace"], *raw["per_connection_traces"]])
        for table in tables:
            table["sample_interval"] = 50.0
        assert records.verify_line(canonical_json(data)) == failed

    @pytest.mark.parametrize("line,failed", [
        (lambda: measured_result().to_json(), ["derived"]),
        (lambda: simulated_result(4).to_json(), ["report", "derived", "model"]),
    ], ids=["v2-measured", "v2-simulated"])
    def test_fails_on_a_sample_time_off_its_multiple_of_the_interval(self, line, failed):
        # The measured line's report and alternate estimates do not move.
        data = json.loads(line())
        data["raw"]["trace"]["times"][3] += 0.5
        assert records.verify_line(canonical_json(data)) == failed

    def test_passes_on_a_measured_line_sampled_past_its_duration(self):
        # Engines before sample_times rounded duration / interval, so a 1.95 s
        # test sampled every 100 ms stored its last sample at 2000 ms.
        assert records.verify_line(measured_result(duration=1.95).to_json()) == []

    def test_fails_on_probe_rtts_edited_with_their_report(self, tmp_path):
        # The report's latency is recomputed from the probe RTTs, so both are
        # edited; a simulated record's probes see the model's base RTT.
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)

        def edit(data):
            latency = data["raw"]["latency"]
            latency["rtts"] = [25.0] * len(latency["rtts"])
            data["report"]["latency_ms"] = 25.0

        rewrite_line(path, lines, 5, edit)
        assert records.verify_store(path) == (len(lines), 1, Counter(model=1))

    @pytest.mark.parametrize("flags,failed", [
        (["below_recommended_connections", "cross_traffic_detected", "simulated"],
         Counter(model=1)),
        # A simulated trace is flagged simulated, model inputs or none.
        (["below_recommended_connections"], Counter(derived=1, model=1)),
    ], ids=["added", "removed"])
    def test_fails_on_simulated_flags_edited_by_hand(self, tmp_path, flags, failed):
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)
        assert json.loads(lines[5])["raw"]["flags"] == ["below_recommended_connections",
                                                         "simulated"]
        rewrite_line(path, lines, 5, lambda data: data["raw"].update(flags=flags))
        assert records.verify_store(path) == (len(lines), 1, failed)

    @pytest.mark.parametrize("line", [lambda: v1_lines()[4], lambda: measured_result().to_json()],
                             ids=["v1-measured", "v2-measured"])
    @pytest.mark.parametrize("flag", ["simulated", "made_up"])
    def test_fails_on_a_flag_no_engine_sets_on_a_measured_line(self, line, flag):
        data = json.loads(line())
        data["raw"]["flags"] = sorted(data["raw"]["flags"] + [flag])
        if "flags" in data:  # v1 stores the flags a second time, at the top level
            data["flags"] = data["raw"]["flags"]
        assert records.verify_line(canonical_json(data)) == ["derived"]

    @pytest.mark.parametrize("line,failed", [
        (lambda: v1_lines()[4], []),
        (lambda: measured_result().to_json(), ["derived"]),
    ], ids=["v1-measured", "v2-measured"])
    def test_server_load_flag_passes_on_a_v1_measured_line_only(self, line, failed):
        # The engines that wrote v1 set it on every measured record.
        data = json.loads(line())
        data["raw"]["flags"] = sorted(data["raw"]["flags"] + [engine_mod.FLAG_SERVER_LOAD])
        if "flags" in data:
            data["flags"] = data["raw"]["flags"]
        assert records.verify_line(canonical_json(data)) == failed

    def test_counts_lines_that_do_not_load_or_re_encode(self, tmp_path):
        path = tmp_path / "results.jsonl"
        lines = every_kind_store(path)
        spaced = json.dumps(json.loads(lines[7]))  # the default separators add spaces
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:7] + [spaced, "{not json", ""] + lines[8:]) + "\n")
        assert records.verify_store(path) == (len(lines) + 1, 2,
                                              Counter(round_trip=1, corrupt=1))


STORE_WRITERS = 3
STORE_APPENDS = 100


def writer_result(writer):
    """A measured 16-connection record (about 35 KB a line) that only ``writer`` appends.

    Each connection's trace is distinct, so the line is many times the 4 KB
    in which an unlocked writer could be split.
    """
    rng = random.Random(writer)
    per_connection = tuple(dataclasses.replace(random_trace(rng, 200, 50.0), source=MEASURED)
                           for _ in range(16))
    aggregate = ThroughputTrace(sample_interval=50.0, source=MEASURED, samples=tuple(
        (t, sum(trace.samples[k][1] for trace in per_connection))
        for k, (t, _) in enumerate(per_connection[0].samples)))
    raw = RawTestRecord(
        spec=engine_mod.TestSpec(target="h.example.net:7777", duration=10.0,
                                 n_connections=16, sample_interval=50.0, nonce=bytes(16)),
        per_connection_traces=per_connection,
        aggregate_trace=aggregate,
        latency=LatencyStats(rtts=(12.5, 13.0), sent=2, received=2),
        cross_traffic_bps=0.0,
        flags=frozenset(),
    )
    return make_result(raw, EstimationMethod(), records.ORIGIN_USER,
                       timestamp=f"2026-01-02T03:04:{writer:02d}+00:00")


def append_repeatedly(path, writer, start):
    """Worker process: wait for the other writers, then append one record many times."""
    result = writer_result(writer)
    store = ResultStore(path)
    start.wait(timeout=60)
    for _ in range(STORE_APPENDS):
        store.append(result)


class TestResultStore:
    def test_append_then_load(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        rng = random.Random(6)
        written = [random_result(rng) for _ in range(5)]
        for result in written:
            store.append(result)
        assert store.load() == written

    def test_loaded_simulated_record_holds_one_per_connection_trace(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(simulated_result(4))
        with open(store.path, encoding="utf-8") as fh:
            line = fh.read().rstrip("\n")
        [loaded] = store.load()
        assert len(loaded.raw.per_connection_traces) == 4
        assert len({id(trace) for trace in loaded.raw.per_connection_traces}) == 1
        assert loaded.to_json() == line

    def test_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == []

    def test_corrupt_trailing_line_skipped(self, tmp_path, caplog):
        store = ResultStore(tmp_path / "results.jsonl")
        good = clean_result()
        store.append(good)
        with open(store.path, "a") as fh:
            fh.write('{"schema_version":1,"trunc')  # torn write, no newline
        with caplog.at_level(logging.WARNING):
            loaded = store.load()
        assert loaded == [good]
        assert any("skipped" in r.message for r in caplog.records)

    def test_corrupt_middle_line_does_not_hide_later_records(self, tmp_path):
        rng = random.Random(7)
        first, second = random_result(rng), random_result(rng)
        # Not JSON, then valid JSON lines that are not objects.
        for n, line in enumerate(["not json at all", "[1]", "null", "42", '"x"']):
            store = ResultStore(tmp_path / f"results-{n}.jsonl")
            store.append(first)
            with open(store.path, "a") as fh:
                fh.write(line + "\n")
            store.append(second)
            assert store.load() == [first, second], line

    def test_newer_schema_record_rejected_not_fatal(self, tmp_path, caplog):
        store = ResultStore(tmp_path / "results.jsonl")
        good = clean_result()
        store.append(good)
        future = json.loads(good.to_json())
        future["schema_version"] = 99
        with open(store.path, "a") as fh:
            fh.write(json.dumps(future) + "\n")
        with caplog.at_level(logging.WARNING):
            loaded = store.load()
        assert loaded == [good]
        assert any("rejected" in r.message for r in caplog.records)

    def test_non_finite_numbers_make_a_line_corrupt(self, tmp_path, caplog):
        # json.loads reads NaN and Infinity; canonical_json never writes them.
        store = ResultStore(tmp_path / "results.jsonl")
        good = clean_result()
        store.append(good)
        for value in (math.nan, math.inf):
            data = json.loads(good.to_json())
            data["raw"]["trace"]["columns"][0][1] = value
            with open(store.path, "a") as fh:
                fh.write(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
        with caplog.at_level(logging.WARNING):
            loaded = store.load()
        assert loaded == [good]
        assert sum("skipped" in r.message for r in caplog.records) == 2

    def test_blank_lines_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        good = clean_result()
        store.append(good)
        with open(store.path, "a") as fh:
            fh.write("\n\n")
        store.append(good)
        assert len(store.load()) == 2

    def test_concurrent_appends_all_land(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        result = clean_result()
        threads = [threading.Thread(target=lambda: store.append(result))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store.load()) == 8

    def test_concurrent_appends_from_processes_never_interleave(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(STORE_WRITERS)
        workers = [ctx.Process(target=append_repeatedly, args=(str(path), writer, start))
                   for writer in range(STORE_WRITERS)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            if worker.is_alive():
                worker.kill()
        assert [worker.exitcode for worker in workers] == [0] * STORE_WRITERS
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        assert lines.pop() == ""
        expected = [writer_result(writer).to_json() for writer in range(STORE_WRITERS)]
        assert sorted(lines) == sorted(expected * STORE_APPENDS)
        loaded = ResultStore(path).load()
        assert [result.to_json() for result in loaded] == lines

    def test_creates_parent_directory(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "results.jsonl")
        store.append(clean_result())
        assert len(store.load()) == 1


class TestAggregation:
    def test_percentile_interpolation(self):
        values = [float(v) for v in range(1, 101)]
        assert records._percentile(values, 0.05) == pytest.approx(5.95)
        assert records._percentile(values, 0.95) == pytest.approx(95.05)
        assert records._percentile([42.0], 0.95) == 42.0

    def test_population_partition(self):
        rng = random.Random(8)
        results = [clean_result(rng) for _ in range(8)]
        results += [clean_result(rng, flags=frozenset({"cross_traffic_detected"}))
                    for _ in range(2)]
        block = aggregate_results(results, "user")
        assert block.population == 10
        assert block.included == 8
        assert block.exclusions == {"cross_traffic_detected": 2}
        assert block.metrics["download_bps"]["count"] == 8

    def test_double_flagged_result_counted_once(self):
        rng = random.Random(9)
        both = clean_result(rng, flags=frozenset({"cross_traffic_detected",
                                                  "degenerate_trace"}))
        block = aggregate_results([both, clean_result(rng)], "user")
        assert block.population == 2
        assert block.included + sum(block.exclusions.values()) == 2

    def test_identical_results_collapse_statistics(self):
        result = clean_result()
        block = aggregate_results([result] * 5, "user")
        summary = block.metrics["download_bps"]
        value = result.report.download_bps
        assert summary["median"] == summary["mean"] == value
        assert summary["p5"] == summary["p95"] == value

    # statistics.fmean misses all but the last by an ulp or more: 5 copies of
    # 985933306.6666665 average to 985933306.6666664, 3 of 0.1 to
    # 0.10000000000000002.
    @pytest.mark.parametrize("value, n", [
        (985933306.6666665, 5), (985933306.6666665, 7), (0.1, 3),
        (1 / 3, 100), (123456789.12345679, 19), (1e-300, 100), (64.89, 2),
    ])
    def test_mean_of_identical_values_is_exactly_the_value(self, value, n):
        summary = records._summarize([value] * n)
        assert summary["mean"] == summary["median"] == value

    def test_quality_metrics_cover_flagged_results(self):
        # Cross traffic taints the throughput number, not the echo probes.
        rng = random.Random(10)
        flagged = clean_result(rng, flags=frozenset({"cross_traffic_detected"}))
        block = aggregate_results([flagged], "user")
        assert block.included == 0
        assert block.metrics["download_bps"] is None
        assert block.metrics["latency_ms"]["count"] == 1

    def test_origins_never_pooled(self):
        rng = random.Random(11)
        results = [clean_result(rng, origin="scheduled") for _ in range(3)]
        results += [clean_result(rng, origin="user") for _ in range(2)]
        blocks = report_blocks(results)
        assert [(b.origin, b.methodology["trace_sources"], b.population) for b in blocks] == [
            ("scheduled", ["measured"], 2), ("scheduled", ["simulated"], 1),
            ("user", ["simulated"], 2)]

    def test_single_origin_yields_single_block(self):
        blocks = report_blocks([clean_result()])
        assert [b.origin for b in blocks] == ["user"]

    def test_origin_without_results_aggregates_to_empty_block(self):
        block = aggregate_results([clean_result(origin="user")], "scheduled")
        assert (block.population, block.included, block.exclusions) == (0, 0, {})
        assert all(summary is None for summary in block.metrics.values())
        assert block.methodology == {"headline": [], "methods": [], "trace_sources": [],
                                     "exclusion_flags": list(records.EXCLUSION_FLAGS)}

    def test_empty_results_yield_no_blocks(self):
        assert report_blocks([]) == []

    def test_upload_results_summarized_on_upload_axis(self):
        result = clean_result(direction="upload")
        block = aggregate_results([result], "user")
        assert block.metrics["upload_bps"]["count"] == 1
        assert block.metrics["download_bps"] is None

    def test_aggregate_requires_method_disclosure(self):
        with pytest.raises(ValueError):
            AggregateReport(origin="user", population=0, included=0,
                            exclusions={}, metrics={}, methodology={})

    def test_partition_arithmetic_enforced(self):
        with pytest.raises(ValueError):
            AggregateReport(origin="user", population=3, included=1,
                            exclusions={"degenerate_trace": 1},
                            metrics={}, methodology={"headline": []})

    def test_method_disclosure_lists_methods_in_use(self):
        rng = random.Random(12)
        results = [clean_result(rng, method=EstimationMethod(kind="peak")),
                   clean_result(rng, method=EstimationMethod(kind="steady_state"))]
        block = aggregate_results(results, "user")
        kinds = {m["kind"] for m in block.methodology["methods"]}
        assert kinds == {"peak", "steady_state"}


REGISTRY_SAVES = 200


def save_registry_repeatedly(path, servers, start):
    """Worker process: wait for the other writer, then save the registry many times."""
    registry = records.Registry(servers)
    start.wait(timeout=60)
    for _ in range(REGISTRY_SAVES):
        save_registry(path, registry)


class TestRegistryPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "servers.jsonl"
        original = [
            ServerDescriptor(id="a", host="a.example.net", port=7777,
                             declared_location="newark-nj", network="AS1",
                             capacity_hint=1e9, health=("ok", "unreachable")),
            ServerDescriptor(id="b", host="b.example.net", port=7778, removed=True),
        ]
        registry = records.Registry(original)
        save_registry(path, registry)
        loaded = load_registry(path)
        assert sorted(loaded, key=lambda s: s.id) == original

    def test_missing_file_is_empty_registry(self, tmp_path):
        assert len(load_registry(tmp_path / "absent.jsonl")) == 0

    def test_corrupt_line_skipped(self, tmp_path, caplog):
        path = tmp_path / "servers.jsonl"
        save_registry(path, records.Registry([ServerDescriptor(id="a", host="h", port=1)]))
        with open(path, "a") as fh:
            fh.write("{broken\n")
        with caplog.at_level(logging.WARNING):
            loaded = load_registry(path)
        assert len(loaded) == 1

    def test_line_with_empty_host_skipped(self, tmp_path, caplog):
        path = tmp_path / "servers.jsonl"
        save_registry(path, records.Registry([ServerDescriptor(id="a", host="h", port=1)]))
        with open(path, "a") as fh:
            fh.write(canonical_json({**ServerDescriptor(id="b", host="h", port=2).to_dict(),
                                     "host": ""}) + "\n")
        with caplog.at_level(logging.WARNING):
            loaded = load_registry(path)
        assert [s.id for s in loaded] == ["a"]
        assert "corrupt server record" in caplog.text

    def test_line_with_non_finite_number_skipped(self, tmp_path, caplog):
        path = tmp_path / "servers.jsonl"
        save_registry(path, records.Registry([ServerDescriptor(id="a", host="h", port=1)]))
        with open(path, "a") as fh:
            fh.write(json.dumps({**ServerDescriptor(id="b", host="h", port=2).to_dict(),
                                 "capacity_hint": math.inf}) + "\n")
        with caplog.at_level(logging.WARNING):
            loaded = load_registry(path)
        assert [s.id for s in loaded] == ["a"]
        assert "corrupt server record" in caplog.text

    def test_save_overwrites_atomically(self, tmp_path):
        path = tmp_path / "servers.jsonl"
        save_registry(path, records.Registry([ServerDescriptor(id="a", host="h", port=1)]))
        save_registry(path, records.Registry([ServerDescriptor(id="b", host="h", port=2)]))
        loaded = load_registry(path)
        assert [s.id for s in loaded] == ["b"]

    def test_update_saves_only_a_block_that_ends_without_an_error(self, tmp_path, open_fds):
        path = tmp_path / "new" / "servers.jsonl"
        before = open_fds()
        with records.updating_registry(path) as registry:
            registry.add(ServerDescriptor(id="a", host="h", port=1))
        with pytest.raises(KeyError):
            with records.updating_registry(path) as registry:
                registry.add(ServerDescriptor(id="b", host="h", port=2))
                registry.remove("ghost")
        assert open_fds() == before  # the lock's descriptor closed on both exits
        assert [s.id for s in load_registry(path)] == ["a"]
        assert sorted(os.listdir(path.parent)) == ["servers.jsonl", "servers.jsonl.lock"]

    def test_concurrent_saves_from_two_processes(self, tmp_path):
        path = tmp_path / "servers.jsonl"
        servers = [ServerDescriptor(id=f"s{i}", host=f"h{i}.example.net", port=7000 + i)
                   for i in range(20)]
        save_registry(path, records.Registry(servers))
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(2)
        workers = [ctx.Process(target=save_registry_repeatedly,
                               args=(str(path), servers, start))
                   for _ in range(2)]
        for worker in workers:
            worker.start()
        try:
            # Every read between and during the saves sees one whole file.
            while any(worker.is_alive() for worker in workers):
                assert list(load_registry(path)) == servers
        finally:
            for worker in workers:
                worker.join(timeout=60)
                if worker.is_alive():
                    worker.kill()
        assert [worker.exitcode for worker in workers] == [0, 0]
        assert os.listdir(tmp_path) == ["servers.jsonl"]
