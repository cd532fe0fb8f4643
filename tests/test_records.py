"""Record serialization fidelity, the append-only store, and aggregation."""

import dataclasses
import hashlib
import json
import logging
import math
import multiprocessing
import os
import random
import threading
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
    per_conn = tuple(random_trace(rng, n_intervals, interval) for _ in range(n_conn))
    # aggregate as the exact sum keeps the record internally consistent
    aggregate = ThroughputTrace(
        sample_interval=interval,
        samples=tuple(
            (per_conn[0].samples[k][0], sum(t.samples[k][1] for t in per_conn))
            for k in range(n_intervals + 1)
        ),
        source=MEASURED,
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
            warmup_excluded=rng.random() < 0.5,
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
        started_at_monotonic=rng.uniform(0, 1e6),
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


def simulated_result(n_connections, direction="download") -> MeasurementResult:
    """A ``run --simulate`` record with a fixed nonce and timestamp."""
    raw = cli.simulated_raw({"link": 200e6, "rtt": 20.0, "loss": 1e-4,
                             "connections": n_connections, "duration": 2.0}, direction)
    raw = dataclasses.replace(raw, spec=dataclasses.replace(raw.spec,
                                                            nonce=bytes(range(16))))
    return make_result(raw, EstimationMethod(), records.ORIGIN_USER,
                       timestamp="2026-01-02T03:04:05+00:00")


# Strings json must escape: a quote, a backslash, control and non-ASCII characters.
ESCAPED_TEXT = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "naïve ☃ 東京", "tab\tnew\nline\x01"]),
    st.text(max_size=12))


@st.composite
def drawn_traces(draw, interval):
    steps = draw(st.lists(st.one_of(st.integers(0, 10**7), st.floats(0.0, 1e7)),
                          min_size=1, max_size=6))
    samples = [(0.0, 0)]
    for k, step in enumerate(steps, start=1):
        samples.append((k * interval, samples[-1][1] + step))
    return ThroughputTrace(sample_interval=interval, samples=tuple(samples),
                           source=draw(st.sampled_from([MEASURED, SIMULATED])))


@st.composite
def per_connection_traces(draw, sharing, interval):
    n = draw(st.integers(1, 6))
    if sharing == "same":
        return (draw(drawn_traces(interval)),) * n
    if sharing == "distinct":
        return tuple(draw(drawn_traces(interval)) for _ in range(n))
    # dataclasses.replace with no changes gives an equal but distinct object.
    if sharing == "equal":
        first = draw(drawn_traces(interval))
        return (first,) + tuple(dataclasses.replace(first) for _ in range(n - 1))
    pool = draw(st.lists(drawn_traces(interval), min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                          min_size=n, max_size=n))
    return tuple(pool[i] if same else dataclasses.replace(pool[i]) for i, same in picks)


@st.composite
def drawn_results(draw, sharing):
    interval = draw(st.sampled_from([50.0, 100.0]))
    per_conn = draw(per_connection_traces(sharing, interval))
    aggregate = draw(st.one_of(st.just(per_conn[0]), drawn_traces(interval)))
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


@pytest.fixture
def trace_encodings(monkeypatch):
    """A list that grows by one for every trace converted for encoding."""
    calls = []
    to_dict = records.trace_to_dict

    def counting(trace):
        calls.append(None)
        return to_dict(trace)

    monkeypatch.setattr(records, "trace_to_dict", counting)
    return calls


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestConverters:
    def test_trace_round_trip(self):
        trace = random_trace(random.Random(1))
        assert records.trace_from_dict(records.trace_to_dict(trace)) == trace

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
        result = clean_result()
        other = simulated_result(1, direction="upload").raw
        swapped = dataclasses.replace(result, raw=other)
        assert swapped.spec == other.spec
        assert swapped.flags == other.flags
        stored = json.loads(swapped.to_json())
        assert stored["spec"] == stored["raw"]["spec"] == other.spec.to_dict()
        assert stored["flags"] == stored["raw"]["flags"] == sorted(other.flags)

    @pytest.mark.parametrize("edit", [
        lambda data: data["spec"].update(direction="upload"),
        lambda data: data["spec"].update(n_connections=1),
        lambda data: data["flags"].append("degenerate_trace"),
        lambda data: data["raw"]["flags"].append("degenerate_trace"),
    ], ids=["spec-direction", "spec-connections", "top-level-flag", "raw-flag"])
    def test_line_whose_spec_or_flags_differ_from_raw_is_corrupt(self, tmp_path, edit):
        good = clean_result()
        data = json.loads(good.to_json())
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
        data["schema_version"] = 2
        with pytest.raises(UnknownSchemaError):
            MeasurementResult.from_dict(data)

    def test_writer_cannot_write_a_version_the_reader_refuses(self):
        result = clean_result()
        with pytest.raises(TypeError):
            dataclasses.replace(result, schema_version=2)
        assert result.schema_version == records.SCHEMA_VERSION
        assert json.loads(result.to_json())["schema_version"] == records.SCHEMA_VERSION

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
        assert result.to_json() == canonical_json(result.to_dict())

    def test_nan_in_a_repeated_trace_rejected(self):
        result = simulated_result(4)
        bad = ThroughputTrace(sample_interval=100.0, samples=((0.0, 0.0), (100.0, math.nan)))
        raw = dataclasses.replace(result.raw, per_connection_traces=(bad,) * 4)
        with pytest.raises(ValueError):
            dataclasses.replace(result, raw=raw).to_json()

    @pytest.mark.parametrize("n_connections", [1, 16])
    def test_encoding_cost_does_not_grow_with_connections(self, n_connections,
                                                          trace_encodings):
        # One repeated per-connection trace plus the aggregate.
        result = simulated_result(n_connections)
        trace_encodings.clear()
        result.to_json()
        assert len(trace_encodings) == 2

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
    # supported Python version.
    GOLDEN_SHA256 = {
        ("download", 1): "c29b7a271f6123961fb2c60bc28052202ad608c9d230567e57c0fbcea5638058",
        ("download", 4): "2480a523b545183f32a2b2e850d8e04763fc7eb8aa2eb573f0baf98f0f75992c",
        ("download", 16): "ce1da84b7d5695c199b8c76612f0cdf1586fc0ad265908cb6da41704367bc716",
        ("upload", 1): "7415a1db211097b724808179c107cc755844a5c4fc2549372d3172dd743717d2",
        ("upload", 4): "eaded0516ecaba9cd7ab7f74236621bfe26a1b039970e00a11f67e33174fc9c6",
        ("upload", 16): "221b76d8ce17a0de9bf1c4a08e482c86683d824cce63d4a4102462c416770789",
    }

    @pytest.mark.parametrize("direction,n_connections", sorted(GOLDEN_SHA256))
    def test_simulated_record_bytes_are_pinned(self, direction, n_connections):
        text = simulated_result(n_connections, direction).to_json()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == self.GOLDEN_SHA256[direction, n_connections]


class TestResultStore:
    def test_append_then_load(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        rng = random.Random(6)
        written = [random_result(rng) for _ in range(5)]
        for result in written:
            store.append(result)
        assert store.load() == written

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
        assert [(b.origin, b.population) for b in blocks] == [
            ("scheduled", 3), ("user", 2)]

    def test_single_origin_yields_single_block(self):
        blocks = report_blocks([clean_result()])
        assert [b.origin for b in blocks] == ["user"]

    def test_origin_without_results_aggregates_to_empty_block(self):
        block = aggregate_results([clean_result(origin="user")], "scheduled")
        assert (block.population, block.included, block.exclusions) == (0, 0, {})
        assert all(summary is None for summary in block.metrics.values())
        assert block.methodology == {"headline": [], "methods": [],
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

    def test_save_overwrites_atomically(self, tmp_path):
        path = tmp_path / "servers.jsonl"
        save_registry(path, records.Registry([ServerDescriptor(id="a", host="h", port=1)]))
        save_registry(path, records.Registry([ServerDescriptor(id="b", host="h", port=2)]))
        loaded = load_registry(path)
        assert [s.id for s in loaded] == ["b"]

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
