"""Command-line behavior: pipelines, exit codes, scheduling, registry wiring."""

import json
import logging
import socket
import time
from datetime import date, datetime, timedelta

import pytest

from linerate import cli, protocol, records, units
from linerate.coordinator import Schedule, generate_schedule
from linerate.engine import Engine
from linerate.records import MeasurementResult, ResultStore
from linerate.responder import Responder
from test_engine import MALFORMED_ANSWERS, BadAnswerServer, ClosingServer


@pytest.fixture
def paths(tmp_path):
    return {"store": str(tmp_path / "results.jsonl"),
            "registry": str(tmp_path / "servers.jsonl")}


def run_cli(paths, *argv) -> int:
    return cli.main(["--store", paths["store"], "--registry", paths["registry"],
                     *argv])


@pytest.fixture
def responder():
    server = Responder("127.0.0.1", 0).start()
    yield server
    server.stop()


def dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestSimulatedRun:
    def test_headline_tracks_simulated_link(self, paths):
        assert run_cli(paths, "run", "--simulate", "link=200mbps,rtt=20ms,loss=0") == 0
        stored = ResultStore(paths["store"]).load()
        assert len(stored) == 1
        assert stored[0].report.download_bps == pytest.approx(200e6, rel=0.05)
        assert stored[0].report.method.kind == "steady_state"
        assert stored[0].origin == "user"

    def test_few_connections_flagged(self, paths):
        run_cli(paths, "run", "--simulate", "link=100mbps", "--connections", "1")
        stored = ResultStore(paths["store"]).load()
        assert "below_recommended_connections" in stored[0].flags
        assert stored[0].spec.n_connections == 1

    def test_connections_inside_simulate_string_win(self, paths):
        run_cli(paths, "run", "--simulate", "link=100mbps,connections=2",
                "--connections", "6")
        stored = ResultStore(paths["store"]).load()
        assert stored[0].spec.n_connections == 2

    def test_machine_output_is_the_stored_record(self, paths, capsys):
        run_cli(paths, "run", "--simulate", "link=50mbps", "--format", "machine")
        printed = capsys.readouterr().out.strip()
        with open(paths["store"]) as fh:
            assert printed == fh.read().strip()
        # and it parses back as a first-class record
        assert MeasurementResult.from_json(printed).flags == frozenset({"simulated"})

    def test_upload_direction_fills_upload_axis(self, paths):
        run_cli(paths, "run", "--simulate", "link=80mbps", "--direction", "upload")
        stored = ResultStore(paths["store"]).load()
        assert stored[0].report.upload_bps is not None
        assert stored[0].report.download_bps is None

    def test_per_connection_traces_sum_to_aggregate(self, paths):
        run_cli(paths, "run", "--simulate", "link=100mbps", "--connections", "4")
        raw = ResultStore(paths["store"]).load()[0].raw
        assert len(raw.per_connection_traces) == 4
        for k, (t, total) in enumerate(raw.aggregate_trace.samples):
            split = sum(trace.samples[k][1] for trace in raw.per_connection_traces)
            assert split == pytest.approx(total)

    def test_simulated_latency_matches_link_rtt(self, paths):
        run_cli(paths, "run", "--simulate", "link=100mbps,rtt=35ms")
        stored = ResultStore(paths["store"]).load()
        assert stored[0].report.latency_ms == pytest.approx(35.0)
        assert stored[0].report.loss_rate == 0.0

    @pytest.mark.parametrize("bad", [
        "rtt=20ms",                 # no link
        "link=100mbps,loss=2",      # loss out of range
        "link=100mbps,warp=9",      # unknown key
        "link=100mbps,link=5mbps",  # duplicate key
        "link",                     # not key=value
        "link=nanmbps",             # NaN rate
        "link=100mbps,duration=inf",  # infinite time
        "link=100mbps,duration=2000",  # a bare duration: 2000 ms or 2000 s?
    ])
    def test_bad_simulate_strings_are_config_errors(self, paths, bad):
        assert run_cli(paths, "run", "--simulate", bad) == cli.EXIT_CONFIG

    def test_bare_simulated_duration_names_the_unit_it_needs(self):
        with pytest.raises(ValueError, match="duration= needs a unit, such as 10s"):
            cli.parse_simulate_spec("link=100mbps,duration=30")
        assert cli.parse_simulate_spec("link=100mbps,duration=30s")["duration"] == 30.0
        assert cli.parse_simulate_spec("link=100mbps,duration=1m")["duration"] == 60.0

    def test_infinite_duration_is_config_error(self, paths):
        assert run_cli(paths, "run", "--simulate", "link=100mbps",
                       "--duration", "inf") == cli.EXIT_CONFIG
        assert ResultStore(paths["store"]).load() == []

    def test_interval_sets_the_simulated_sample_interval(self, paths):
        assert run_cli(paths, "run", "--simulate", "link=100mbps", "--interval", "50",
                       "--duration", "2") == cli.EXIT_OK
        stored = ResultStore(paths["store"]).load()[0]
        assert stored.spec.sample_interval == 50.0
        assert stored.methodology["sample_interval_ms"] == 50.0
        assert stored.raw.aggregate_trace.sample_interval == 50.0
        assert len(stored.raw.aggregate_trace.samples) == 41
        assert records.verify_store(paths["store"])[:2] == (1, 0)

    @pytest.mark.parametrize("interval", ["0", "-5", "nan", "3000"])
    def test_interval_the_spec_refuses_is_config_error(self, paths, interval):
        assert run_cli(paths, "run", "--simulate", "link=100mbps", "--interval", interval,
                       "--duration", "2") == cli.EXIT_CONFIG
        assert ResultStore(paths["store"]).load() == []


class TestMeasuredRun:
    def test_direct_target(self, paths, responder, capsys):
        code = run_cli(paths, "run", "--server", "%s:%d" % responder.address,
                       "--duration", "1.5", "--connections", "2")
        assert code == 0
        stored = ResultStore(paths["store"]).load()
        assert len(stored) == 1
        assert stored[0].report.download_bps > 0
        assert len(stored[0].raw.per_connection_traces) == 2
        assert "stored" in capsys.readouterr().out

    def test_measured_run_costs_its_duration(self, paths, responder):
        # Probes and teardown fit in the second beyond the 1 s transfer: no
        # idle window waits before the test starts.
        started = time.monotonic()
        code = run_cli(paths, "run", "--server", "%s:%d" % responder.address,
                       "--duration", "1.0", "--connections", "2")
        assert code == 0
        assert time.monotonic() - started < 2.0

    def test_selection_pipeline_updates_health(self, paths, responder):
        host, port = responder.address
        run_cli(paths, "servers", "add", "local-1", f"{host}:{port}",
                "--location", "loopback")
        code = run_cli(paths, "run", "--location", "loopback",
                       "--duration", "1.0", "--connections", "2")
        assert code == 0
        stored = ResultStore(paths["store"]).load()
        assert stored[0].server.id == "local-1"
        assert stored[0].spec.target_id == "local-1"
        registry = records.load_registry(paths["registry"])
        assert registry.get("local-1").health == ("ok",)

    def test_no_servers_exit_code(self, paths):
        assert run_cli(paths, "run", "--location", "nowhere") == cli.EXIT_NO_SERVERS

    def test_unreachable_exit_code(self, paths):
        code = run_cli(paths, "run", "--server", f"127.0.0.1:{dead_port()}",
                       "--duration", "1.0")
        assert code == cli.EXIT_UNREACHABLE
        assert ResultStore(paths["store"]).load() == []

    def test_peer_that_closes_is_unreachable_exit_code(self, paths):
        # Every probe is lost, then the handshake fails on the closed connection.
        server = ClosingServer()
        try:
            code = run_cli(paths, "run", "--server", server.address, "--duration", "1.0")
        finally:
            server.close()
        assert code == cli.EXIT_UNREACHABLE
        assert ResultStore(paths["store"]).load() == []

    @pytest.mark.parametrize("argv", [("--duration", "5000000"), ("--connections", "70000")],
                             ids=["duration", "connections"])
    def test_spec_the_hello_cannot_carry_is_config_error(self, paths, argv):
        # Refused before any connection: the port is closed, so a run would exit 5.
        code = run_cli(paths, "run", "--server", f"127.0.0.1:{dead_port()}", *argv)
        assert code == cli.EXIT_CONFIG

    def test_port_out_of_range_is_config_error(self, paths, capsys):
        # Refused before any connection is tried, so nothing is stored.
        code = run_cli(paths, "run", "--server", "127.0.0.1:99999", "--duration", "1")
        assert code == cli.EXIT_CONFIG
        assert "host:port" in capsys.readouterr().err
        assert ResultStore(paths["store"]).load() == []

    def test_refused_exit_code(self, paths):
        full = Responder("127.0.0.1", 0, max_tests=1).start()
        parked = socket.create_connection(full.address)
        try:
            protocol.send_frame(parked, protocol.HELLO, b"q" * 16,
                                protocol.pack_hello("download", 30_000, 1))
            protocol.recv_frame(parked)
            code = run_cli(paths, "run", "--server", "%s:%d" % full.address,
                           "--duration", "1.0")
        finally:
            parked.close()
            full.stop()
        assert code == cli.EXIT_REFUSED

    @MALFORMED_ANSWERS
    def test_malformed_answer_is_refused_exit_code(self, paths, kind, payload):
        server = BadAnswerServer(kind, payload)
        try:
            code = run_cli(paths, "run", "--server", server.address, "--duration", "1.0")
        finally:
            server.close()
        assert code == cli.EXIT_REFUSED

    def test_all_candidates_dead_reports_reasons(self, paths, capsys):
        run_cli(paths, "servers", "add", "gone-1", f"127.0.0.1:{dead_port()}")
        code = run_cli(paths, "run", "--location", "")
        assert code == cli.EXIT_NO_SERVERS
        assert "gone-1" in capsys.readouterr().err
        registry = records.load_registry(paths["registry"])
        assert registry.get("gone-1").health == ()  # selection probes, run never starts


class TestEnvironmentOverrides:
    def test_store_and_registry_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LINERATE_STORE", str(tmp_path / "env-results.jsonl"))
        monkeypatch.setenv("LINERATE_REGISTRY", str(tmp_path / "env-servers.jsonl"))
        assert cli.main(["run", "--simulate", "link=10mbps"]) == 0
        assert len(ResultStore(tmp_path / "env-results.jsonl").load()) == 1

    def test_flags_beat_environment(self, tmp_path, monkeypatch, paths):
        monkeypatch.setenv("LINERATE_STORE", str(tmp_path / "env-results.jsonl"))
        assert run_cli(paths, "run", "--simulate", "link=10mbps") == 0
        assert len(ResultStore(paths["store"]).load()) == 1
        assert ResultStore(tmp_path / "env-results.jsonl").load() == []


class FakeClock:
    """Deterministic clock: sleeping advances it, nothing else does."""

    def __init__(self, start: datetime):
        self.now = start

    def __call__(self) -> datetime:
        return self.now

    def sleep(self, seconds: float):
        assert seconds >= 0
        self.now += timedelta(seconds=seconds)


class TestScheduling:
    def test_each_firing_runs(self):
        schedule = Schedule(tests_per_day=4, seed=21)
        clock = FakeClock(datetime(2026, 4, 1, 0, 0))
        fired_at = []
        fired, missed = cli.run_scheduled(schedule, 1, fired_at.append,
                                          now_fn=clock, sleep_fn=clock.sleep,
                                          start_day=date(2026, 4, 1))
        assert (fired, missed) == (4, 0)
        assert len(fired_at) == 4
        assert fired_at == sorted(fired_at)

    def test_multiple_days(self):
        schedule = Schedule(tests_per_day=3, seed=21)
        clock = FakeClock(datetime(2026, 4, 1, 0, 0))
        fired, missed = cli.run_scheduled(schedule, 2, lambda when: None,
                                          now_fn=clock, sleep_fn=clock.sleep,
                                          start_day=date(2026, 4, 1))
        assert (fired, missed) == (6, 0)

    def test_missed_firings_skipped_not_backfilled(self, caplog):
        # Wake up after the whole first day has passed: day one is lost,
        # day two still runs in full.
        schedule = Schedule(tests_per_day=4, seed=21)
        clock = FakeClock(datetime(2026, 4, 2, 0, 0))
        fired_at = []
        with caplog.at_level(logging.WARNING):
            fired, missed = cli.run_scheduled(schedule, 2, fired_at.append,
                                              now_fn=clock, sleep_fn=clock.sleep,
                                              start_day=date(2026, 4, 1))
        assert (fired, missed) == (4, 4)
        assert all(when.date() == date(2026, 4, 2) for when in fired_at)
        assert sum("not back-filled" in r.message for r in caplog.records) == 4

    def test_scheduled_results_append_with_scheduled_origin(self, paths):
        schedule = Schedule(tests_per_day=4, seed=21)
        store = ResultStore(paths["store"])
        settings = cli.parse_simulate_spec("link=50mbps")
        settings.setdefault("connections", 4)
        settings.setdefault("duration", 2.0)

        def fire(when):
            raw = cli.simulated_raw(settings, "download")
            store.append(records.make_result(
                raw, records.EstimationMethod(), records.ORIGIN_SCHEDULED))

        clock = FakeClock(datetime(2026, 4, 1, 0, 0))
        cli.run_scheduled(schedule, 1, fire, now_fn=clock, sleep_fn=clock.sleep,
                          start_day=date(2026, 4, 1))
        stored = store.load()
        assert len(stored) == 4
        assert all(r.origin == "scheduled" for r in stored)

    def test_schedule_command_fires_the_schedule_it_validated(self, paths, monkeypatch):
        # Eight 600 s tests a day: spaced for 10 s tests they would crowd
        # together and overrun the peak window.
        day = date(2026, 4, 1)
        clock = FakeClock(datetime(2026, 4, 1, 0, 0))
        fired_at = []
        real_run_scheduled = cli.run_scheduled

        def run_on_fake_clock(schedule, days, runner, **kwargs):
            def record(when):
                fired_at.append(when)
                runner(when)
            return real_run_scheduled(schedule, days, record, now_fn=clock,
                                      sleep_fn=clock.sleep, start_day=day, **kwargs)

        monkeypatch.setattr(cli, "run_scheduled", run_on_fake_clock)
        code = run_cli(paths, "schedule", "--tests-per-day", "8", "--duration", "600",
                       "--seed", "5", "--simulate", "link=100mbps")
        assert code == cli.EXIT_OK
        assert fired_at == generate_schedule(Schedule(tests_per_day=8, seed=5), day,
                                             test_duration_s=600)
        stored = ResultStore(paths["store"]).load()
        assert len(stored) == 8
        assert all(r.origin == "scheduled" for r in stored)

    def test_schedule_is_spaced_by_the_simulated_duration(self, paths, monkeypatch):
        started = []
        monkeypatch.setattr(cli, "run_scheduled",
                            lambda *args, **kwargs: started.append(kwargs) or (0, 0))
        code = run_cli(paths, "schedule", "--tests-per-day", "4",
                       "--simulate", "link=10mbps,duration=30s")
        assert code == cli.EXIT_OK
        assert [kwargs["test_duration_s"] for kwargs in started] == [30.0]

    def test_schedule_too_full_for_the_simulated_duration_refused_at_startup(
            self, paths, monkeypatch):
        # 200 tests of 600 s cannot fit a day at the required spacing; spaced
        # for the 10 s --duration default they would.
        started = []
        monkeypatch.setattr(cli, "run_scheduled",
                            lambda *args, **kwargs: started.append(args) or (0, 0))
        code = run_cli(paths, "schedule", "--tests-per-day", "200",
                       "--simulate", "link=10mbps,duration=600s")
        assert code == cli.EXIT_CONFIG
        assert started == []

    def test_infeasible_schedule_refused_at_startup(self, paths):
        code = run_cli(paths, "schedule", "--tests-per-day", "1000",
                       "--simulate", "link=10mbps")
        assert code == cli.EXIT_CONFIG
        assert ResultStore(paths["store"]).load() == []

    @pytest.mark.parametrize("argv", [
        ["--simulate", "link=10mbps", "--interval", "0"],
        ["--simulate", "link=10mbps,duration=50ms"],
        ["--simulate", "link=10mbps,connections=0"],
        ["--interval", "nan"],
        ["--connections", "70000"],
        ["--direction", "download", "--interval", "20000"],
    ], ids=["simulated-interval", "simulated-duration", "simulated-connections",
            "measured-interval", "measured-connections", "measured-interval-past-duration"])
    def test_spec_every_firing_would_refuse_is_refused_at_startup(self, paths, monkeypatch,
                                                                   argv):
        # The server is chosen at each firing, so the registry is empty here:
        # only the spec's own values are checked at startup.
        started = []
        monkeypatch.setattr(cli, "run_scheduled",
                            lambda *args, **kwargs: started.append(args) or (0, 0))
        code = run_cli(paths, "schedule", "--tests-per-day", "4", *argv)
        assert code == cli.EXIT_CONFIG
        assert started == []

    def test_bad_peak_window_is_config_error(self, paths, monkeypatch):
        started = []
        monkeypatch.setattr(cli, "run_scheduled",
                            lambda *args, **kwargs: started.append(args) or (0, 0))
        for window in ("19:00", "19:75-23:00", "19:00-24:30"):
            code = run_cli(paths, "schedule", "--tests-per-day", "4",
                           "--peak-window", window, "--simulate", "link=10mbps")
            assert code == cli.EXIT_CONFIG == 2, window
        assert started == []


class TestReportCommand:
    def seed_store(self, paths, n_clean=3, n_flagged=0, origin="user"):
        store = ResultStore(paths["store"])
        settings = {"link": 50e6, "rtt": 20.0, "loss": 0.0,
                    "connections": 4, "duration": 2.0}
        for i in range(n_clean + n_flagged):
            raw = cli.simulated_raw(settings, "download")
            if i < n_flagged:
                raw = records.RawTestRecord(
                    spec=raw.spec, per_connection_traces=raw.per_connection_traces,
                    aggregate_trace=raw.aggregate_trace, latency=raw.latency,
                    cross_traffic_bps=1e8,
                    flags=raw.flags | {"cross_traffic_detected"})
            store.append(records.make_result(raw, records.EstimationMethod(), origin))

    def test_empty_store_is_not_an_error(self, paths, capsys):
        assert run_cli(paths, "report") == 0
        assert "empty" in capsys.readouterr().out

    def test_exclusion_partition(self, paths, capsys):
        self.seed_store(paths, n_clean=8, n_flagged=2)
        assert run_cli(paths, "report", "--format", "machine") == 0
        blocks = json.loads(capsys.readouterr().out)
        assert len(blocks) == 1
        assert blocks[0]["population"] == 10
        assert blocks[0]["included"] == 8
        assert blocks[0]["exclusions"] == {"cross_traffic_detected": 2}
        assert blocks[0]["metrics"]["download_bps"]["count"] == 8

    def test_origins_reported_separately(self, paths, capsys):
        self.seed_store(paths, n_clean=3, origin="scheduled")
        self.seed_store(paths, n_clean=2, origin="user")
        assert run_cli(paths, "report", "--format", "machine") == 0
        blocks = json.loads(capsys.readouterr().out)
        assert [(b["origin"], b["population"]) for b in blocks] == [
            ("scheduled", 3), ("user", 2)]

    def test_simulated_and_measured_results_are_separate_blocks(self, paths, responder, capsys):
        # One simulated and one measured download, both on demand: pooled,
        # model output and a loopback measurement would read as one population.
        self.seed_store(paths, n_clean=1)
        assert run_cli(paths, "run", "--server", "%s:%d" % responder.address,
                       "--duration", "1") == cli.EXIT_OK
        capsys.readouterr()
        assert run_cli(paths, "report", "--format", "machine") == 0
        blocks = json.loads(capsys.readouterr().out)
        assert [(b["origin"], b["population"]) for b in blocks] == [("user", 1), ("user", 1)]
        assert [b["methodology"]["trace_sources"] for b in blocks] == [["measured"], ["simulated"]]
        assert run_cli(paths, "report") == 0
        headers = [line.split("   population")[0]
                   for line in capsys.readouterr().out.splitlines() if line.startswith("origin")]
        assert headers == ["origin: user   source: measured", "origin: user   source: simulated"]

    def test_human_format_discloses_method(self, paths, capsys):
        self.seed_store(paths, n_clean=2)
        assert run_cli(paths, "report") == 0
        out = capsys.readouterr().out
        assert "origin: user" in out
        assert "steady_state" in out
        assert "median" in out


class TestVerifyCommand:
    def run_two(self, paths):
        assert run_cli(paths, "run", "--simulate", "link=100mbps,loss=0.001",
                       "--duration", "2") == cli.EXIT_OK
        assert run_cli(paths, "run", "--simulate", "link=50mbps", "--connections", "1",
                       "--direction", "upload") == cli.EXIT_OK

    def test_stored_runs_verify(self, paths, capsys):
        self.run_two(paths)
        capsys.readouterr()
        assert run_cli(paths, "verify") == cli.EXIT_OK
        assert capsys.readouterr().out == (
            f"verified 2 record(s) in {paths['store']}: 2 ok, 0 failed\n")

    def test_store_given_after_the_subcommand(self, paths, tmp_path, capsys):
        self.run_two(paths)
        assert cli.main(["--store", str(tmp_path / "absent.jsonl"),
                         "verify", "--store", paths["store"]]) == cli.EXIT_OK

    def test_report_edited_by_hand_exits_with_the_verify_code(self, paths, capsys):
        self.run_two(paths)
        with open(paths["store"], encoding="utf-8") as fh:
            first, second = fh.read().splitlines()
        data = json.loads(first)
        data["report"]["download_bps"] += 1.0
        with open(paths["store"], "w", encoding="utf-8") as fh:
            fh.write(records.canonical_json(data) + "\n" + second + "\n")
        capsys.readouterr()
        assert run_cli(paths, "verify") == cli.EXIT_VERIFY_FAILED == 6
        assert capsys.readouterr().out.splitlines() == [
            f"verified 2 record(s) in {paths['store']}: 1 ok, 1 failed", "  report: 1"]

    def test_missing_store_is_config_error(self, paths, capsys):
        assert run_cli(paths, "verify") == cli.EXIT_CONFIG
        assert "no result store" in capsys.readouterr().err


class TestServersCommand:
    def test_add_list_remove(self, paths, capsys):
        assert run_cli(paths, "servers", "add", "a-1", "a.example.net:7777",
                       "--location", "newark-nj", "--capacity", "1gbps") == 0
        assert run_cli(paths, "servers", "list") == 0
        out = capsys.readouterr().out
        assert "a-1" in out and "newark-nj" in out
        assert run_cli(paths, "servers", "remove", "a-1") == 0
        run_cli(paths, "servers", "list")
        assert "registry is empty" in capsys.readouterr().out

    def test_duplicate_add_is_config_error(self, paths):
        run_cli(paths, "servers", "add", "a-1", "a.example.net:7777")
        assert run_cli(paths, "servers", "add", "a-1",
                       "a.example.net:7777") == cli.EXIT_CONFIG

    def test_empty_host_is_config_error(self, paths):
        assert run_cli(paths, "servers", "add", "x", ":7777") == cli.EXIT_CONFIG
        assert len(records.load_registry(paths["registry"])) == 0

    @pytest.mark.parametrize("target", ["127.0.0.1", "h:99999", "h:port"])
    def test_bad_address_is_config_error(self, paths, capsys, target):
        assert run_cli(paths, "servers", "add", "x", target) == cli.EXIT_CONFIG
        assert "host:port" in capsys.readouterr().err
        assert len(records.load_registry(paths["registry"])) == 0

    def test_remove_unknown_is_config_error(self, paths):
        assert run_cli(paths, "servers", "remove", "ghost") == cli.EXIT_CONFIG

    def test_probe_selects_and_persists_outcomes(self, paths, responder, capsys):
        host, port = responder.address
        run_cli(paths, "servers", "add", "live-1", f"{host}:{port}")
        run_cli(paths, "servers", "add", "dead-1", f"127.0.0.1:{dead_port()}")
        capsys.readouterr()
        assert run_cli(paths, "servers", "probe") == 0
        out = capsys.readouterr().out
        assert "live-1" in out and "<- selected" in out
        registry = records.load_registry(paths["registry"])
        assert registry.get("live-1").health == ("ok",)
        assert registry.get("dead-1").health == ("unreachable",)

    def test_probe_keeps_a_health_update_saved_while_it_probed(self, paths, responder,
                                                                 monkeypatch):
        host, port = responder.address
        run_cli(paths, "servers", "add", "a-live", f"{host}:{port}")
        run_cli(paths, "servers", "add", "b-other", f"127.0.0.1:{dead_port()}")
        probe = Engine.probe_latency

        def probe_while_a_run_records(self, *args, **kwargs):
            # Stands in for a `linerate run` in another process, which saves
            # its own server's outcome to the file while the probes go on.
            registry = records.load_registry(paths["registry"])
            registry.update_health("b-other", "underperformed")
            records.save_registry(paths["registry"], registry)
            return probe(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "probe_latency", probe_while_a_run_records)
        assert run_cli(paths, "servers", "probe", "--candidates", "1") == 0
        registry = records.load_registry(paths["registry"])
        assert registry.get("a-live").health == ("ok",)
        assert registry.get("b-other").health == ("underperformed",)


class TestSimulateCommand:
    @pytest.mark.parametrize("argv", [
        ("--link", "100mbps", "--duration", "inf"),
        ("--link", "nan"),
        ("--access", "1gbps", "--destinations", "100mbps,200mbps", "--duration", "inf"),
    ], ids=["link-duration-inf", "link-nan", "destinations-duration-inf"])
    def test_non_finite_numbers_are_config_errors(self, paths, argv):
        assert run_cli(paths, "simulate", *argv) == cli.EXIT_CONFIG

    def test_single_link_estimates(self, paths, capsys):
        assert run_cli(paths, "simulate", "--link", "200mbps",
                       "--format", "machine") == 0
        estimates = json.loads(capsys.readouterr().out)
        assert estimates["steady_state"] == pytest.approx(200e6, rel=0.05)
        assert set(estimates) == {"full_average", "steady_state", "trimmed",
                                  "median", "peak"}

    def test_multi_destination_output(self, paths, capsys):
        assert run_cli(paths, "simulate", "--access", "1gbps",
                       "--destinations", "400mbps,400mbps",
                       "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate"]["steady_state"] == pytest.approx(800e6, rel=0.05)
        assert len(payload["destinations"]) == 2

    def test_multi_destination_human_output_formats_the_machine_rates(self, paths, capsys):
        argv = ("simulate", "--access", "1gbps", "--destinations", "400mbps,300mbps,500mbps",
                "--duration", "2")
        assert run_cli(paths, *argv, "--format", "machine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert run_cli(paths, *argv) == 0
        rate = units.format_rate
        assert capsys.readouterr().out.splitlines() == [
            f"destination {i}: cap {rate(dest['capacity_bps'])} -> "
            f"{rate(dest['steady_state_bps'])}"
            for i, dest in enumerate(payload["destinations"])
        ] + [f"aggregate: {rate(payload['aggregate']['steady_state'])} "
             f"(access {rate(payload['access_bps'])})"]

    def test_simulate_without_model_flags_is_config_error(self, paths):
        assert run_cli(paths, "simulate") == cli.EXIT_CONFIG

    def test_destinations_without_access_is_config_error(self, paths):
        assert run_cli(paths, "simulate", "--destinations", "1mbps,2mbps") \
            == cli.EXIT_CONFIG

    def test_simulate_commands_do_not_touch_store(self, paths):
        run_cli(paths, "simulate", "--link", "100mbps")
        assert ResultStore(paths["store"]).load() == []
