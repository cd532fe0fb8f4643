"""Acceptance gate: the ten headline behaviors, one printed verdict per line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict; the
suite fails loudly on any miss.  Tolerances are stated inline next to each
check.
"""

import itertools
import random
import socket
import threading
import time
import zlib

import pytest

from linerate import engine as engine_mod
from linerate import coordinator, flowmodel, metrics, protocol
from linerate.coordinator import ServerDescriptor, apply_outcome, select_server
from linerate.engine import Engine
from linerate.flowmodel import LinkModel, simulate_transfer
from linerate.metrics import EstimationMethod, LatencyStats
from linerate.records import MeasurementResult, recompute_report
from linerate.responder import Responder

from test_records import random_result


def verdict(number: int, label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def estimate(trace, kind) -> float:
    return metrics.estimate_throughput(trace, EstimationMethod(kind=kind))


class TestAcceptance:
    def test_01_simulated_capacity_recovery(self):
        started = time.perf_counter()
        link = LinkModel(capacity=200e6, rtt=20.0, loss_rate=0.0)
        trace = simulate_transfer(link, 4, duration=10.0)
        steady = estimate(trace, "steady_state")
        full = estimate(trace, "full_average")
        elapsed = time.perf_counter() - started
        ok = (abs(steady - 200e6) <= 0.05 * 200e6 and full < steady
              and elapsed < 1.0)
        verdict(1, "steady_state recovers a 200 Mbps link within 5%", ok,
                f"steady {steady / 1e6:.2f} Mbps, full {full / 1e6:.2f} Mbps, "
                f"{elapsed:.2f}s")

    def test_02_single_connection_penalty(self):
        started = time.perf_counter()
        link = LinkModel(capacity=100e6, rtt=40.0, loss_rate=0.01)
        one = estimate(simulate_transfer(link, 1, duration=10.0), "steady_state")
        four = estimate(simulate_transfer(link, 4, duration=10.0), "steady_state")
        elapsed = time.perf_counter() - started
        ok = one < four and four >= 2 * one and elapsed < 1.0
        verdict(2, "four connections beat one by 2x or more under loss", ok,
                f"1-conn {one / 1e6:.2f} Mbps, 4-conn {four / 1e6:.2f} Mbps, "
                f"{elapsed:.2f}s")

    def test_03_short_test_bias(self):
        started = time.perf_counter()
        link = LinkModel(capacity=1e9, rtt=20.0, loss_rate=0.0)
        short = estimate(simulate_transfer(link, 4, duration=1.0), "full_average")
        long = estimate(simulate_transfer(link, 4, duration=20.0), "full_average")
        elapsed = time.perf_counter() - started
        ok = short <= 0.80 * long and elapsed < 1.0
        verdict(3, "a 1 s average reads at most 80% of a 20 s average", ok,
                f"1 s {short / 1e6:.1f} Mbps vs 20 s {long / 1e6:.1f} Mbps "
                f"({short / long:.2%}), {elapsed:.2f}s")

    def test_04_rtt_inverse_proportionality(self):
        fast = flowmodel.loss_limited_throughput(
            LinkModel(capacity=10e9, rtt=40.0, loss_rate=0.01))
        slow = flowmodel.loss_limited_throughput(
            LinkModel(capacity=10e9, rtt=80.0, loss_rate=0.01))
        ok = abs(slow - fast / 2) <= 0.10 * (fast / 2)
        verdict(4, "doubling RTT halves loss-limited throughput within 10%", ok,
                f"40 ms {fast / 1e6:.2f} Mbps, 80 ms {slow / 1e6:.2f} Mbps")

    def test_05_multi_destination_aggregation(self):
        _, agg2 = coordinator.simulate_destination_transfers(1e9, [400e6, 400e6])
        _, agg3 = coordinator.simulate_destination_transfers(1e9, [400e6] * 3)
        two = estimate(agg2, "steady_state")
        three = estimate(agg3, "steady_state")
        ok = (abs(two - 800e6) <= 0.05 * 800e6
              and abs(three - 1e9) <= 0.05 * 1e9)
        verdict(5, "two 400 Mbps paths sum to 800 Mbps, three hit the 1 Gbps access",
                ok, f"two {two / 1e6:.1f} Mbps, three {three / 1e6:.1f} Mbps")

    def test_06_estimator_exactness(self):
        rates_mbps = [10, 50, 90, 100, 100, 100]
        total = 0.0
        samples = [(0.0, 0.0)]
        for k, rate in enumerate(rates_mbps, start=1):
            total += rate * 1e6 * 0.1 / 8  # bytes added in one 100 ms interval
            samples.append((k * 100.0, total))
        trace = flowmodel.ThroughputTrace(sample_interval=100.0,
                                          samples=tuple(samples))
        got = {kind: estimate(trace, kind)
               for kind in ("full_average", "steady_state", "median", "peak")}
        want = {"full_average": 75e6, "steady_state": 97.5e6,
                "median": 95e6, "peak": 100e6}
        ok = got == want
        verdict(6, "worked trace estimates are exact", ok,
                ", ".join(f"{k} {v / 1e6:g}" for k, v in got.items()))

    def test_07_loopback_end_to_end(self):
        started = time.perf_counter()
        server = Responder("127.0.0.1", 0).start()
        try:
            def once():
                spec = engine_mod.TestSpec(target="%s:%d" % server.address,
                                           duration=5.0, n_connections=4)
                engine = Engine(counter_provider=lambda: 0)
                return engine.run_test(spec)

            first, second = once(), once()
        finally:
            server.stop()
        elapsed = time.perf_counter() - started

        sums_exact = all(
            agg_bytes == sum(t.samples[k][1] for t in first.per_connection_traces)
            for k, (_t, agg_bytes) in enumerate(first.aggregate_trace.samples))
        rate_a = estimate(first.aggregate_trace, "steady_state")
        rate_b = estimate(second.aggregate_trace, "steady_state")
        close = abs(rate_a - rate_b) <= 0.20 * max(rate_a, rate_b)
        echo_loss = metrics.loss_rate(first.latency.sent, first.latency.received)
        ok = (rate_a > 0 and sums_exact and echo_loss == 0.0 and close
              and elapsed < 30.0)
        verdict(7, "loopback runs agree within 20% with exact aggregate sums", ok,
                f"{rate_a / 1e6:.0f} vs {rate_b / 1e6:.0f} Mbps, echo loss "
                f"{echo_loss:.0%}, {elapsed:.1f}s")

    def test_08_selection_and_health(self):
        rng = random.Random(2026)
        all_argmin = True
        for _ in range(100):
            n = rng.randint(2, 8)
            rtts = {f"s{i:02d}": round(rng.uniform(1.0, 120.0), 3) for i in range(n)}
            servers = [ServerDescriptor(id=sid, host="h.example.net", port=7777)
                       for sid in rtts]
            rng.shuffle(servers)

            def prober(server, count, rtts=rtts):
                return LatencyStats(rtts=(rtts[server.id],) * count,
                                    sent=count, received=count)

            best = min(rtts, key=lambda sid: (rtts[sid], sid))
            chosen = select_server(servers, prober=prober)
            reshuffled = select_server(list(reversed(servers)), prober=prober)
            if chosen.id != best or reshuffled.id != best:
                all_argmin = False
                break

        s = ServerDescriptor(id="x", host="h", port=1)
        for i in range(5):
            removed_early = s.removed and i < 4
            s = apply_outcome(s, "unreachable")
            if removed_early:
                break
        removal_exact = s.removed
        for i in range(10):
            s = apply_outcome(s, "ok")
            if not s.removed and i < 9:
                removal_exact = False
        restore_exact = not s.removed

        ok = all_argmin and removal_exact and restore_exact
        verdict(8, "selection is argmin of median RTT; removal at 5, restore at 10",
                ok, "100 random registries, permutation-stable")

    def test_09_responder_admission_storm(self):
        server = Responder("127.0.0.1", 0, max_tests=2).start()
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(17)
        hold = threading.Event()

        def knock(i):
            nonce = i.to_bytes(16, "big")
            with socket.create_connection(server.address) as sock:
                barrier.wait()
                protocol.send_frame(sock, protocol.HELLO, nonce,
                                    protocol.pack_hello("download", 5_000, 1))
                kind, _nonce, payload = protocol.recv_frame(sock)
                with lock:
                    if kind == protocol.HELLO_ACK:
                        outcomes.append("ack")
                    else:
                        outcomes.append(protocol.unpack_refuse(payload))
                hold.wait()

        threads = [threading.Thread(target=knock, args=(i,)) for i in range(16)]
        try:
            for t in threads:
                t.start()
            barrier.wait()
            deadline = time.monotonic() + 5.0
            while len(outcomes) < 16 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            hold.set()
            for t in threads:
                t.join()

        acks = outcomes.count("ack")
        at_capacity = outcomes.count(protocol.REASON_AT_CAPACITY)

        # incompressibility of the served stream, one short download
        nonce = b"Z" * 16
        with socket.create_connection(server.address) as control:
            protocol.send_frame(control, protocol.HELLO, nonce,
                                protocol.pack_hello("download", 1_000, 1))
            kind, _n, _p = protocol.recv_frame(control)
            assert kind == protocol.HELLO_ACK
            with socket.create_connection(server.address) as data:
                protocol.send_frame(data, protocol.START_DATA, nonce,
                                    protocol.pack_start_data(0))
                blob = b""
                while len(blob) < 1 << 20:
                    chunk = data.recv(65536)
                    if not chunk:
                        break
                    blob += chunk
        server.stop()
        ratio = len(zlib.compress(blob, 9)) / len(blob)

        ok = acks == 2 and at_capacity == 14 and ratio > 0.99
        verdict(9, "admission storm yields 2 acks, 14 at-capacity; payload "
                   "compresses under 1%", ok,
                f"acks {acks}, refusals {at_capacity}, "
                f"compressed to {ratio:.2%} of size")

    def test_10_record_fidelity(self):
        rng = random.Random(1000)
        byte_identical = 0
        recomputable = 0
        count = 1000
        for _ in range(count):
            result = random_result(rng)
            first = result.to_json()
            parsed = MeasurementResult.from_json(first)
            if parsed.to_json() == first:
                byte_identical += 1
            if recompute_report(parsed) == parsed.report:
                recomputable += 1
        ok = byte_identical == count and recomputable == count
        verdict(10, "1000 random records round-trip byte-identically and "
                    "recompute exactly", ok,
                f"{byte_identical}/{count} identical, "
                f"{recomputable}/{count} recomputed")
