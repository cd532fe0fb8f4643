"""Shared pieces of the benchmark: run context, outcomes, /proc figures, server processes."""

import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
SERVER_START_TIMEOUT_S = 30.0
SERVER_STOP_TIMEOUT_S = 15.0
SETUP_REPS = 15


@dataclass
class Outcome:
    """What one workload measured, plus its correctness verdicts."""

    workload: str
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # check name -> passed
    generic: dict = field(default_factory=dict)  # end-to-end metric -> value
    named: dict = field(default_factory=dict)  # workload metric -> (value, unit)
    info: dict = field(default_factory=dict)  # sample counts and bookkeeping
    layer_inputs: dict = field(default_factory=dict)  # traced-run figures
    overhead_pct: float | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class Context:
    """Run settings plus a scratch directory inside the checkout."""

    def __init__(self, root, seconds, quick):
        self.root = root
        self.seconds = seconds
        self.quick = quick
        scratch = os.path.join(root, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
        self.out_dir = scratch

    def fresh_path(self, name):
        return os.path.join(tempfile.mkdtemp(dir=self.workdir), name)

    def setup_reps(self):
        return 1 if self.quick else SETUP_REPS

    def passes(self, tracer):
        """(label, seconds, tracer) per measured pass.

        A traced run measures the same inputs twice, untraced then traced,
        each for half the time, so the tracing overhead is their difference.
        """
        if tracer is None:
            return [("measured", self.seconds, None)]
        half = self.seconds / 2.0
        return [("untraced", half, None), ("traced", half, tracer)]

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- process figures read from /proc -------------------------------------------

def process_cpu_s(pid) -> float:
    """User plus system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def process_status(pid) -> dict:
    """Threads and resident memory (MB) of a live process."""
    out = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key == "Threads":
                out["threads"] = int(value)
            elif key == "VmRSS":
                out["rss_mb"] = int(value.split()[0]) / 1024.0
    return out


def own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


# -- servers run as their own processes ----------------------------------------

class ServerProcess:
    """A bench script run as its own process; it prints ``listening on HOST:PORT``."""

    def __init__(self, root, script, args, log_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", os.path.join(BENCH_DIR, script), *args],
            stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
            env=env, cwd=root)
        try:
            self.address = self._read_address()
        except BaseException:
            self.stop()
            raise

    def _read_address(self):
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        pending = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                pending += chunk
                match = re.search(rb"listening on ([\d.]+):(\d+)", pending)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"{self.proc.args[2]} did not report its address: {pending!r}")

    @property
    def pid(self):
        return self.proc.pid

    @property
    def target(self) -> str:
        return "%s:%d" % self.address

    def stop(self, graceful=True):
        """Stop the process and wait for it; SIGINT lets it close cleanly."""
        if self.proc.poll() is None:
            if graceful:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            else:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def start_responder(root, log_path):
    """``linerate-responder --listen 127.0.0.1:0`` started through the bench launcher."""
    return ServerProcess(root, "responder_main.py", ["--listen", "127.0.0.1:0"], log_path)
