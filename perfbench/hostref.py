"""Host-speed references timed beside the work, so that runs on a busier host compare.

On a shared virtual machine the same work runs up to ~30% apart from one
minute to the next, as other tenants come and go.  The benchmark therefore
times two fixed references of its own between operations and scales each
gated figure by nominal / measured, so it reads as it would on a host running
the references at their nominal speed:

- a pure-Python chunk of work: wall-clock figures (set-up, simulated tests)
  are scaled by its wall time, CPU figures by its CPU time;
- a plain-socket transfer to a sink process on the loopback interface:
  loopback throughput is scaled by its rate.

The references are benchmark code only.  A change to linerate moves the scaled
figures by the same share as the raw ones, which are printed beside them.
"""

import socket
import statistics
import time

from common import ServerProcess

# One chunk takes about 1.9 ms on a 2-vCPU Xeon at 2.1 GHz (CPython 3.11); the
# nominal values are that host's medians over 500 chunks and 30 transfers, so
# scaled figures read like raw ones there.
CPU_CHUNK_ITERATIONS = 15000
CPU_NOMINAL_WALL_S = 0.0019
CPU_NOMINAL_CPU_S = 0.0019

# Each set-up is followed by this many chunks, whose wall time scales it.
SETUP_REF_CHUNKS = 8

SOCKET_REF_BYTES = 256 << 20
SOCKET_CHUNK = memoryview(bytes(256 << 10))
SOCKET_NOMINAL_MB_PER_S = 4500.0
SOCKET_TIMEOUT_S = 30.0


def cpu_chunk():
    """Run the fixed pure-Python chunk once: (wall s, CPU s)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    acc = 0
    table = {}
    for i in range(CPU_CHUNK_ITERATIONS):
        acc += (i * 7) % 13
        table[i & 255] = acc
    return time.perf_counter() - wall0, time.process_time() - cpu0


class CpuReference:
    """Samples of the CPU chunk and the scale factors they give."""

    def __init__(self):
        self.wall = []
        self.cpu = []

    def sample(self, count=1):
        for _ in range(count):
            wall, cpu = cpu_chunk()
            self.wall.append(wall)
            self.cpu.append(cpu)

    def wall_factor(self) -> float:
        return CPU_NOMINAL_WALL_S / statistics.median(self.wall)

    def cpu_factor(self) -> float:
        return _cpu_factor(self.cpu)

    def rolling_factors(self, half_window):
        """(wall, CPU) factor per sample, each from the samples within ``half_window`` of it."""
        walls, cpus = [], []
        for i in range(len(self.wall)):
            lo, hi = max(0, i - half_window), i + half_window + 1
            walls.append(CPU_NOMINAL_WALL_S / statistics.median(self.wall[lo:hi]))
            cpus.append(_cpu_factor(self.cpu[lo:hi]))
        return walls, cpus


def _cpu_factor(cpu_samples):
    # process_time ticks coarsely on some hosts; a zero median would divide by zero.
    return CPU_NOMINAL_CPU_S / max(statistics.median(cpu_samples), 1e-6)


def timed_setup(reps, make, discard=None):
    """Set up ``reps`` times: (median scaled seconds, median raw seconds, last product).

    Every product but the last is handed to ``discard`` right away.
    """
    scaled, raw = [], []
    product = None
    for _ in range(reps):
        if product is not None and discard is not None:
            discard(product)
        t0 = time.perf_counter()
        product = make()
        seconds = time.perf_counter() - t0
        ref = CpuReference()
        ref.sample(SETUP_REF_CHUNKS)
        raw.append(seconds)
        scaled.append(seconds * ref.wall_factor())
    return statistics.median(scaled), statistics.median(raw), product


class SocketReference:
    """A sink process that reads and discards; one transfer gives a plain-socket rate."""

    def __init__(self, root, log_path):
        self.sink = ServerProcess(root, "refsink.py", [], log_path)

    def rate_mb_per_s(self) -> float:
        """Send SOCKET_REF_BYTES on a fresh connection; MB/s until the sink has read them."""
        t0 = time.perf_counter()
        with socket.create_connection(self.sink.address, timeout=SOCKET_TIMEOUT_S) as sock:
            sent = 0
            while sent < SOCKET_REF_BYTES:
                sock.sendall(SOCKET_CHUNK)
                sent += len(SOCKET_CHUNK)
            sock.shutdown(socket.SHUT_WR)
            if sock.recv(1) != b"k":
                raise RuntimeError("reference sink did not acknowledge the transfer")
        return sent / 1e6 / (time.perf_counter() - t0)

    def stop(self):
        self.sink.stop()

