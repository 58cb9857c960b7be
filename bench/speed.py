"""Host-speed probe that turns measured times into reference-speed times.

The 2-core box the benchmark was written on is a share of a busy host:
a pure Python loop on it runs up to twice as fast in one second as in
the next, for stretches of seconds to minutes, in wall and in process
CPU time alike, while the kernel reports no steal time. A solve of a
few seconds can therefore read 20-40% slower from one run to the next
with nothing changed.

`Probe` measures that speed while the program runs. A SIGALRM timer
interrupts the timed code every PERIOD_S seconds and runs a fixed kernel
that belongs to the benchmark: Python arithmetic and numpy calls on a
2 KB vector. It stays in the first-level caches, so what the program
leaves in the caches changes its duration little: its median inside an
afbs_exact solve (46 MB dense factor) and inside the other solves and
the set-up differed by at most 8%. Kernels that also touched
a sparse matrix or a fresh 1 MB array tracked the solves a little
better, but ran up to 80% slower inside the program, which would tie
the scale to the code being measured.

The program's time excludes the time spent in the probe, and is then
scaled by REFERENCE_S over the harmonic mean of the probe's durations:
the harmonic mean of equally spaced samples is the time-weighted mean
speed. The result is the time the program would take at the reference
speed, the speed at which one probe takes REFERENCE_S (a typical speed
of a Xeon vCPU of that box).

The raw wall and CPU seconds stay in the record every run prints.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02        # one probe per 20 ms of wall time
REFERENCE_S = 0.3e-3   # one probe's duration at the reference speed

_VECTOR = np.arange(256, dtype=np.float64)


def _kernel():
    total = 0
    for i in range(3000):
        total += i * i
    for _ in range(20):
        total += float(np.sqrt(_VECTOR * _VECTOR + 1.0).sum())
    return total


class Probe:
    """Context manager timing one block at the reference speed.

    After the block, `wall_s` and `cpu_s` hold its raw times without the
    probe's own time, `samples` the probe durations and `factor` the
    reference-speed scale (1.0 when the block was too short for a probe).
    """

    def __init__(self):
        self.samples = []
        self.wall_s = self.cpu_s = 0.0
        self._spent_wall = self._spent_cpu = 0.0

    def _sample(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        _kernel()
        elapsed = time.perf_counter() - wall
        self.samples.append(elapsed)
        self._spent_wall += elapsed
        self._spent_cpu += time.process_time() - cpu

    def __enter__(self):
        if signal.getitimer(signal.ITIMER_REAL)[0]:
            raise RuntimeError("a Probe does not nest with another timer")
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        wall, cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = wall - self._wall - self._spent_wall
        self.cpu_s = cpu - self._cpu - self._spent_cpu
        return False

    @property
    def factor(self):
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.harmonic_mean(self.samples)

    @property
    def ref_wall_s(self):
        return self.wall_s * self.factor

    @property
    def ref_cpu_s(self):
        return self.cpu_s * self.factor
