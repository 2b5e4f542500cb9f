"""Host-speed probe: a fixed CPU kernel timed between units of work.

On a shared virtual machine the CPU clock itself runs slow while a
neighbour loads the physical core or the shared last-level cache: the
same figs_cold pass took 5.5 s and 9.5 s of process CPU time ten
minutes apart, with no change to the program.  The probe is benchmark
code the program cannot change, so its time tracks only the host.  Each
pass (and each set-up) reports ``median(probe) / NOMINAL_S``, the factor
by which the host ran slower than nominal, and the benchmark divides
that phase's CPU times by it.  Passes sample between units; a set-up
samples at its start, between its steps (:meth:`SpeedProbe.tick`) and at
its end, and its CPU time leaves out the probe's own.  Over those ten minutes the factor moved
from 0.83 to 1.29, and the scaled pass times stayed within 6.6-8.1 s.
The scaling is not exact (the workloads slow down somewhat more than the
probe does) and adds a little noise on a calm host.

``NOMINAL_S`` is the probe's tenth-percentile time over 2000 back-to-back
samples on the machine the benchmark was defined on.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 6.9e-4

#: Probe samples per pass, in bursts spread evenly over the gaps between units.
SAMPLES_PER_PASS = 30
BURSTS_PER_PASS = 10

#: During set-up, a burst of ``TICK_SAMPLES`` at each step boundary that
#: comes at least ``TICK_S`` CPU seconds after the last burst.
TICK_S = 0.25
TICK_SAMPLES = 3


class SpeedProbe:
    """A mix like the workloads': interpreter, small numpy calls, L1- and
    L3-resident vector work.  Allocates nothing after construction.

    The kernel runs twice per sample and only the second run is timed,
    so every sample starts from the same cache state whatever the unit
    before it evicted: it measures how fast the shared core and last-level
    cache are running, not the program's memory footprint.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = {i: i * 7 for i in range(256)}
        self._pairs = [(i, i + 1) for i in range(64)]
        self._tiny = rng.integers(0, 1 << 20, size=64)
        self._tiny_out = np.empty_like(self._tiny)
        self._small = rng.integers(0, 1 << 30, size=1 << 12)  # 32 KiB
        self._tmp = np.empty_like(self._small)
        self._large = rng.integers(0, 1 << 30, size=1 << 19)  # 4 MiB: past L2
        self._lines = np.empty(1 << 16, dtype=np.int64)
        self.spent_s = 0.0  # CPU seconds spent in bursts, so callers can leave it out
        self.ticked: list[float] = []
        self._last_tick = -math.inf  # the first tick always samples

    def _kernel(self) -> None:
        acc = 0
        table, pairs = self._table, self._pairs
        for i in range(800):
            a, b = pairs[i & 63]
            acc += table[(i * a) & 255] ^ b
            if acc & 1:
                acc -= len(pairs)
        for _ in range(100):
            np.add(self._tiny, acc, out=self._tiny_out)
            np.maximum(self._tiny_out, self._tiny, out=self._tiny_out)
        for _ in range(8):
            np.multiply(self._small, 2654435761, out=self._tmp)
            np.right_shift(self._tmp, 7, out=self._tmp)
            np.bitwise_xor(self._tmp, self._small, out=self._tmp)
        np.add(self._large[::8], acc & 0xFF, out=self._lines)  # one word per cache line

    def sample(self) -> float:
        """CPU seconds of one warm run of the kernel."""
        self._kernel()
        start = time.process_time()
        self._kernel()
        return time.process_time() - start

    def burst(self, n: int) -> "list[float]":
        """``n`` samples, after one that is thrown away.

        Right after a unit of work the core still runs slow for a
        millisecond or two: on codec_protect the first sample after a unit
        read 0.94 ms against 0.73 ms for the next five, which would charge
        the program's own wake to the host.
        """
        start = time.process_time()
        self.sample()
        out = [self.sample() for _ in range(n)]
        self.spent_s += time.process_time() - start
        return out

    def tick(self) -> None:
        """Sample the host between set-up steps, at most every ``TICK_S``."""
        if time.process_time() - self._last_tick >= TICK_S:
            self.ticked.extend(self.burst(TICK_SAMPLES))
            self._last_tick = time.process_time()

    def factor(self, samples: "list[float]") -> float:
        """How much slower than nominal the host ran while ``samples`` were taken."""
        return statistics.median(samples) / NOMINAL_S

    def setup_factor(self) -> float:
        """Host factor of the set-up: every tick so far, and a closing burst."""
        self.ticked.extend(self.burst(TICK_SAMPLES))
        return self.factor(self.ticked)
