"""Host speed, sampled while an operation runs.

The host shares its cores with other tenants.  Their load stretches every
operation by up to twice its own cost, in phases that last from half a
second to half a minute, so wall times taken a minute apart differ by more
than a change worth measuring.  The benchmark therefore reports latencies
in *refs*: one ref is the wall time of a fixed calibration loop on the same
host at the same moment, about 0.8 ms on the host the benchmark was tuned
on (Intel Xeon, 2 vCPUs).  The loop mixes the three kinds of work the
program's hot paths do, because tenants' load slows them unequally:
interpreter arithmetic, whole-array numpy operations on DP-sized grids
(the DP solvers), heap operations (the event engine) and lookups in a
table larger than the caches (segment caches and object graphs).

:meth:`Sampler.run` times the loop right before and right after an
operation and, on a wall-clock timer, every :data:`PERIOD_S` while it
runs.  The operation's own wall time is its wall time less the time the
loops took inside it; its *ref* is the harmonic mean of the loop's times,
so that ``wall / ref`` weights each stretch of the operation by the host's
speed during it.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time

import numpy as np

#: Seconds between two loops while an operation runs.
PERIOD_S = 0.04
ARITHMETIC_STEPS = 2_000
GRID_SIZE, GRID_STEPS = 65, 40
HEAP_SIZE, HEAP_STEPS = 20_000, 300
TABLE_SIZE, TABLE_STEPS = 100_000, 800


class CalibrationLoop:
    """The fixed loop whose wall time is one ref."""

    def __init__(self):
        rng = random.Random(0)
        self.grid = np.random.default_rng(0).random((GRID_SIZE, GRID_SIZE))
        self.heap = [rng.random() for _ in range(HEAP_SIZE)]
        heapq.heapify(self.heap)
        keys = [rng.getrandbits(40) for _ in range(TABLE_SIZE)]
        self.table = {key: float(i) for i, key in enumerate(keys)}
        self.probes = [keys[rng.randrange(TABLE_SIZE)] for _ in range(TABLE_STEPS)]

    def __call__(self) -> float:
        """Wall time of one run of the loop."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(ARITHMETIC_STEPS):
            acc += i * i % 7
        grid = self.grid
        for k in range(GRID_STEPS):
            grid = np.minimum(grid, self.grid.T + k).min(axis=0) + self.grid
        heap = self.heap
        for _ in range(HEAP_STEPS):
            heapq.heappush(heap, heapq.heappop(heap) + 1.0)
        total = 0.0
        for key in self.probes:
            total += self.table[key]
        return time.perf_counter() - t0


class Sampler:
    """Runs operations with the calibration loop sampled around and inside them."""

    def __init__(self):
        self.loop = CalibrationLoop()
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _tick(self, signum, frame) -> None:
        dt = self.loop()
        self.samples.append(dt)
        self.inside_s += dt

    def run(self, op):
        """``(result, own wall time in s, ref in s)`` of ``op()``."""
        self.samples, self.inside_s = [self.loop()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            out = op()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(self.loop())
        ref = 1.0 / statistics.fmean(1.0 / s for s in self.samples)
        return out, wall - self.inside_s, ref
