"""Correction of timings for the machine's speed during a run.

On a shared machine the same work takes up to half as long again from one
minute to the next (other tenants, hypervisor steal, clock changes).  A fixed
reference kernel with the program's mix of work (see ``kernel``) is timed
every ``EVERY_S`` seconds: between items, and inside long items from a hook
on functions the program calls often.  Time spent in the kernel is taken off
the probe's clock, which the items are timed with, and each item's time is
scaled by ``NOMINAL_S`` over the mean kernel time from the last sample
before the item to the first one after it.  The result reads as seconds on
the machine at its nominal speed.  The kernel never calls the program, so no
program change moves it.
"""

from __future__ import annotations

import bisect
import sys
import time
from contextlib import ExitStack

import numpy as np

from tracer import intercepted

# Reference kernel time at nominal speed (2-core x86-64 VM, OpenBLAS
# 0.3.31, one thread, quiet).  Changing it, or the kernel, rescales every
# timing and needs a new baseline.
NOMINAL_S = 0.03
EVERY_S = 0.5  # least wall time between two samples


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
                      for _ in range(4)]
        self.paused = 0.0               # wall time spent in the kernel so far
        self.times: list[float] = []    # probe clock at each sample
        self.seconds: list[float] = []  # kernel time of each sample
        self._last = -float("inf")

    def clock(self) -> float:
        """Wall clock that stands still while the kernel runs."""
        return time.perf_counter() - self.paused

    def kernel(self) -> float:
        """About equal parts small dense linear algebra, interpreter-bound
        calls on tiny arrays (like building steering vectors), and plain
        interpreter work: the three kinds of time the workloads spend."""
        acc = 0.0
        for i in range(25):
            a = self._mats[i % 4]
            h = a @ a.conj().T
            _, vecs = np.linalg.eigh(h)
            x = np.linalg.solve(h + np.eye(36), a)
            acc += float(np.einsum("ij,ij->", vecs, x).real)
        m = np.arange(6)
        for t in range(1500):
            acc += float(np.exp(-1j * np.pi * m * np.sin(t * 1e-3)).real.sum())
        return acc + sum(i * i for i in range(150000))

    def sample(self) -> None:
        started = time.perf_counter()
        self.kernel()
        self._last = time.perf_counter()
        self.paused += self._last - started
        self.times.append(self.clock())
        self.seconds.append(self._last - started)

    def due(self) -> None:
        """Sample if the last sample is older than ``EVERY_S``."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def hooked(self, package: str, targets):
        """Context in which each call to ``targets`` ("module.function"
        relative to the package) first samples if one is due."""
        def make(fn):
            def hooked_call(*args, **kwargs):
                self.due()
                return fn(*args, **kwargs)
            return hooked_call

        stack = ExitStack()
        for qualified in targets:
            mod_name, func_name = qualified.rsplit(".", 1)
            stack.enter_context(intercepted(package, sys.modules[f"{package}.{mod_name}"],
                                            func_name, make))
        return stack

    def factor(self, start: float, end: float) -> float:
        """Scale for work timed on the probe clock over [start, end]."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        window = self.seconds[first:last + 1]
        return NOMINAL_S * len(window) / sum(window)
