"""Machine speed, from a reference kernel, to put a run's timings on one scale.

The machine the benchmark was written on (two cores of a shared host) changed
speed by up to 1.6x within a minute, and all code slowed together: over 150 s
in one-second windows, the workloads' calls and small numpy loops moved with
correlations of 0.86-0.94.  Wall times of identical runs a few minutes apart
differed by 40% and more, so no statistic over one run's wall times could be held to a
25% bound.

So a run also times a reference kernel that belongs to the benchmark, not to
the package: in-place products of two 1,024-amplitude complex vectors, the
size of an n = 10 statevector, about half a millisecond.  Its 32 KB stay in
cache, so the workload running around it barely changes its time.  Among the
kernels tried it followed the workloads best: a pure Python loop sped up and
slowed down more than they did (slopes 0.5-0.8 of log call time on log kernel
time), this one about as much (0.8-1.06, and 0.63 for the n = 10 gradients).
While the timed phase runs, a timer signal runs the kernel every
``INTERVAL_S``, so the samples cover that phase evenly in time.  A timing is
reported *at reference speed*: multiplied by ``REF_MS`` over the mean kernel
time of the same phase.  A change to the package moves the workload's time and
not the kernel's, so it shows in full.  The raw wall times stay in the report.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# Nominal kernel time: a second at reference speed is a wall second on a
# machine where the kernel takes REF_MS.  The machine above read 0.45-0.82 ms
# as the mean over one pass.
REF_MS = 0.5
INTERVAL_S = 0.1

KERNEL_STEPS = 400
KERNEL_AMPLITUDES = 1 << 10


class SpeedProbe:
    """Kernel timings in milliseconds, in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, KERNEL_AMPLITUDES))
        self._state = self._phases.copy()  # unit modulus, so repeated products stay finite

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            for _ in range(KERNEL_STEPS):
                np.multiply(self._state, self._phases, out=self._state)
            self.samples.append((time.perf_counter() - start) * 1e3)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int = 0) -> float:
        """REF_MS over the mean kernel time of the samples from ``start`` on."""
        window = self.samples[start:]
        return REF_MS * len(window) / sum(window)

    @contextmanager
    def ticking(self):
        """Sample once every ``INTERVAL_S`` of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
