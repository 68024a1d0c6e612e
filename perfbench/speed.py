"""Machine-speed probe that makes wall times comparable across slow spells.

On a shared machine the CPU the benchmark gets can run at well under its
normal speed for spells of seconds: on the 2-CPU Xeon virtual machine where
the baseline was taken, one fixed scan took 145 ms in one spell and 290 ms
in the next, and a fixed reference kernel slowed down by about the same
factor. So the probe times a kernel every ``PERIOD`` seconds, from a SIGALRM
handler in the benchmark's only thread, and a measured interval is rescaled
by ``reference_s / kernel time``, averaged over the samples from ``WINDOW``
seconds before it to ``WINDOW`` seconds after it: spells last seconds, and
one sample alone is noisy. The time the handler itself took inside the
interval is first taken out of it.

Each sample times two kernels of defect-form-like evaluations (two matvecs
and three weighted inner products): one at dimension 40, interpreter-bound
like most of the program, and one at dimension 190, where the matvecs
dominate. Slow spells slow the two by different factors, so an operation is
rescaled by the kernel that resembles its own hot loop: the dimension-190
one for operations on spaces of dimension 150 or more (bidisc N = 18), the
dimension-40 one for all others. ``reference_s`` is a kernel's time in the
handler outside slow spells on that machine, rounded; it only sets the
scale, so rescaled times read roughly as seconds there.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

import numpy as np

PERIOD = 0.05
WINDOW = 0.25


class Kernel:
    """``reps`` defect-form-like evaluations on a fixed random ``dim`` x ``dim`` matrix."""

    def __init__(self, dim: int, reps: int, reference_s: float):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        self.x = rng.standard_normal(dim) + 0j
        self.w = np.arange(1.0, dim + 1.0)
        self.reps = reps
        self.reference_s = reference_s

    def __call__(self) -> float:
        A, x, w = self.A, self.x, self.w
        total = 0.0
        for _ in range(self.reps):
            y = A @ x
            z = A @ y
            total += float(np.real(np.vdot(x, w * x)) - 2.0 * np.real(np.vdot(y, w * y))
                           + np.real(np.vdot(z, w * z)))
        return total


SMALL = Kernel(40, 30, reference_s=3.0e-4)
LARGE = Kernel(190, 8, reference_s=3.5e-4)
LARGE_FROM_DIM = 150


class SpeedProbe:
    """Samples both kernels' speed while entered; see the module docstring."""

    def __init__(self):
        self.start_t = array("d")
        self.end_t = array("d")
        self.factor = {SMALL: array("d"), LARGE: array("d")}
        self.spent = array("d", [0.0])  # spent[i]: handler time before sample i
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        for kernel, factors in self.factor.items():
            k0 = time.perf_counter()
            kernel()
            factors.append(kernel.reference_s / (time.perf_counter() - k0))
        t1 = time.perf_counter()
        self.start_t.append(t0)
        self.end_t.append(t1)
        self.spent.append(self.spent[-1] + (t1 - t0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def rescale(self, t0: float, t1: float, dim: int = 0) -> float:
        """Wall time from t0 to t1, less the probe's own time, at reference
        speed for work on spaces of dimension ``dim``. Call it after the
        run, so that the samples after t1 exist."""
        factors = self.factor[LARGE if dim >= LARGE_FROM_DIM else SMALL]
        lo = bisect.bisect_left(self.start_t, t0)
        hi = bisect.bisect_right(self.end_t, t1)
        net = (t1 - t0) - (self.spent[hi] - self.spent[lo]) if hi > lo else t1 - t0
        lo = bisect.bisect_left(self.start_t, t0 - WINDOW)
        hi = max(bisect.bisect_right(self.end_t, t1 + WINDOW), lo + 1)
        near = factors[lo:hi]
        return net * sum(near) / len(near)
