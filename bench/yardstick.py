"""A fixed CPU kernel that tells how fast the host runs at the moment.

On the 2-core KVM guest this benchmark was tuned on, the same code runs
up to 40% faster for stretches of 5 to 60 s (the host's load changes), so
raw wall times of whole runs spread by more than any useful regression
bound.  The measuring loop runs this kernel after every pass, candidate
and warm fit.  A wall time times ``REFERENCE_S / (kernel time around it)``
is the time the work would have taken on a host where the kernel takes
``REFERENCE_S``: "reference seconds".  The kernel never calls the library,
so a change to the library moves reference times exactly as it moves wall
times, while a change in host speed moves both and cancels.
"""
from __future__ import annotations

import time

import numpy as np

# the kernel's time on that 2-core guest in its usual state, one BLAS thread
REFERENCE_S = 0.0025
# yardstick samples within this many seconds of a unit set its factor
WINDOW_S = 1.0


class Yardstick:
    """Owns the kernel's inputs and the (time, seconds) samples taken."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # a recording-sized series, a batch, a smoothing window and a small
        # matrix: the mix of reductions, FFTs, convolutions and dense
        # algebra the pipeline itself runs
        self._long = rng.standard_normal(30_000)
        self._batch = rng.standard_normal(496)
        self._weights = rng.random(250)
        self._matrix = rng.standard_normal((60, 200))
        self.samples: list[tuple[float, float]] = []

    def measure(self) -> float:
        """Run the kernel once; record and return its wall time."""
        tic = time.perf_counter()
        acc = 0.0
        for lag in range(30):
            x = self._long[lag : lag + 28_000]
            xc = x - x.mean()
            acc += float(xc @ xc)
        for _ in range(10):
            acc += float(np.fft.irfft(np.fft.rfft(self._batch) * 0.5, n=496).sum())
            acc += float(np.convolve(self._batch, self._weights, mode="valid").sum())
        acc += float(np.linalg.svd(self._matrix, compute_uv=False)[0])
        took = time.perf_counter() - tic
        self.samples.append((tic, took))
        return took

    def median_s(self) -> float:
        return float(np.median([took for _, took in self.samples]))

    def factor(self, at: float, window: float = WINDOW_S) -> float:
        """Wall-to-reference factor for work done around time ``at``."""
        return reference_factor(self.samples, at, window)


def reference_factor(samples, at: float, window: float = WINDOW_S) -> float:
    """REFERENCE_S over the median kernel time within ``window`` of ``at``,
    falling back to the nearest sample when none is that close."""
    times = np.array([t for t, _ in samples])
    took = np.array([s for _, s in samples])
    near = np.abs(times - at) <= window
    if not near.any():
        near = np.abs(times - at) == np.abs(times - at).min()
    return REFERENCE_S / float(np.median(took[near]))
