"""Machine-speed calibration for shared, noisy hosts.

On a shared two-core VM the speed of one core swings by up to 1.8x in
phases that last from seconds to minutes, so raw times of runs minutes apart
are not comparable.  The benchmark therefore times a fixed numpy kernel that
never touches projgeo next to the ops, and reports each time scaled to the
kernel's reference duration:

    reported = measured * REFERENCE_MS[kind] / kernel time measured alongside

A change to projgeo leaves the kernel's time alone, so the scaled figure
moves with the code and not with the host's load.  Two kernels exist because
interpreter-bound and LAPACK-bound code slow down by different factors:

* ``interpreter``: 40 rounds of small 12 x 12 complex matrix work (product,
  hermitian part, symmetry test, singular values), dominated by per-call
  overhead like the n <= 16 workloads;
* ``mixed``: 250 singular-value calls on the 12 x 12 matrix plus one full
  SVD of a 128 x 128 complex matrix, about half interpreter and half LAPACK
  time, like the n = 128 workload.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# kernel durations on a quiet core of the machine the benchmark was written
# on; they only fix the scale of the reported figures
REFERENCE_MS = {"interpreter": 1.65, "mixed": 12.0}
REPEATS = 3


class Calibrator:
    def __init__(self, kind: str):
        if kind not in REFERENCE_MS:
            raise ValueError(f"unknown calibration kind {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self._large = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._eye = np.eye(12)
        self._svd = np.linalg.svd  # bound now: a traced phase must not see it
        self.samples_ms: list[float] = []
        self._kernel()  # first call pays for LAPACK start-up

    def _kernel(self) -> None:
        if self.kind == "interpreter":
            for _ in range(40):
                m = self._small @ self._small.conj().T
                h = (m + m.conj().T) / 2
                np.array_equal(h, h.conj().T)
                self._svd(h - self._eye, compute_uv=False)
        else:
            for _ in range(250):
                self._svd(self._small, compute_uv=False)
            self._svd(self._large)

    def sample(self) -> float:
        """Median kernel time of REPEATS back-to-back runs, in ms; recorded."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._kernel()
            times.append((perf_counter() - t0) * 1e3)
        ms = statistics.median(times)
        self.samples_ms.append(ms)
        return ms

    def scale(self, kernel_ms: float) -> float:
        """Factor that maps a time measured beside ``kernel_ms`` to reference speed."""
        return REFERENCE_MS[self.kind] / kernel_ms
