"""Machine-speed calibration for the end-to-end timing.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third or more from one minute to the next, so the median wall time of the
same call moves between runs far more than a code change worth detecting.
``Calibration`` times a fixed kernel, independent of biotcgp, after every
entry call, so each call is bracketed by two kernel timings; dividing the
call's time by their mean cancels the drift that both see, within a run and
between runs.

The kernel mixes the three kinds of work the workloads spend their time on:
interpreter-bound Python, a multi-operand ``np.einsum`` shaped like a
tabulation contraction, and a SuperLU factorization of a sparse matrix.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# median kernel time on the reference machine (2 shared cores, Python 3.11,
# numpy 2.4, scipy 1.17) when unloaded: normalised times read as seconds there
REFERENCE_S = 0.0072
# share of the run spent in the kernel, spread over the calls
BUDGET = 0.03


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        step = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(40, 40))
        self._laplacian = sp.kronsum(step, step, format="csc")
        self._factors = [rng.standard_normal((300, 16, 12)),
                         rng.standard_normal((300, 16, 12)),
                         rng.standard_normal((300, 16))]
        self.samples: list[float] = []
        self.kernel()  # warm-up, not a sample

    def kernel(self) -> None:
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        np.einsum("eqi,eqj,eq->eij", *self._factors)
        spla.splu(self._laplacian)

    def sample(self, call_seconds: float) -> float:
        """Mean kernel time over about ``BUDGET`` of ``call_seconds``, at least one run."""
        last = self.samples[-1] if self.samples else REFERENCE_S
        times = []
        for _ in range(max(1, round(BUDGET * call_seconds / last))):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        self.samples += times
        return statistics.fmean(times)


def normalise(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` scaled to the unloaded reference machine, given the kernel's
    time measured alongside."""
    return seconds * REFERENCE_S / kernel_seconds
