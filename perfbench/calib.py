"""Fixed calibration kernel used to normalise operation wall times.

The kernel mimics the solver's hot loop (small numpy arrays, cos/sin and a
few arithmetic ops per Python-level iteration), so sustained load or
throttling slows the kernel and the solver by similar factors; bursts
shorter than a kernel pass are not tracked.  It must never import
spectral_defect: a change to the program must not change the yardstick.
"""

import statistics
import time

import numpy as np

_WIDTH = 16
_ITERATIONS = 1000
_REPEATS = 3


def kernel() -> float:
    """One pass of the fixed workload; the result keeps it from being
    skipped."""
    x = np.linspace(0.0, 1.0, _WIDTH)
    for _ in range(_ITERATIONS):
        c = np.cos(x)
        s = np.sin(x)
        x = 0.5 * (2.0 * c * c - s * s)
    return float(x[0])


def kernel_seconds() -> float:
    """Median wall time of a few back-to-back kernel passes."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
