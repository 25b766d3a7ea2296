"""Machine-speed calibration: a fixed kernel timed between items.

The benchmark runs on shared machines whose speed drifts by up to 2x over
tens of seconds (the same oracle call measured 0.19 s in one 30 s window and
0.36 s in another on a 2-core VM, with no steal time visible to the guest).
Timing this kernel next to the items and dividing item times by it removes
most of that drift: over seven 30 s windows in which raw times of an
oracle search, a node count and a prediction moved 35-37 %, their ratios
to this kernel moved 9-10 %.  The kernel never calls trenq, so no change to
the program can move it.  Its shape follows trenq's hot paths: the oracle's
Numerov sign-counting loop over a float array, and whole-array
transcendental functions on arrays the size of a node-counting grid.
"""

from __future__ import annotations

import time

import numpy as np

_STEPS = np.random.default_rng(0).uniform(1.9, 2.0, 2000)  # |p| < 2: the recurrence stays bounded
_GRID = np.linspace(-3.0, 3.0, 1 << 16)


def kernel() -> int:
    v0, v1, count, sign = 1.0, 1.0, 0, True
    for pk in _STEPS:
        v2 = pk * v1 - v0
        if v2 != 0.0:
            s = v2 > 0.0
            if s != sign:
                count += 1
                sign = s
        if v2 > 1e250 or v2 < -1e250:
            v1 *= 1e-250
            v2 *= 1e-250
        v0, v1 = v1, v2
    y = (1.0 - np.exp(-_GRID * _GRID)) / np.cosh(_GRID) ** 2
    return count + int(y[1:-1].sum())


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
