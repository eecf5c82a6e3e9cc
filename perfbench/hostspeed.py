"""Host-speed probe: a fixed piece of work whose time tracks the host's pace.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over tens of seconds, and CPU time drifts with wall time, so
the drift is not scheduling. The probe is timed in the benchmark process
between the commands it measures, so that it samples the same stretches of
time. It mixes what sharc's commands spend their time on: a Python loop over
small numpy vector operations, small image-sized array arithmetic and pure
Python arithmetic. It uses nothing from sharc, so a change to the program
does not move it.
"""

from __future__ import annotations

import time

import numpy as np

# probe seconds on the reference host (see README.md); times are scaled to it
REFERENCE_S = 0.02


def _kernel() -> float:
    rng = np.random.default_rng(7)
    vectors = rng.standard_normal((64, 80))
    frames = rng.random((40, 32, 32))
    total = 0.0
    for i in range(640):
        a, b = np.asarray(vectors[i % 64]), np.asarray(vectors[(i * 7 + 3) % 64])
        if np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
            total += float(np.dot(a / np.linalg.norm(a), b / np.linalg.norm(b)))
            total += float(np.linalg.norm(a - b))
    for frame in frames:
        strips = frame.reshape(8, 4, 32).mean(axis=(1, 2))
        total += float(np.abs(np.diff(frame, axis=0)).sum() + strips.max())
    acc = 0
    for i in range(50000):
        acc = (acc * 31 + i) % 1000003
    return total + acc


def probe() -> float:
    """Wall seconds of one pass of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
