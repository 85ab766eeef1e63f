"""Host-speed reference for the timed end-to-end metrics.

The benchmark runs on vCPUs shared with other tenants.  On a 2-vCPU Xeon
VM the speed of the same code drifts by up to 1.8x over tens of seconds to
minutes, each vCPU on its own, so one run of a workload can read 1.8x
another.  Just before each timed call and each set-up sample, a run times
``kernel_s`` on the same vCPU (``run.prepare`` pins the process to one) and
divides the call's wall time by ``slowness`` = kernel time / ``NOMINAL_S``.
The scaled times read as seconds on a host running at the nominal speed.

The kernel is the benchmark's own code and never touches the package, so a
change to the package moves the scaled times by the same factor as the wall
times.  It is the geometric mean of a pure-Python loop and a numpy pass over
a 16 MB array because the workloads mix interpreter-bound and memory-bound
work, and on that VM each half tracks one kind: over 20 s windows it cut the
spread of window medians from 0.14 to 0.06 on ``montecarlo_n100`` and from
0.15 to 0.04 on ``reduced_n1000_l1.8``, and left ``api_dense_n5000`` at 0.05.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median kernel_s on the VM above (Python 3.11.7, numpy 2.4.6).  Only ratios
# between runs matter; this keeps scaled times close to wall times there.
NOMINAL_S = 0.008

_ARRAY = np.ones(2_000_000)  # 16 MB


def _python_loop() -> int:
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return s


def _array_passes() -> None:
    for _ in range(5):
        np.multiply(_ARRAY, 1.0, out=_ARRAY)


def kernel_s() -> float:
    """Geometric mean of the two halves' wall times."""
    t0 = time.perf_counter()
    _python_loop()
    t1 = time.perf_counter()
    _array_passes()
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


def slowness() -> float:
    """How much slower than nominal the host runs now (above 1 is slower)."""
    return kernel_s() / NOMINAL_S
