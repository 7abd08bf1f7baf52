"""A fixed piece of work that tells how fast the machine runs right now.

The benchmark was defined on a shared 2-core VM whose speed changes in
phases of seconds to many minutes, by up to 1.75 times. The phases move
job latencies and `import trigspec` alike, so two sets of runs of the
same code could differ by more than the benchmark's bounds. The
benchmark therefore times `work()` next to every job, on the same core,
and reports each latency scaled by ``Y_REF / (time of work())``: seconds
of the machine at the speed where `work()` takes ``Y_REF``.

`work()` uses nothing from trigspec, so a change to the package cannot
move it. It mixes interpreted float arithmetic and dict stores with
small NumPy array operations, as trigspec's hot paths do.
"""

import math
import time

import numpy as np

# Typical time of `best_time()` on the VM the benchmark was defined on
# (Python 3.11, NumPy 2.4). Calibrated times are seconds at that speed.
Y_REF = 2.0e-3


def work():
    s = 0.0
    slots = {}
    for i in range(5000):
        s += math.sin(i * 1e-3) * i
        slots[i & 63] = s
    a = np.linspace(0.0, 1.0, 257)
    ones = np.ones(257) / 257
    for _ in range(120):
        a = np.cos(a) * 0.5 + np.sqrt(a + 1.0) @ ones
    return s + float(a[0])


def best_time(repeats=2):
    """Best wall time of `repeats` calls of `work()`, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best
