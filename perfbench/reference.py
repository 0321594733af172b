"""A fixed reference kernel that measures how fast the host is right now.

On a shared host the same command can take twice as long for minutes at a
time, because other tenants contend for the same cores.  Each child times
this kernel just before and just after its command; the ratio of
REFERENCE_S to that time is the host's current speed, and run.py divides
timings by it.  The kernel belongs to the benchmark and does the kind of
work the simulator does (interpreter-bound Python around small numpy calls),
so no change to the program can change it.
"""

from __future__ import annotations

import time
from collections import deque

# The kernel's time on an idle 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6.
REFERENCE_S = 0.1


def reference_kernel(iterations: int = 20000) -> int:
    import numpy as np

    rng = np.random.default_rng(12345)
    cdf = np.linspace(0.001, 1.0, 1000)
    queue: deque = deque()
    acc = 0
    for i in range(iterations):
        index = np.searchsorted(cdf, rng.random(8))
        queue.append((i, int(index[0])))
        if len(queue) > 16:
            acc += queue.popleft()[1]
        state = {"slot": i, "acc": acc}
        for j in range(12):
            acc += (state["slot"] + j) & 3
    return acc


def time_reference() -> float:
    """Seconds one kernel run takes now, after a short warm-up run."""
    reference_kernel(200)
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
