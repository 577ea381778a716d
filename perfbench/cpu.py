"""Pick the least loaded virtual CPU before timing.

On a shared host one virtual CPU can run 1.5x slower than another for
minutes while a neighbour loads its physical core.  The kernel's scheduler
cannot see that; a short probe can.
"""

from __future__ import annotations

import os
from time import perf_counter


def probe_s() -> float:
    """Best of three runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def pin_fastest(cpus) -> tuple[int, float]:
    """Pin this process to whichever of ``cpus`` runs the probe fastest now;
    returns that CPU and its probe time."""
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = probe_s()
    cpu = min(times, key=times.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, times[cpu]
