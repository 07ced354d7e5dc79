"""A host-speed gauge sampled inside the process being timed.

On a shared host the same code can take twice as long from one half
minute to the next, and the speed changes within a single invocation.
So each timed child (bench/child.py) runs `sample()`, a fixed slice of
scalar work that never touches tentlab, SAMPLES_AT_READY times right
after tentlab.cli is imported and then every GAUGE_EVERY_S seconds on a
wall-clock timer, between the program's own bytecodes, on whichever CPU
the child is on.
bench/run.py divides the child's times by

    factor = mean sample time / NOMINAL_S

so `wall_s` and `setup_s` read what the child would take on the host at
its nominal speed.  The samples cost about 3.5 % of a child's time.  The
slice does the kind of work tentlab's scalar paths do: float tent steps,
tuple keys, a linear scan with a tolerance, Fraction arithmetic, list and
dict churn.  Over ten runs of the same code it brings the spread of
`wall_s` (interquartile range over median) from 0.11 to 0.28 unscaled
down to 0.015 to 0.02 on each of the three workloads.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# median of sample() on 2 vCPUs (Intel Xeon, 2.1 GHz), Python 3.11.7
NOMINAL_S = 0.0035
GAUGE_EVERY_S = 0.1
SAMPLES_AT_READY = 5


def _work() -> int:
    x, h, seen, counts = 0.1234567, 1.9, [], {}
    for i in range(1500):
        x = h * x if x < 0.5 else h * (1.0 - x)
        key = (round(x, 3), i % 7)
        counts[key] = counts.get(key, 0) + 1
        if i % 15 == 0:
            if not any(abs(x - y) <= 1e-3 for y in seen):
                seen.append(x)
    q, h_q = Fraction(2, 7), Fraction(3, 2)
    for _ in range(200):
        q = h_q * q if q < Fraction(1, 2) else h_q * (1 - q)
        q = q.limit_denominator(1 << 20)
    return len(seen) + len(sorted(counts.items())) + q.denominator


def sample() -> float:
    """CPU seconds that the fixed slice of work takes now.

    Thread CPU time leaves out the waits for the interpreter lock while
    the program's worker threads hold it, yet still grows when the host
    runs the vCPU slowly, because the guest cannot see that time taken away.
    The cyclic collector is held off meanwhile: with the program's
    millions of live objects, a collection that the slice's allocations
    happened to trigger would take several slices' time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        _work()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def start(samples: list[float]) -> None:
    """Append SAMPLES_AT_READY samples now, then one every GAUGE_EVERY_S."""
    samples.extend(sample() for _ in range(SAMPLES_AT_READY))
    signal.signal(signal.SIGALRM, lambda _sig, _frame: samples.append(sample()))
    signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


if __name__ == "__main__":
    import statistics

    _work()
    times = [sample() for _ in range(200)]
    print(f"median {statistics.median(times):.5f} s  min {min(times):.5f}  max {max(times):.5f}")
