"""The machine's current speed, from a fixed burst of interpreter work.

The benchmark runs on shared machines whose speed drifts by up to 2x over
minutes, for whole runs at a time.  A burst of interpreter work like
omegacalc's own (stdlib ``Fraction`` arithmetic, tuples, a dict, a sort of
mixed keys) that calls nothing of omegacalc slows down with the machine, so
a time divided by the time of a burst run next to it, times
``REFERENCE_S``, is that time on a reference machine on which one burst
takes ``REFERENCE_S``.  A change to omegacalc moves the first time and not
the burst.

Over 10-second windows of the ``script`` lines on a 2-core VM, the median
line time varied from 0.139 to 0.197 ms raw and by 10 % scaled; a burst of
small-int work instead of ``Fraction`` work left 19 %.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter as clock

REFERENCE_S = 1e-3   # one burst on the reference machine
BURST_STEPS = 150    # about 1 ms on a 2-core VM


def _work(n):
    acc = Fraction(0)
    table = {}
    keys = []
    for i in range(1, n):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(2, 3)
        k = (i * 31) % 17
        table[k] = table.get(k, ()) + (i,)
        keys.append(("x%d" % k, Fraction(k, 5)))
        if len(keys) > 12:
            keys.sort()
            del keys[:6]
    return acc


def burst() -> float:
    """Seconds one burst takes now, with the cyclic collector off so that
    the program's collector settings do not reach it."""
    was = gc.isenabled()
    gc.disable()
    try:
        t = clock()
        _work(BURST_STEPS)
        return clock() - t
    finally:
        if was:
            gc.enable()


def scaled(seconds: float, burst_s: float) -> float:
    """``seconds`` measured next to a burst of ``burst_s``, on the
    reference machine."""
    return seconds * REFERENCE_S / burst_s
