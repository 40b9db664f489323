"""Correction of measured times for the drift of a shared machine's speed.

The speed of a shared machine drifts by 15-25% over seconds to minutes, and
by as much as a factor of two under heavy load, for every process alike.
No statistic over one run removes that.  So the benchmark times a fixed
reference kernel every fraction of a second, between the pieces of work it
measures, and scales each piece by the reference timings on either side of
it, to the speed at which the kernel takes ``NOMINAL_S``.

The kernel is a product of two 14-term polynomials stored as dicts of
Fractions: the kind of work fibluc's products do (dict, tuple and Fraction
arithmetic), so the drift slows it by about as much as it slows fibluc.  It
is written here, so no change to fibluc can change its time.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

LEFT = {(i, 2 * i): Fraction(3**i + 1) for i in range(14)}
RIGHT = {(i, i + 1): Fraction(5**i - 2) for i in range(14)}
PRODUCTS = 15
#: Seconds one ``reference()`` takes at the speed times are scaled to; about
#: its median on the machine recorded in README.md.
NOMINAL_S = 0.015
#: Least seconds of measured work between two reference timings.
GROUP_S = 0.2


def reference() -> float:
    """Seconds of the fixed reference kernel, with the garbage collector off.

    With the collector off, the heap the measured program has built cannot
    change the kernel's time.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(PRODUCTS):
            out: dict = {}
            for (i, j), ca in LEFT.items():
                for (p, q), cb in RIGHT.items():
                    mono = (i + p, j + q)
                    total = out.get(mono, 0) + ca * cb
                    if total:
                        out[mono] = total
                    else:
                        out.pop(mono, None)
        return perf_counter() - t0
    finally:
        gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two reference timings to nominal speed."""
    return NOMINAL_S / ((before + after) / 2)


def gauged(items, run):
    """``run(item)`` for every item, with reference timings between groups of items.

    A reference is timed first, then again after each item that ends a group
    of at least ``GROUP_S`` seconds, and after the last item.  Returns the
    results and, for each item, the scale of its group.
    """
    reference()  # warm-up
    refs = [reference()]
    results, group_of = [], []
    group_start = perf_counter()
    for item in items:
        results.append(run(item))
        group_of.append(len(refs) - 1)
        if perf_counter() - group_start >= GROUP_S:
            refs.append(reference())
            group_start = perf_counter()
    if group_of and group_of[-1] == len(refs) - 1:
        refs.append(reference())
    return results, [scale(refs[g], refs[g + 1]) for g in group_of]
