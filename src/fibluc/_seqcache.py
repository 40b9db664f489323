"""F_n(x, y) and L_n(x, y) by name, for the modules that read them by index.

The terms are kept by :func:`~fibluc.sequences.seq`, in its tables for the
generator pair (x, y); each name here is one call of it.  The names stay
because the benchmark's tracer (``bench/tracer.py``) counts cache calls and
misses by patching them.
"""

from __future__ import annotations

from .poly import BivarPoly
from .sequences import SeqKind, seq


def fib_poly(n: int) -> BivarPoly:
    """F_n(x, y), memoized."""
    return seq(SeqKind.FIB, n)


def luc_poly(n: int) -> BivarPoly:
    """L_n(x, y), memoized."""
    return seq(SeqKind.LUC, n)
