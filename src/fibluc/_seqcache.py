"""Shared memoized tables of the base-ring F_n and L_n polynomials.

The identity catalog and the identity-language evaluator both reference
F and L at indices up to a few hundred, many times per run; recomputing
each one from scratch would dominate the runtime.  The tables live here,
outside the generator module, which stays cache-free.
"""

from __future__ import annotations

import threading

from .poly import BivarPoly
from .sequences import SeqKind, seq_terms

_lock = threading.Lock()
# each table holds the terms its generator has yielded so far
_tables = {kind: ([], seq_terms(kind)) for kind in SeqKind}


def _cached(kind: SeqKind, n: int) -> BivarPoly:
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    table, terms = _tables[kind]
    with _lock:
        while len(table) <= n:
            table.append(next(terms))
        return table[n]


def fib_poly(n: int) -> BivarPoly:
    """F_n(x, y), memoized."""
    return _cached(SeqKind.FIB, n)


def luc_poly(n: int) -> BivarPoly:
    """L_n(x, y), memoized."""
    return _cached(SeqKind.LUC, n)
