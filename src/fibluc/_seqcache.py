"""Shared memoized tables of the base-ring F_n and L_n polynomials.

The identity catalog and the identity-language evaluator both reference
F and L at indices up to a few hundred, many times per run; recomputing
each one from scratch would dominate the runtime.  The tables live here,
outside the generator module, and keep every term they have computed;
:func:`~fibluc.sequences.seq` itself keeps only the last two terms of a few
recent walks.
"""

from __future__ import annotations

import threading
from itertools import islice

from .poly import BivarPoly
from .sequences import SeqKind, seq_terms

_lock = threading.Lock()
# each table holds the terms computed so far, next to the generator of the rest
_tables = {kind: ([], seq_terms(kind)) for kind in SeqKind}


def _cached(kind: SeqKind, n: int) -> BivarPoly:
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    with _lock:
        table, terms = _tables[kind]
        try:
            while len(table) <= n:
                table.append(next(terms))
        except BaseException:
            # a raising next() finishes the generator, and a term computed but not
            # appended is lost: restart at the first index the table lacks
            _tables[kind] = (table, islice(seq_terms(kind), len(table), None))
            raise
        return table[n]


def fib_poly(n: int) -> BivarPoly:
    """F_n(x, y), memoized."""
    return _cached(SeqKind.FIB, n)


def luc_poly(n: int) -> BivarPoly:
    """L_n(x, y), memoized."""
    return _cached(SeqKind.LUC, n)
