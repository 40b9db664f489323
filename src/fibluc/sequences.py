"""Generators for the bivariate Fibonacci and Lucas families, the companion
matrices behind them, and the trace/determinant closed form for the (1,2)
entry of 2x2 matrix powers.

The two families satisfy the same recurrence ``u_m = x*u_{m-1} + y*u_{m-2}``
and differ only in seeds: F starts (0, 1), L starts (2, x).  The generator is
deliberately generic over its arguments so the same code produces classic
polynomials, polynomials composed with other polynomials, extension-ring
values, and plain integer or rational specializations.

:func:`seq` returns every F and L value the package uses, and keeps terms in
one of two ways.  For the generator pair (x, y) it keeps every term of F and
of L computed so far up to index 640, in one list per kind.  For each of the
last 64 other argument pairs it was called with, and for the generator pair
past index 640, it keeps the last two terms of its most recent walk, so a
request at the same or a higher index steps on from there; those terms stay
alive until 64 other pairs have been used since.  A lock guards each kind of
store, so everything here is safe to invoke concurrently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Iterator

from .poly import ONE, BivarPoly, QuadExtElem, X, Y, ZERO, binary_power


class SeqKind(Enum):
    FIB = "F"
    LUC = "L"


def _seeds(kind: SeqKind, x_arg) -> tuple:
    """(u_0, u_1): (0, 1) for F and (2, x_arg) for L, in the ring of x_arg."""
    one = x_arg**0
    if kind is SeqKind.FIB:
        return one * 0, one
    return one * 2, x_arg


def _next_term(x_arg, y_arg, u_prev, u_cur):
    """u_{m+1} from u_{m-1} and u_m: the one step of the recurrence."""
    return x_arg * u_cur + y_arg * u_prev


def seq_terms(kind: SeqKind, x_arg=X, y_arg=Y) -> Iterator:
    """u_0, u_1, ... of u_m = x_arg*u_{m-1} + y_arg*u_{m-2} with seeds by kind.

    Fib seeds are (0, 1), Luc seeds are (2, x_arg).  Arguments may be
    polynomials, extension elements, integers, or Fractions; the terms are
    computed exactly in whatever ring they span.  Each term is computed only
    when it is requested, never one ahead.
    """
    u_prev, u_cur = _seeds(kind, x_arg)
    yield u_prev
    while True:
        yield u_cur
        u_prev, u_cur = u_cur, _next_term(x_arg, y_arg, u_prev, u_cur)


#: Argument pairs whose last walk :func:`seq` keeps; the least recently used goes first.
#: A catalog grid keeps about 1.5 pairs live per k (the (10,6) grid needs 12,
#: k up to 20 needs 32), so this serves k ranges up to about 40; a wider one
#: cycles through more pairs than this and restarts every walk.
_WALKS_MAX = 64
_walks_lock = threading.Lock()
# (kind, _types(x_arg), x_arg, _types(y_arg), y_arg) -> (m, u_{m-1}, u_m), oldest use first
_walks: dict = {}


def _types(value):
    """The type of value, with the coefficient types of a ring element.

    Equal values can differ here (x with coefficient 1 or Fraction(1)), and
    their terms would differ in the same way.
    """
    kind = type(value)
    if kind is QuadExtElem:
        return kind, _types(value.a), _types(value.b)
    if kind is BivarPoly:
        return kind, frozenset(map(type, value.terms.values()))
    return kind


#: Every term of F(x, y) and of L(x, y) computed so far, up to index _TABLE_MAX.
#: A catalog grid asks for lower indices again and again (8x slower on the walk
#: alone), but a table to index n grows as n^3 (17 MB per kind at 640), so it
#: stops past the 620 of ``catalog --n-max 30 --k-max 10``.  A fill appends
#: whole terms only, so one that is interrupted leaves a correct table.
_TABLE_MAX = 640
_tables_lock = threading.Lock()
_tables = {kind: list(_seeds(kind, X)) for kind in SeqKind}


def seq(kind: SeqKind, n: int, x_arg=X, y_arg=Y):
    """n-th term of :func:`seq_terms`: every F and L value comes from here.

    For the generator pair itself (``x_arg is X and y_arg is Y``) and n up
    to ``_TABLE_MAX`` the term is read from the kind's table, extended to n
    under its lock.  The table keeps every term: ``seq(FIB, 600)`` keeps
    F_0 .. F_600 alive for the life of the process.  Any other pair, and the generator
    pair past ``_TABLE_MAX``, steps on from its last walk.

    A walk is keyed by the kind and the argument pair with their types and
    coefficient types, so only arguments that compute alike share one, and
    the arguments must be hashable.  A request below the walk's last two
    terms restarts from the seeds.  The walk is taken out of its store while
    it steps, so one that is interrupted is dropped, not left half done.
    A walk holds its last two terms until 64 other pairs have been used
    since: ``seq(FIB, 100000, 1, 1)`` keeps F_99999 and F_100000 alive until then.
    """
    if n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {n}")
    if x_arg is X and y_arg is Y and n <= _TABLE_MAX:
        with _tables_lock:
            table = _tables[kind]
            while len(table) <= n:
                table.append(_next_term(X, Y, table[-2], table[-1]))
            return table[n]
    key = (kind, _types(x_arg), x_arg, _types(y_arg), y_arg)
    with _walks_lock:
        walk = _walks.pop(key, None)
    if walk is None or walk[0] - 1 > n:
        walk = (1, *_seeds(kind, x_arg))
    m, u_prev, u_cur = walk
    while m < n:
        u_prev, u_cur = u_cur, _next_term(x_arg, y_arg, u_prev, u_cur)
        m += 1
    with _walks_lock:
        _walks[key] = (m, u_prev, u_cur)
        if len(_walks) > _WALKS_MAX:
            del _walks[next(iter(_walks))]
    return u_cur if m == n else u_prev


def fib(n: int, x_arg=X, y_arg=Y):
    return seq(SeqKind.FIB, n, x_arg, y_arg)


def luc(n: int, x_arg=X, y_arg=Y):
    return seq(SeqKind.LUC, n, x_arg, y_arg)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError(f"upper index must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class PolyMatrix2:
    """2x2 matrix over a commutative ring of duck-typed entries."""

    e11: object
    e12: object
    e21: object
    e22: object

    def __mul__(self, other):
        if isinstance(other, PolyMatrix2):
            return PolyMatrix2(
                self.e11 * other.e11 + self.e12 * other.e21,
                self.e11 * other.e12 + self.e12 * other.e22,
                self.e21 * other.e11 + self.e22 * other.e21,
                self.e21 * other.e12 + self.e22 * other.e22,
            )
        # anything else is a scalar acting entrywise
        return PolyMatrix2(self.e11 * other, self.e12 * other, self.e21 * other, self.e22 * other)

    def __rmul__(self, other):
        return self * other

    def __add__(self, other: PolyMatrix2) -> PolyMatrix2:
        return PolyMatrix2(
            self.e11 + other.e11,
            self.e12 + other.e12,
            self.e21 + other.e21,
            self.e22 + other.e22,
        )

    def trace(self):
        return self.e11 + self.e22

    def det(self):
        return self.e11 * self.e22 - self.e12 * self.e21

    def identity_like(self) -> PolyMatrix2:
        """Identity matrix over the same ring as this matrix's entries."""
        one = self.e11**0
        zero = one * 0
        return PolyMatrix2(one, zero, zero, one)

    def __str__(self) -> str:
        return f"[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"


def matrix_pow(m: PolyMatrix2, n: int) -> PolyMatrix2:
    """m**n by binary squaring; n = 0 gives the identity."""
    return binary_power(m, n, m.identity_like())


def matrix_A() -> PolyMatrix2:
    """Companion matrix [[x, 1], [y, 0]] of the recurrence."""
    return PolyMatrix2(X, ONE, Y, ZERO)


def matrix_B() -> PolyMatrix2:
    """[[x^2+2y, x], [xy, 2y]], which equals 2y*I + x*A."""
    return PolyMatrix2(X * X + 2 * Y, X, X * Y, 2 * Y)


def matrix_BA() -> PolyMatrix2:
    return matrix_B() * matrix_A()


def power_entry_factor(trace_value, det_value, m: int):
    """Closed form sum_{k=0..m//2} C(m-k, k) * trace^(m-2k) * (-det)^k.

    For any 2x2 matrix M over a commutative ring, the (1,2) entry of M^n
    equals ``e12(M) * power_entry_factor(tr M, det M, n - 1)`` for n >= 1:
    the factor is the generalized Fibonacci term of the characteristic
    polynomial, expanded as an explicit binomial sum.
    """
    if m < 0:
        raise ValueError(f"index must be nonnegative, got {m}")
    neg_det = -det_value
    total = (trace_value**0) * 0
    for k in range(m // 2 + 1):
        total = total + binomial(m - k, k) * trace_value ** (m - 2 * k) * neg_det**k
    return total


_HALF = Fraction(1, 2)

#: Root (x + D)/2 of t^2 = x*t + y in the extension ring.
ALPHA = QuadExtElem(X * _HALF, ONE * _HALF)
#: Conjugate root (x - D)/2.
BETA = ALPHA.conjugate()


def alpha_power(n: int) -> QuadExtElem:
    """alpha^n written on the (L, F) basis: (L_n + D*F_n) / 2."""
    return QuadExtElem(luc(n) * _HALF, fib(n) * _HALF)


def beta_power(n: int) -> QuadExtElem:
    """beta^n written on the (L, F) basis: (L_n - D*F_n) / 2."""
    return alpha_power(n).conjugate()
