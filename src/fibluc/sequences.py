"""Generators for the bivariate Fibonacci and Lucas families, the companion
matrices behind them, and the trace/determinant closed form for the (1,2)
entry of 2x2 matrix powers.

The two families satisfy the same recurrence ``u_m = x*u_{m-1} + y*u_{m-2}``
and differ only in seeds: F starts (0, 1), L starts (2, x).  The generator is
deliberately generic over its arguments so the same code produces classic
polynomials, polynomials composed with other polynomials, extension-ring
values, and plain integer or rational specializations.

No function here keeps state between calls; everything is safe to invoke
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Iterator

from .poly import ONE, QuadExtElem, X, Y, ZERO, binary_power


class SeqKind(Enum):
    FIB = "F"
    LUC = "L"


def seq_terms(kind: SeqKind, x_arg=X, y_arg=Y) -> Iterator:
    """u_0, u_1, ... of u_m = x_arg*u_{m-1} + y_arg*u_{m-2} with seeds by kind.

    Fib seeds are (0, 1), Luc seeds are (2, x_arg).  Arguments may be
    polynomials, extension elements, integers, or Fractions; the terms are
    computed exactly in whatever ring they span.  Each term is computed only
    when it is requested, never one ahead.
    """
    one = x_arg**0
    if kind is SeqKind.FIB:
        u_prev, u_cur = one * 0, one
    else:
        u_prev, u_cur = one * 2, x_arg
    yield u_prev
    while True:
        yield u_cur
        u_prev, u_cur = u_cur, x_arg * u_cur + y_arg * u_prev


def seq(kind: SeqKind, n: int, x_arg=X, y_arg=Y):
    """n-th term of :func:`seq_terms`."""
    if n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {n}")
    return next(islice(seq_terms(kind, x_arg, y_arg), n, None))


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
