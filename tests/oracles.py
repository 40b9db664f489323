"""Independent oracles used to compute and freeze expected values.

Nothing here touches the package's polynomial type: a polynomial is a bare
dict mapping (x_exp, y_exp) to Fraction, and the recurrences are unrolled
with local helpers only, so comparisons against the package are genuine
cross-checks rather than tautologies.
"""

from fractions import Fraction


def d_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        total = out.get(mono, Fraction(0)) + coeff
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def d_shift(p: dict, di: int, dj: int) -> dict:
    """Multiply by x^di * y^dj."""
    return {(i + di, j + dj): coeff for (i, j), coeff in p.items()}


def d_mul(a: dict, b: dict) -> dict:
    """Schoolbook product of two term dicts."""
    out: dict = {}
    for (i, j), ca in a.items():
        out = d_add(out, {(i + p, j + q): ca * cb for (p, q), cb in b.items()})
    return out


def poly_fib(n: int) -> dict:
    """F_n(x, y) as a bare term dict, via the recurrence F = x*F' + y*F''."""
    prev: dict = {}
    cur: dict = {(0, 0): Fraction(1)}
    for _ in range(n):
        prev, cur = cur, d_add(d_shift(cur, 1, 0), d_shift(prev, 0, 1))
    return prev


def poly_luc(n: int) -> dict:
    """L_n(x, y) as a bare term dict."""
    prev: dict = {(0, 0): Fraction(2)}
    cur: dict = {(1, 0): Fraction(1)}
    for _ in range(n):
        prev, cur = cur, d_add(d_shift(cur, 1, 0), d_shift(prev, 0, 1))
    return prev


def int_seq(s0: int, s1: int, x0: int, y0: int, count: int) -> list[int]:
    """First `count` terms of u_m = x0*u_{m-1} + y0*u_{m-2} over plain ints."""
    out = [s0, s1]
    while len(out) < count:
        out.append(x0 * out[-1] + y0 * out[-2])
    return out[:count]
