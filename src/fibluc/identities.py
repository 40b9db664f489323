"""Machine-checked catalog of identities for the bivariate F and L families.

Every case pairs two evaluators that compute the sides of one identity by
different routes wherever possible (explicit binomial sum vs. recurrence,
matrix power vs. closed form), so a passing cell is an oracle comparison
rather than a tautology.  Checks are exact: a cell passes only when both
sides are identical ring elements.

Index conventions: unary cases range over n, binary cases over (n, k); the
per-case minima keep all subscripts nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ._seqcache import fib_poly, luc_poly
from .poly import BivarPoly, DELTA, DISCRIMINANT, QuadExtElem, X, Y, ZERO
from .report import CellResult, CheckReport, DomainError, check_cell, grid_axis, select_ids
from .sequences import (
    PolyMatrix2,
    SeqKind,
    binomial,
    binomial_sum,
    matrix_A,
    matrix_B,
    matrix_BA,
    matrix_pow,
    power_entry_factor,
    seq,
)

_TWO_Y = 2 * Y
_X2_2Y = X * X + 2 * Y
_MAT_ZERO = PolyMatrix2(ZERO, ZERO, ZERO, ZERO)


@dataclass(frozen=True)
class IdentityCase:
    """One verifiable identity: id, whether it binds k, index minima, two side evaluators.

    Evaluators take the bound indices (n, or n and k) and return a ring
    value, a matrix, or a tuple of ring values for multi-part statements.
    """

    case_id: str
    description: str
    is_binary: bool
    n_min: int
    k_min: int
    lhs: Callable
    rhs: Callable


# -- shared building blocks -------------------------------------------------


def _delta_fib(k: int) -> QuadExtElem:
    """D * F_k, the extension-ring x argument of the square-root substitutions."""
    return QuadExtElem(ZERO, fib_poly(k))


def _even_index_sum(n: int) -> BivarPoly:
    """x * sum_{k=0}^{n-1} C(2n-1-k, k) (x^2+4y)^(n-k-1) (-y)^k."""
    return X * binomial_sum(2 * n - 1, DISCRIMINANT, -Y)


def _quadruple_index_sum(n: int) -> BivarPoly:
    """(x^2+2y) * sum_{k=0}^{n-1} C(2n-1-k, k) x^(2n-1-2k) (x^2+4y)^(n-1-k) y^(2k)."""
    return _X2_2Y * X * binomial_sum(2 * n - 1, X * X * DISCRIMINANT, Y * Y)


def _binomial_matrix_sum(n: int, power_shift: int) -> PolyMatrix2:
    """sum_{k=0}^{n} C(n, k) (2y)^(n-k) x^k A^(k + power_shift)."""
    a = matrix_A()
    a_power = matrix_pow(a, power_shift)
    total = _MAT_ZERO
    for k in range(n + 1):
        scalar = binomial(n, k) * _TWO_Y ** (n - k) * X**k
        total = total + a_power * scalar
        a_power = a_power * a
    return total


# -- the catalog --------------------------------------------------------------


def build_catalog() -> list[IdentityCase]:
    """The 31 cases EQ01..EQ31, in order."""

    def unary(case_id, description, n_min, lhs, rhs):
        return IdentityCase(case_id, description, False, n_min, 0, lhs, rhs)

    def binary(case_id, description, n_min, k_min, lhs, rhs):
        return IdentityCase(case_id, description, True, n_min, k_min, lhs, rhs)

    return [
        unary(
            "EQ01",
            "B^n = sum_k C(n,k) (2y)^(n-k) x^k A^k",
            0,
            lambda n: matrix_pow(matrix_B(), n),
            lambda n: _binomial_matrix_sum(n, 0),
        ),
        unary(
            "EQ02",
            "A^n = [[F(n+1), F(n)], [y F(n), y F(n-1)]]",
            1,
            lambda n: matrix_pow(matrix_A(), n),
            lambda n: PolyMatrix2(
                fib_poly(n + 1), fib_poly(n), Y * fib_poly(n), Y * fib_poly(n - 1)
            ),
        ),
        unary(
            "EQ03",
            "e12(B^n) = x sum_k C(n-1-k,k) (x^2+4y)^(n-1-k) (-y)^k",
            1,
            lambda n: matrix_pow(matrix_B(), n).e12,
            # tr B = x^2+4y and det B = y(x^2+4y)
            lambda n: X * power_entry_factor(DISCRIMINANT, Y * DISCRIMINANT, n - 1),
        ),
        unary(
            "EQ04",
            "x sum_k C(2n-1-k,k) (x^2+4y)^(n-k-1) (-y)^k = F(2n)",
            1,
            _even_index_sum,
            lambda n: fib_poly(2 * n),
        ),
        unary(
            "EQ05",
            "tr(BA) = x(x^2+4y) and det(BA) = -y^2(x^2+4y)",
            0,
            lambda n: (matrix_BA().trace(), matrix_BA().det()),
            lambda n: (X * DISCRIMINANT, -(Y * Y) * DISCRIMINANT),
        ),
        unary(
            "EQ06",
            "e12((BA)^n) = (x^2+2y) sum_k C(n-1-k,k) x^(n-1-2k) (x^2+4y)^(n-1-k) y^(2k)",
            1,
            lambda n: matrix_pow(matrix_BA(), n).e12,
            # tr BA and det BA as EQ05 states them
            lambda n: _X2_2Y
            * power_entry_factor(X * DISCRIMINANT, -(Y * Y) * DISCRIMINANT, n - 1),
        ),
        unary(
            "EQ07",
            "(BA)^n = sum_k C(n,k) (2y)^(n-k) x^k A^(n+k)",
            0,
            lambda n: matrix_pow(matrix_BA(), n),
            lambda n: _binomial_matrix_sum(n, n),
        ),
        unary(
            "EQ08",
            "(x^2+2y) sum_k C(2n-1-k,k) x^(2n-1-2k) (x^2+4y)^(n-1-k) y^(2k) = F(4n)",
            1,
            _quadruple_index_sum,
            lambda n: fib_poly(4 * n),
        ),
        unary(
            "EQ09",
            "the F(4n) sum equals the F(2n) sum taken at doubled index",
            1,
            _quadruple_index_sum,
            lambda n: _even_index_sum(2 * n),
        ),
        unary(
            "EQ10",
            "(x+D)^n = 2^(n-1) (L(n) + D F(n)), (x-D)^n = 2^(n-1) (L(n) - D F(n))",
            1,
            lambda n: ((X + DELTA) ** n, (X - DELTA) ** n),
            lambda n: (
                QuadExtElem(luc_poly(n), fib_poly(n)) * 2 ** (n - 1),
                QuadExtElem(luc_poly(n), -fib_poly(n)) * 2 ** (n - 1),
            ),
        ),
        unary(
            "EQ11",
            "L(n)^2 + (-1)^(n+1) 4 y^n = (x^2+4y) F(n)^2",
            0,
            lambda n: luc_poly(n) ** 2 - 4 * (-Y) ** n,
            lambda n: DISCRIMINANT * fib_poly(n) ** 2,
        ),
        binary(
            "EQ12",
            "F(n)(L(k), (-1)^(k+1) y^k) F(k) = F(nk)",
            0,
            1,
            lambda n, k: seq(SeqKind.FIB, n, luc_poly(k), -((-Y) ** k)) * fib_poly(k),
            lambda n, k: fib_poly(n * k),
        ),
        binary(
            "EQ13",
            "L(n)(L(k), (-1)^(k+1) y^k) = L(nk)",
            0,
            1,
            lambda n, k: seq(SeqKind.LUC, n, luc_poly(k), -((-Y) ** k)),
            lambda n, k: luc_poly(n * k),
        ),
        unary(
            "EQ14",
            "F(2n) = x F(n)(x^2+2y, -y^2); F(3n) = (x^2+y) F(n)(x^3+3xy, y^3); "
            "F(4n) = x(x^2+2y) F(n)(x^4+4x^2y+2y^2, -y^4)",
            0,
            lambda n: (fib_poly(2 * n), fib_poly(3 * n), fib_poly(4 * n)),
            lambda n: (
                X * seq(SeqKind.FIB, n, _X2_2Y, -(Y**2)),
                (X * X + Y) * seq(SeqKind.FIB, n, X**3 + 3 * X * Y, Y**3),
                X * _X2_2Y * seq(SeqKind.FIB, n, X**4 + 4 * X * X * Y + 2 * Y * Y, -(Y**4)),
            ),
        ),
        unary(
            "EQ15",
            "L(n) L(n+2) - L(n+1)^2 = (-1)^n y^n (x^2+4y)",
            0,
            lambda n: luc_poly(n) * luc_poly(n + 2) - luc_poly(n + 1) ** 2,
            lambda n: (-Y) ** n * DISCRIMINANT,
        ),
        binary(
            "EQ16",
            "L(kn) L(k(n+2)) - L(k(n+1))^2 = (-y)^(nk) (x^2+4y) F(k)^2",
            0,
            1,
            lambda n, k: luc_poly(k * n) * luc_poly(k * (n + 2)) - luc_poly(k * (n + 1)) ** 2,
            lambda n, k: (-Y) ** (n * k) * DISCRIMINANT * fib_poly(k) ** 2,
        ),
        unary(
            "EQ17",
            "L(n)^2 + 2 (-1)^(n+1) y^n = L(2n)",
            0,
            lambda n: luc_poly(n) ** 2 - 2 * (-Y) ** n,
            lambda n: luc_poly(2 * n),
        ),
        binary(
            "EQ18",
            "F(2n)(L(k), (-1)^(k+1) y^k) = L(k) F(n)(L(2k), -y^(2k))",
            0,
            1,
            lambda n, k: seq(SeqKind.FIB, 2 * n, luc_poly(k), -((-Y) ** k)),
            lambda n, k: luc_poly(k) * seq(SeqKind.FIB, n, luc_poly(2 * k), -(Y ** (2 * k))),
        ),
        binary(
            "EQ19",
            "F(2k) sum_r C(2n-1-r,r) (x^2+4y)^(n-1-r) F(k)^(2(n-1-r)) (-y)^(rk) = F(2kn)",
            1,
            1,
            lambda n, k: fib_poly(2 * k)
            * binomial_sum(2 * n - 1, DISCRIMINANT * fib_poly(k) ** 2, (-Y) ** k),
            lambda n, k: fib_poly(2 * k * n),
        ),
        unary(
            "EQ20",
            "y F(n-1) + F(n+1) = L(n)",
            1,
            lambda n: Y * fib_poly(n - 1) + fib_poly(n + 1),
            lambda n: luc_poly(n),
        ),
        binary(
            "EQ21",
            "(-1)^(k+1) y^k F(k(n-1)) + F(k(n+1)) = F(k) L(nk)",
            1,
            1,
            lambda n, k: -((-Y) ** k) * fib_poly(k * (n - 1)) + fib_poly(k * (n + 1)),
            lambda n, k: fib_poly(k) * luc_poly(n * k),
        ),
        unary(
            "EQ22",
            "L(n+2)^2 + y L(n+1)^2 = (x^2+2y) L(2n+2) + x y L(2n+1)",
            0,
            lambda n: luc_poly(n + 2) ** 2 + Y * luc_poly(n + 1) ** 2,
            lambda n: _X2_2Y * luc_poly(2 * n + 2) + X * Y * luc_poly(2 * n + 1),
        ),
        binary(
            "EQ23",
            "L(k(n+2))^2 + (-1)^(k+1) y^k L(k(n+1))^2 = "
            "L(2k) L(k(2n+2)) + (-1)^(k+1) y^k L(k) L(k(2n+1))",
            0,
            1,
            lambda n, k: luc_poly(k * (n + 2)) ** 2 - (-Y) ** k * luc_poly(k * (n + 1)) ** 2,
            lambda n, k: luc_poly(2 * k) * luc_poly(k * (2 * n + 2))
            - (-Y) ** k * luc_poly(k) * luc_poly(k * (2 * n + 1)),
        ),
        binary(
            "EQ24",
            "F(2n+1)(D F(k), (-1)^k y^k) L(k) = L(k(2n+1))",
            0,
            1,
            lambda n, k: seq(SeqKind.FIB, 2 * n + 1, _delta_fib(k), (-Y) ** k) * luc_poly(k),
            lambda n, k: luc_poly(k * (2 * n + 1)),
        ),
        binary(
            "EQ25",
            "F(2n)(D F(k), (-1)^k y^k) L(k) = D F(2kn)",
            0,
            1,
            lambda n, k: seq(SeqKind.FIB, 2 * n, _delta_fib(k), (-Y) ** k) * luc_poly(k),
            lambda n, k: DELTA * fib_poly(2 * k * n),
        ),
        binary(
            "EQ26",
            "L(2n+1)(D F(k), (-1)^k y^k) = D F(k(2n+1))",
            0,
            1,
            lambda n, k: seq(SeqKind.LUC, 2 * n + 1, _delta_fib(k), (-Y) ** k),
            lambda n, k: DELTA * fib_poly(k * (2 * n + 1)),
        ),
        binary(
            "EQ27",
            "L(2n)(D F(k), (-1)^k y^k) = L(2kn)",
            0,
            1,
            lambda n, k: seq(SeqKind.LUC, 2 * n, _delta_fib(k), (-Y) ** k),
            lambda n, k: luc_poly(2 * k * n),
        ),
        binary(
            "EQ28",
            "(-1)^k y^k L(k(2n-1)) + L(k(2n+1)) = L(2kn) L(k)",
            1,
            1,
            lambda n, k: (-Y) ** k * luc_poly(k * (2 * n - 1)) + luc_poly(k * (2 * n + 1)),
            lambda n, k: luc_poly(2 * k * n) * luc_poly(k),
        ),
        binary(
            "EQ29",
            "(-1)^k y^k F(2kn) + F(k(2n+2)) = F(k(2n+1)) L(k)",
            0,
            1,
            lambda n, k: (-Y) ** k * fib_poly(2 * k * n) + fib_poly(k * (2 * n + 2)),
            lambda n, k: fib_poly(k * (2 * n + 1)) * luc_poly(k),
        ),
        binary(
            "EQ30",
            "L(2kn) L(k(2n+2)) - (x^2+4y) F(k(2n+1))^2 = y^(2nk) L(k)^2",
            0,
            1,
            lambda n, k: luc_poly(2 * k * n) * luc_poly(k * (2 * n + 2))
            - DISCRIMINANT * fib_poly(k * (2 * n + 1)) ** 2,
            lambda n, k: Y ** (2 * n * k) * luc_poly(k) ** 2,
        ),
        binary(
            "EQ31",
            "(x^2+4y) F(k(2n-1)) F(k(2n+1)) - L(2kn)^2 = -(-y)^(k(2n-1)) L(k)^2",
            1,
            1,
            lambda n, k: DISCRIMINANT * fib_poly(k * (2 * n - 1)) * fib_poly(k * (2 * n + 1))
            - luc_poly(2 * k * n) ** 2,
            lambda n, k: -((-Y) ** (k * (2 * n - 1))) * luc_poly(k) ** 2,
        ),
    ]


def catalog_by_id() -> dict[str, IdentityCase]:
    return {case.case_id: case for case in build_catalog()}


# -- checking ------------------------------------------------------------------


def check_case(case: IdentityCase, n: int, k: int | None = None) -> CellResult:
    """Evaluate one case at one grid point; k is ignored for unary cases."""
    if n < case.n_min:
        raise DomainError(f"{case.case_id}: n={n} is below the case minimum {case.n_min}")
    if not case.is_binary:
        return check_cell(case.case_id, n, None, lambda: (case.lhs(n), case.rhs(n)))
    if k is None:
        raise DomainError(f"{case.case_id} needs a k index")
    if k < case.k_min:
        raise DomainError(f"{case.case_id}: k={k} is below the case minimum {case.k_min}")
    return check_cell(case.case_id, n, k, lambda: (case.lhs(n, k), case.rhs(n, k)))


def check_grid_bounds(n_max: int, k_max: int) -> None:
    """The grid upper bounds every catalog or corpus run needs: each at
    least 1, and each axis 0..bound one that ``report.grid_axis`` accepts."""
    if n_max < 1 or k_max < 1:
        raise ValueError("n_max and k_max must be at least 1")
    grid_axis("n", 0, n_max)
    grid_axis("k", 0, k_max)


def run_catalog(
    n_max: int,
    k_max: int,
    ids: list[str] | None = None,
    cases: list[IdentityCase] | None = None,
) -> CheckReport:
    """Check the selected cases at every admissible grid point.

    The grid for a case is n in [n_min, n_max] crossed with k in
    [k_min, k_max] for binary cases.  Cells come in the order checked: the
    cases' own order (catalog order by default), then n, then k.
    """
    check_grid_bounds(n_max, k_max)
    selected = select_ids(build_catalog() if cases is None else cases, ids, "identity")
    cells: list[CellResult] = []
    for case in selected:
        ks = range(case.k_min, k_max + 1) if case.is_binary else [None]
        cells += [check_case(case, n, k) for n in range(case.n_min, n_max + 1) for k in ks]
    return CheckReport.from_cells(cells)
