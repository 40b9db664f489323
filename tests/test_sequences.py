"""Generators, companion matrices, and the power-entry closed form."""

from fractions import Fraction
from itertools import islice

import hypothesis.strategies as st
import pytest
from hypothesis import given

from fibluc import (
    BivarPoly,
    ALPHA,
    BETA,
    DELTA,
    ONE,
    PolyMatrix2,
    QuadExtElem,
    SeqKind,
    X,
    Y,
    ZERO,
    alpha_power,
    beta_power,
    binomial,
    fib,
    luc,
    matrix_A,
    matrix_B,
    matrix_BA,
    matrix_pow,
    power_entry_factor,
    seq,
    seq_terms,
)
from fibluc import _seqcache
from fibluc._seqcache import fib_poly, luc_poly
from oracles import int_seq, poly_fib, poly_luc


def test_seeds():
    assert seq(SeqKind.FIB, 0) == ZERO
    assert seq(SeqKind.FIB, 1) == ONE
    assert seq(SeqKind.LUC, 0) == 2 * ONE
    assert seq(SeqKind.LUC, 1) == X


def test_lucas_three():
    assert luc(3) == X**3 + 3 * X * Y


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        seq(SeqKind.FIB, -1)


def test_cached_table_rejects_a_negative_index():
    with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
        fib_poly(-1)


def test_symbolic_terms_match_oracle():
    for n in range(0, 25):
        assert fib(n).terms == poly_fib(n)
        assert luc(n).terms == poly_luc(n)


def test_cached_tables_match_oracle():
    for n in range(0, 65):
        assert fib_poly(n).terms == poly_fib(n)
        assert luc_poly(n).terms == poly_luc(n)


def test_interrupted_cache_fill_recovers(monkeypatch):
    # an exception inside the fill must not break the table for later calls
    n = len(_seqcache._tables[SeqKind.FIB][0]) + 5
    real_mul = BivarPoly.__mul__
    calls = []

    def mul_failing_once(self, other):
        calls.append(None)
        if len(calls) == 3:  # inside the second term this fill computes
            raise RuntimeError("interrupted")
        return real_mul(self, other)

    monkeypatch.setattr(BivarPoly, "__mul__", mul_failing_once)
    with pytest.raises(RuntimeError, match="interrupted"):
        fib_poly(n)
    assert fib_poly(n).terms == poly_fib(n)


def test_terms_are_computed_only_when_requested():
    steps = []

    class CountingInt(int):
        """An int that records each recurrence step it is the x argument of."""

        def __mul__(self, other):
            steps.append(other)
            return int(self) * other

    assert seq(SeqKind.FIB, 6, CountingInt(1), 1) == 8
    assert len(steps) == 5  # u_2 .. u_6
    steps.clear()
    assert list(islice(seq_terms(SeqKind.LUC, CountingInt(1), 1), 3)) == [2, 1, 3]
    assert len(steps) == 1  # u_2 only, not u_3


def test_composed_argument_generator():
    # x * F_4(x^2+2y, -y^2) = F_8
    value = X * seq(SeqKind.FIB, 4, X * X + 2 * Y, -(Y**2))
    assert value.terms == poly_fib(8)


def test_numeric_arguments():
    fibs = int_seq(0, 1, 1, 1, 12)
    for n in range(12):
        assert seq(SeqKind.FIB, n, 1, 1) == fibs[n]
    assert seq(SeqKind.FIB, 5, Fraction(2), Fraction(1)) == 29


# -- matrices ------------------------------------------------------------------


def test_matrix_b_display():
    b = matrix_B()
    assert b == PolyMatrix2(X * X + 2 * Y, X, X * Y, 2 * Y)


def test_matrix_b_decomposition():
    a = matrix_A()
    identity = a.identity_like()
    assert matrix_B() == identity * (2 * Y) + a * X


def test_matrix_ba_display_and_trace_det():
    ba = matrix_BA()
    assert ba == PolyMatrix2(
        X**3 + 3 * X * Y, X * X + 2 * Y, X * X * Y + 2 * Y**2, X * Y
    )
    disc = X * X + 4 * Y
    assert ba.trace() == X**3 + 4 * X * Y
    assert ba.trace() == X * disc
    assert ba.det() == -(Y**2) * disc
    assert ba.det() == matrix_B().det() * matrix_A().det()


def test_matrix_pow_small_cases():
    a = matrix_A()
    assert matrix_pow(a, 1) == a
    assert matrix_pow(a, 0) == a.identity_like()
    for n in range(1, 11):
        assert matrix_pow(a, n).e12 == fib(n)
    assert matrix_pow(matrix_B(), 2).e12 == X * (X * X + 4 * Y)


def test_matrix_pow_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="exponent must be a nonnegative integer, got -1"):
        matrix_pow(matrix_A(), -1)


def test_matrix_entry_display():
    # A^n = [[F(n+1), F(n)], [y F(n), y F(n-1)]] for n >= 1
    for n in range(1, 9):
        power = matrix_pow(matrix_A(), n)
        assert power.e11 == fib(n + 1)
        assert power.e21 == Y * fib(n)
        assert power.e22 == Y * fib(n - 1)


def test_scalar_acts_from_either_side_and_matrix_renders_its_entries():
    assert 2 * matrix_A() == matrix_A() * 2 == PolyMatrix2(2 * X, 2, 2 * Y, 0)
    assert str(matrix_A()) == "[[x, 1], [y, 0]]"


def test_matrix_mul_associative_identity_neutral():
    a, b = matrix_A(), matrix_B()
    c = matrix_BA()
    assert (a * b) * c == a * (b * c)
    identity = a.identity_like()
    assert a * identity == a
    assert identity * a == a


small_entry = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-4, 4), max_size=3
).map(BivarPoly)
matrices = st.builds(PolyMatrix2, small_entry, small_entry, small_entry, small_entry)


@given(matrices, matrices, matrices)
def test_matrix_mul_associative_property(m1, m2, m3):
    assert (m1 * m2) * m3 == m1 * (m2 * m3)


@given(matrices)
def test_matrix_identity_neutral_property(m):
    identity = m.identity_like()
    assert m * identity == m
    assert identity * m == m


def test_determinant_law():
    a = matrix_A()
    for n in range(0, 21):
        assert matrix_pow(a, n).det() == (-Y) ** n
    for n in range(1, 21):
        assert fib(n + 1) * (Y * fib(n - 1)) - Y * fib(n) ** 2 == (-Y) ** n


def test_doubling_identity():
    for n in range(0, 17):
        assert fib(2 * n) == fib(n) * luc(n)


# -- binomial ------------------------------------------------------------------


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


# -- closed form for the (1,2) entry -----------------------------------------------


def test_entry_factor_base_case():
    assert power_entry_factor(X, -Y, 0) == ONE


def test_entry_factor_rejects_a_negative_index():
    with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
        power_entry_factor(X, Y, -1)


@pytest.mark.parametrize("name,matrix", [("A", matrix_A()), ("B", matrix_B()), ("BA", matrix_BA())])
def test_entry_factor_reproduces_matrix_powers(name, matrix):
    trace_value = matrix.trace()
    det_value = matrix.det()
    for n in range(1, 9):
        expected = matrix_pow(matrix, n).e12
        assert matrix.e12 * power_entry_factor(trace_value, det_value, n - 1) == expected


# -- root powers in the extension ring ---------------------------------------------


def test_alpha_seed_values():
    half = Fraction(1, 2)
    assert alpha_power(1) == QuadExtElem(X * half, ONE * half)
    assert alpha_power(1) == ALPHA
    assert alpha_power(0) == QuadExtElem(ONE, ZERO)
    assert beta_power(1) == BETA


def test_root_power_rejects_a_negative_index():
    # the index is checked once, by the sequence alpha_power reads L and F from
    with pytest.raises(ValueError, match="sequence index must be nonnegative, got -1"):
        alpha_power(-1)


def test_root_power_decomposition():
    for n in range(0, 11):
        assert alpha_power(n) + beta_power(n) == QuadExtElem(luc(n), ZERO)
        assert alpha_power(n) - beta_power(n) == QuadExtElem(ZERO, fib(n))


def test_root_power_product():
    for n in range(0, 13):
        assert alpha_power(n) * beta_power(n) == QuadExtElem((-Y) ** n, ZERO)


def test_root_powers_match_repeated_multiplication():
    for n in range(0, 13):
        assert alpha_power(n) == ALPHA**n
        assert beta_power(n) == BETA**n


def test_root_sum_and_difference():
    assert ALPHA + BETA == X
    assert ALPHA - BETA == DELTA
    assert ALPHA * BETA == -Y


def test_generator_over_extension_arguments():
    # the generator accepts extension-ring arguments
    value = seq(SeqKind.LUC, 2, DELTA, Y)
    assert value == DELTA * DELTA + 2 * Y
