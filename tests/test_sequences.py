"""Generators, companion matrices, and the power-entry closed form."""

import sys
import threading
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
from fibluc import evaluate, identities, parse_expression, sequences
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


def test_the_names_the_tracer_patches_are_fib_and_luc():
    # bench/tracer.py counts F/L reads by patching these names; each is the
    # one function of its family, not a wrapper around it
    assert fib_poly is sequences.fib and luc_poly is sequences.luc
    assert identities.fib_poly is fib_poly and identities.luc_poly is luc_poly


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
    n = len(sequences._tables[SeqKind.FIB]) + 5
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


def test_the_generator_pair_has_one_table(monkeypatch):
    steps = []
    real_next_term = sequences._next_term

    def counting_next_term(*args):
        steps.append(None)
        return real_next_term(*args)

    monkeypatch.setattr(sequences, "_next_term", counting_next_term)
    top = len(sequences._tables[SeqKind.FIB]) + 19
    for n in range(top + 1):
        value = fib_poly(n)
        assert fib(n) is value
        assert seq(SeqKind.FIB, n) is value
        assert evaluate(parse_expression("F[n](x, y)"), {"n": n}) is value
    assert len(steps) == 20  # once for each of the 20 indices past the table
    for n in range(top, -1, -1):
        assert seq(SeqKind.FIB, n, X, Y) is fib_poly(n)
    assert len(steps) == 20


def test_the_generator_pair_walks_past_its_table(monkeypatch):
    # the table stops at a fixed index: past it F(x, y) keeps two terms, not all
    table = sequences._tables[SeqKind.LUC]
    top = len(table) + 3
    monkeypatch.setattr(sequences, "_TABLE_MAX", top)
    for n in range(top + 12, top - 4, -1):
        assert luc(n).terms == poly_luc(n)
    assert len(table) == top + 1
    assert luc(top) is table[top]


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


# -- seq resumes the last walk of each argument pair ---------------------------------

_PAIRS = [
    (1, 1),
    (2, -3),
    (Fraction(1, 2), Fraction(3)),
    (X, Y),
    (ONE, ONE),
    (luc_poly(2), -(Y**2)),
    (X * X + 2 * Y, -(Y**2)),
    *((DELTA * fib_poly(k), (-Y) ** k) for k in (1, 2, 3)),
    (QuadExtElem(X, ZERO), Y),
    # equal to (X, Y) and (QuadExtElem(X, ZERO), Y), with Fraction coefficients
    (BivarPoly({(1, 0): Fraction(1)}), Y),
    (QuadExtElem(BivarPoly({(1, 0): Fraction(1)}), ZERO), Y),
]
_TERMS = {
    (kind, i): list(islice(seq_terms(kind, *pair), 41))
    for kind in SeqKind
    for i, pair in enumerate(_PAIRS)
}


_REQUEST = st.tuples(st.sampled_from(SeqKind), st.integers(0, 40), st.integers(0, len(_PAIRS) - 1))


def _types(value):
    """The type of a value, down to the type of each polynomial coefficient."""
    if isinstance(value, QuadExtElem):
        return QuadExtElem, _types(value.a), _types(value.b)
    if isinstance(value, BivarPoly):
        return BivarPoly, sorted((m, type(c).__name__) for m, c in value.terms.items())
    return type(value)


@given(st.lists(_REQUEST))
def test_any_run_of_requests_gives_the_generator_terms(requests):
    for kind, n, i in requests:
        value = seq(kind, n, *_PAIRS[i])
        expected = _TERMS[kind, i][n]
        assert value == expected
        assert _types(value) == _types(expected)


def test_equal_arguments_of_different_types_walk_apart():
    assert type(seq(SeqKind.FIB, 5, 1, 1)) is int
    assert type(seq(SeqKind.FIB, 5, ONE, ONE)) is BivarPoly
    assert type(seq(SeqKind.FIB, 3, X, Y)) is BivarPoly
    assert type(seq(SeqKind.FIB, 3, QuadExtElem(X, ZERO), Y)) is QuadExtElem


def test_equal_polynomials_with_other_coefficient_types_walk_apart():
    rational_x = BivarPoly({(1, 0): Fraction(1)})
    assert rational_x == X and hash(rational_x) == hash(X)
    assert seq(SeqKind.LUC, 7, rational_x, Y) == seq(SeqKind.LUC, 7, X, Y)
    assert all(type(c) is int for c in seq(SeqKind.LUC, 7, X, Y).terms.values())
    assert all(type(c) is Fraction for c in seq(SeqKind.LUC, 8, rational_x, Y).terms.values())


def counting_one():
    """An int 1 of a class of its own, and the list of recurrence steps it takes as x."""
    steps = []

    class CountingInt(int):
        def __mul__(self, other):
            steps.append(other)
            return int(self) * other

    return CountingInt(1), steps


def test_ascending_requests_step_on_from_the_last_walk():
    one, steps = counting_one()
    fibs = int_seq(0, 1, 1, 1, 31)
    for n in range(31):
        assert seq(SeqKind.FIB, n, one, 1) == fibs[n]
    assert len(steps) == 29  # u_2 .. u_30 once each, not 1 + 2 + ... + 29
    steps.clear()
    assert seq(SeqKind.FIB, 29, one, 1) == fibs[29]  # the walk's previous term
    assert seq(SeqKind.FIB, 30, one, 1) == fibs[30]
    assert steps == []
    assert seq(SeqKind.FIB, 10, one, 1) == fibs[10]
    assert len(steps) == 9  # restarted from the seeds


def _expected_luc(n, x_arg):
    return next(islice(seq_terms(SeqKind.LUC, x_arg, Y), n, None))


def test_an_interrupted_walk_leaves_later_calls_correct(monkeypatch):
    x_arg = X + 5  # an argument pair no other test walks
    assert seq(SeqKind.LUC, 4, x_arg, Y) == _expected_luc(4, x_arg)
    real_mul = BivarPoly.__mul__
    calls = []

    def mul_failing_once(self, other):
        calls.append(None)
        if len(calls) == 3:  # inside the second step past the kept walk
            raise RuntimeError("interrupted")
        return real_mul(self, other)

    monkeypatch.setattr(BivarPoly, "__mul__", mul_failing_once)
    with pytest.raises(RuntimeError, match="interrupted"):
        seq(SeqKind.LUC, 9, x_arg, Y)
    assert seq(SeqKind.LUC, 9, x_arg, Y) == _expected_luc(9, x_arg)
    assert seq(SeqKind.LUC, 12, x_arg, Y) == _expected_luc(12, x_arg)


@pytest.mark.parametrize("others,steps_again", [(63, 0), (64, 9)])
def test_the_least_recently_used_walk_goes_first(others, steps_again):
    one, steps = counting_one()
    seq(SeqKind.FIB, 10, one, 1)
    assert len(steps) == 9
    for y_arg in range(others):
        seq(SeqKind.FIB, 2, 1, y_arg)
    steps.clear()
    assert seq(SeqKind.FIB, 10, one, 1) == 55
    assert len(steps) == steps_again


def test_threads_sharing_walks_get_the_generator_terms():
    # more threads than cores, switching often, over a few shared argument pairs
    pairs = [(1, 1), (2, -3), (luc_poly(2), -(Y**2)), (DELTA * fib_poly(2), Y**2), (X, Y)]
    terms = [list(islice(seq_terms(SeqKind.FIB, *pair), 41)) for pair in pairs]
    wrong = []

    def worker(seed):
        for step in range(300):
            i, n = (seed + step) % len(pairs), (seed * 7 + step * 13) % 41
            if seq(SeqKind.FIB, n, *pairs[i]) != terms[i][n]:
                wrong.append((i, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(sequences._walks) <= sequences._WALKS_MAX


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


@pytest.mark.parametrize(
    "a,b",
    [(1, 1), (3, -2), (Fraction(1, 2), 5), (X, Y), (X * X + 2 * Y, -(Y * Y)), (DELTA, -Y)],
)
def test_binomial_sum_is_the_next_fibonacci_term(a, b):
    for m in range(25):
        expansion = a ** (m % 2) * sequences.binomial_sum(m, a * a, b)
        assert expansion == seq(SeqKind.FIB, m + 1, a, b)
    # the sum lives in the ring of a^0 * b^0: int for (1, 1), QuadExtElem for (D, -y)
    assert type(sequences.binomial_sum(0, a * a, b)) is type(a**0 * b**0)
    with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
        sequences.binomial_sum(-1, a * a, b)


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
