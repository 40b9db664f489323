"""Generators, companion matrices, and the power-entry closed form."""

import re
import sys
import threading
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from fibluc import (
    BivarPoly,
    ALPHA,
    BETA,
    DELTA,
    DISCRIMINANT,
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
from fibluc import cli, evaluate, identities, parse_expression, sequences
from fibluc._seqcache import fib_poly, luc_poly
from fibluc.poly import _LazyPoly, _grade, binary_power
from oracles import d_add, d_mul, int_seq, poly_fib, poly_luc


def test_seeds():
    assert seq(SeqKind.FIB, 0) == ZERO
    assert seq(SeqKind.FIB, 1) == ONE
    assert seq(SeqKind.LUC, 0) == 2 * ONE
    assert seq(SeqKind.LUC, 1) == X


def test_lucas_three():
    assert luc(3) == X**3 + 3 * X * Y


def test_the_names_the_tracer_patches_are_fib_and_luc():
    # bench/tracer.py counts F/L reads by patching these names; each is the
    # one function of its family, not a wrapper around it
    assert fib_poly is sequences.fib and luc_poly is sequences.luc
    assert identities.fib_poly is fib_poly and identities.luc_poly is luc_poly


def test_cached_table_rejects_a_negative_index():
    with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
        fib_poly(-1)


@pytest.mark.parametrize("args", [(), (1, 1)])
def test_a_non_integer_index_raises_whatever_the_store_holds(monkeypatch, args):
    # 3.0 == 3 and both hash alike, so a stored F_3 must not answer for it
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    fresh_generator_memo(monkeypatch)
    for stored in (False, True):
        if stored:
            seq(SeqKind.FIB, 3, *args)
        with pytest.raises(ValueError, match=r"^sequence index must be an integer, got 3\.0$"):
            seq(SeqKind.FIB, 3.0, *args)


@pytest.mark.parametrize("args", [(), (1, 1), (2 * X, Y)])
def test_a_kind_that_is_not_a_seq_kind_raises_and_stores_nothing(monkeypatch, args):
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    built = fresh_generator_memo(monkeypatch)
    for n in (0, 4, 5):
        with pytest.raises(ValueError, match="^sequence kind must be a SeqKind, got 'F'$"):
            seq("F", n, *args)
    assert not any(key[0] == "F" for key in [*built, *sequences._pairs])
    assert sequences._pairs_size == 0
    with pytest.raises(ValueError, match="sequence kind must be a SeqKind"):
        next(seq_terms("F", *args))


#: Each public entry point that takes an index or exponent, with the name its
#: ValueError gives that argument.
_INDEXED_CALLS = {
    "seq": (lambda i: seq(SeqKind.FIB, i), "sequence index"),
    "fib": (lambda i: fib(i, 2 * X, Y), "sequence index"),
    "luc": (lambda i: luc(i, 1, 1), "sequence index"),
    "binomial-upper": (lambda i: binomial(i, 1), "binomial upper index"),
    "binomial-lower": (lambda i: binomial(5, i), "binomial lower index"),
    "binomial_sum": (lambda i: sequences.binomial_sum(i, X * X, Y), "binomial sum index"),
    "power_entry_factor": (lambda i: power_entry_factor(X, -Y, i), "binomial sum index"),
    "binary_power": (lambda i: binary_power(X + Y, i, ONE), "exponent"),
    "poly-pow": (lambda i: X**i, "exponent"),
    "quadext-pow": (lambda i: DELTA**i, "exponent"),
    "matrix_pow": (lambda i: matrix_pow(matrix_A(), i), "exponent"),
    "alpha_power": (lambda i: alpha_power(i), "sequence index"),
}


@pytest.mark.parametrize("entry", list(_INDEXED_CALLS))
@pytest.mark.parametrize("bad", [2.0, "3", None, -1])
def test_every_index_is_checked_by_one_rule(entry, bad):
    call, what = _INDEXED_CALLS[entry]
    if entry == "binomial-lower" and bad == -1:
        assert call(bad) == 0  # a negative lower index is in range, and gives 0
        return
    if bad == -1:
        message = f"^{what} must be nonnegative, got -1$"
    else:
        message = f"^{what} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


@pytest.mark.parametrize(
    "args",
    [(1.5, 1), (Decimal(1), 1), (1 + 0j, 1), (X, 1.5)],
    ids=["float", "decimal", "complex", "float-y"],
)
def test_a_plain_argument_that_is_not_rational_raises_before_the_store(args):
    # the rule of BivarPoly's coefficients; before, 1.5 as x raised AttributeError
    # from the size measure, and as y TypeError after an entry was stored
    before = len(sequences._pairs), sequences._pairs_size
    bad = next(arg for arg in args if not isinstance(arg, (int, BivarPoly)))
    with pytest.raises(TypeError, match=f"^not a rational coefficient: {re.escape(repr(bad))}$"):
        fib(5, *args)
    with pytest.raises(TypeError, match="^not a rational coefficient"):
        BivarPoly({(0, 0): bad})
    assert (len(sequences._pairs), sequences._pairs_size) == before


def test_cached_tables_match_oracle():
    for n in range(0, 65):
        assert fib_poly(n).terms == poly_fib(n)
        assert luc_poly(n).terms == poly_luc(n)


def built_size(built):
    """The store's measure of the generator pair's memo."""
    return sum(map(sequences._size, built.values()))


def fresh_generator_memo(patch):
    """Give the generator pair a memo of its seeds alone for the rest of the test."""
    built = {(kind, m): u for kind in SeqKind for m, u in enumerate(sequences._seeds(kind, X))}
    patch.setattr(sequences, "_built", built)
    patch.setattr(sequences, "_built_size", built_size(built))
    return built


def small_bounds(patch, terms_bytes, pairs_bytes=1 << 30):
    """Bound every term store small, and start each empty, for the rest of the test."""
    patch.setattr(sequences, "_TERMS_BYTES", terms_bytes)
    patch.setattr(sequences, "_PAIRS_BYTES", pairs_bytes)
    patch.setattr(sequences, "_pairs", {})
    patch.setattr(sequences, "_pairs_size", 0)
    return fresh_generator_memo(patch)


def stored_size(entry):
    """The store's measure of what an entry keeps: its list and its packed pair."""
    kept = list(entry.terms)
    if entry.packed is not None:
        kept += entry.packed.a0, entry.packed.b0, entry.packed.a1, entry.packed.b1
    return sum(map(sequences._size, kept))


def failing_once(real, at):
    """``real``, except that its ``at``-th call raises, and the list of its calls."""
    calls = []

    def wrapper(*args):
        calls.append(None)
        if len(calls) == at:
            raise RuntimeError("interrupted")
        return real(*args)

    return wrapper, calls


def test_interrupted_cache_fill_recovers(monkeypatch):
    # an exception inside a list fill must not break the list for later calls:
    # the packed fill of (L_3, -y^3), then the generator pair's builds, within
    # its memo's bound and past it
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    x_arg, y_arg, n = luc_poly(3), -(Y**3), 7
    expected = list(islice(seq_terms(SeqKind.LUC, x_arg, y_arg), n + 1))
    # inside the second term each fill computes
    with monkeypatch.context() as patch:
        step, calls = failing_once(sequences._packed_next_term, 2)
        patch.setattr(sequences, "_packed_next_term", step)
        with pytest.raises(RuntimeError, match="interrupted"):
            seq(SeqKind.LUC, n, x_arg, y_arg)
        assert [seq(SeqKind.LUC, m, x_arg, y_arg) for m in range(n + 1)] == expected
    assert len(calls) == 2 + 5  # the failed term is computed again, then the four after it
    (entry,) = sequences._pairs.values()
    assert entry.packed is not None and entry.walk is None and len(entry.terms) == n + 1
    built = fresh_generator_memo(monkeypatch)
    with monkeypatch.context() as patch:
        build, calls = failing_once(sequences._build, 2)
        patch.setattr(sequences, "_build", build)
        kept = fib_poly(7)
        with pytest.raises(RuntimeError, match="interrupted"):
            fib_poly(8)
        assert fib_poly(8).terms == poly_fib(8)
        assert fib_poly(7) is kept and kept.terms == poly_fib(7)
    assert len(calls) == 3 and sorted(n for _, n in built) == [0, 0, 1, 1, 7, 8]
    assert sequences._built_size == built_size(built)
    # a bound the memo already fills: the build is returned and not kept
    monkeypatch.setattr(sequences, "_TERMS_BYTES", sequences._built_size)
    with monkeypatch.context() as patch:
        build, calls = failing_once(sequences._build, 1)
        patch.setattr(sequences, "_build", build)
        with pytest.raises(RuntimeError, match="interrupted"):
            fib_poly(9)
        assert fib_poly(9).terms == poly_fib(9)
    assert len(calls) == 2 and (SeqKind.FIB, 9) not in built
    assert sequences._built_size == built_size(built)


def test_interrupted_ring_fill_recovers(monkeypatch):
    # the same for a pair whose list fills by ring products: x + 1 is not homogeneous
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    x_arg, n = X + 1, 7
    expected = list(islice(seq_terms(SeqKind.FIB, x_arg, Y), n + 1))
    # inside the second term this fill computes
    mul, calls = failing_once(BivarPoly.__mul__, 3)
    with monkeypatch.context() as patch:
        patch.setattr(BivarPoly, "__mul__", mul)
        with pytest.raises(RuntimeError, match="interrupted"):
            seq(SeqKind.FIB, n, x_arg, Y)
    assert [seq(SeqKind.FIB, m, x_arg, Y) for m in range(n + 1)] == expected
    (entry,) = sequences._pairs.values()
    # while the list grows, no packed pair means the ring step
    assert entry.walk is None and entry.packed is None


def counting(patch, *names):
    """Count the calls of the named functions of ``sequences`` into one list."""
    steps = []
    for name in names:
        real = getattr(sequences, name)

        def counted(*args, real=real):
            steps.append(None)
            return real(*args)

        patch.setattr(sequences, name, counted)
    return steps


def test_the_generator_pair_has_one_table(monkeypatch):
    steps = counting(monkeypatch, "_next_term", "_packed_next_term")
    builds = counting(monkeypatch, "_build")
    fresh_generator_memo(monkeypatch)
    top = 21
    for n in range(top + 1):
        value = fib_poly(n)
        assert fib(n) is value
        assert seq(SeqKind.FIB, n) is value
        assert evaluate(parse_expression("F[n](x, y)"), {"n": n}) is value
    assert len(builds) == 20  # once for each of the 20 indices past the seeds
    for n in range(top, -1, -1):
        assert seq(SeqKind.FIB, n, X, Y) is fib_poly(n)
    assert len(builds) == 20 and steps == []


def test_the_generator_pair_builds_past_its_table(monkeypatch):
    # the memo keeps its lowest indices within a size bound: read downward,
    # L(x, y) builds each term once and drops the highest kept past the
    # bound, and it never walks
    built = fresh_generator_memo(monkeypatch)
    monkeypatch.setattr(sequences, "_TERMS_BYTES", 40_000)
    steps = counting(monkeypatch, "_next_term", "_packed_next_term")
    builds = counting(monkeypatch, "_build")
    for n in range(100, -1, -1):
        assert luc(n).terms == poly_luc(n)
    assert len(builds) == 99 and steps == []  # L_2 .. L_100 once each, past the seeds
    kept = {n for kind, n in built if kind is SeqKind.LUC}
    top = max(kept)
    assert kept == set(range(top + 1)) and 2 < top < 90
    assert sequences._built_size == built_size(built) <= 40_000
    assert luc(top) is built[SeqKind.LUC, top] and len(builds) == 99
    # the next index does not fit with them: it is built again on each read,
    # and dropped again, not a lower term
    assert luc(top + 1).terms == poly_luc(top + 1) and len(builds) == 100
    assert {n for kind, n in built if kind is SeqKind.LUC} == kept


def test_a_read_builds_its_term_alone(monkeypatch):
    # a memo that filled a list to its read kept F_2 .. F_298 that
    # seq(FIB, 2000) never reads
    built = fresh_generator_memo(monkeypatch)
    builds = counting(monkeypatch, "_build")
    value = seq(SeqKind.FIB, 2000)
    assert len(builds) == 1 and value.terms[(1999, 0)] == 1
    assert set(built) == {(kind, m) for kind in SeqKind for m in (0, 1)} | {(SeqKind.FIB, 2000)}
    assert built[SeqKind.FIB, 2000] is value and sequences._built_size == built_size(built)


def test_large_terms_read_first_do_not_pin_the_memo(monkeypatch):
    # F_7000 .. F_1050 fill the memo past its bound; a catalog pass after
    # them must push them out, not build its 146 distinct terms on each read
    fresh_generator_memo(monkeypatch)
    for n in range(7000, 1000, -50):
        seq(SeqKind.FIB, n)
    builds = counting(monkeypatch, "_build")
    assert cli.main(["catalog", "--n-max", "10", "--k-max", "6"]) == 0
    assert len(builds) <= 160


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


_GENERATOR = next(i for i, (x_arg, y_arg) in enumerate(_PAIRS) if x_arg is X and y_arg is Y)


@given(
    st.lists(_REQUEST, min_size=20, max_size=80),
    st.integers(0, 8000),
    st.integers(0, 30_000),
)
# F_40(x, y) and L_40(x, y) each fit the memo at this bound but not together,
# so the first read of L_40 drops one of them
@example([(kind, 40, _GENERATOR) for kind in SeqKind] * 2, 3200, 0)
def test_requests_across_the_size_bounds_give_the_generator_terms(
    requests, terms_bytes, pairs_bytes
):
    # bounds this small put most lists and the memo past their bound within
    # 40 indices, and make the pairs give up their lists and their entries
    with pytest.MonkeyPatch.context() as patch:
        built = small_bounds(patch, terms_bytes, pairs_bytes)
        patch.setattr(sequences, "_WALKS_MAX", 5)
        builds = []

        def build(kind, n, real=sequences._build):
            builds.append((kind, n))
            return real(kind, n)

        patch.setattr(sequences, "_build", build)
        seeds = {(kind, m) for kind in SeqKind for m in (0, 1)}
        for kind, n, i in requests:
            kept, kept_size, before = built.get((kind, n)), sequences._built_size, len(builds)
            keys = set(built)
            value = seq(kind, n, *_PAIRS[i])
            expected = _TERMS[kind, i][n]
            assert value == expected
            assert _types(value) == _types(expected)
            if i != _GENERATOR:
                assert len(builds) == before
            elif kept is not None:
                # a kept term is read, never built again
                assert value is kept and len(builds) == before
            else:
                # a missing one is built once and kept; only past the bound
                # does the memo drop terms, the highest indices first, never a seed
                assert builds[before:] == [(kind, n)]
                dropped = (keys | {(kind, n)}) - set(built)
                assert (built.get((kind, n)) is value) is ((kind, n) not in dropped)
                highest_kept = max(m for _, m in built)
                assert all(m >= highest_kept for _, m in dropped)
                assert seeds <= set(built)
                assert not dropped or kept_size + sequences._size(value) > terms_bytes
                assert sequences._built_size == built_size(built)
                assert sequences._built_size <= terms_bytes or set(built) == seeds
        assert sequences._built_size == built_size(built)
        assert sequences._built_size <= terms_bytes or len(built) == 4
        pairs = list(sequences._pairs.values())
        for entry in pairs:
            seeds_alone = len(entry.terms) == 2
            assert entry.size == stored_size(entry)
            assert entry.size <= terms_bytes or seeds_alone
        assert len(pairs) <= 5
        assert sequences._pairs_size == sum(entry.size for entry in pairs)
        assert sequences._pairs_size <= pairs_bytes or all(len(entry.terms) == 2 for entry in pairs)


#: (u_m, u_{m+1}) of :func:`seq_terms` for the generator pair at every tenth m to 700
_CHECKPOINTS = {}


def _recurrence_term(kind, n):
    """u_n of seq_terms(kind), stepped by the recurrence from the checkpoint below it."""
    if kind not in _CHECKPOINTS:
        terms = list(islice(seq_terms(kind), 702))
        _CHECKPOINTS[kind] = [(terms[m], terms[m + 1]) for m in range(0, 701, 10)]
    u_cur, u_next = _CHECKPOINTS[kind][n // 10]
    for _ in range(n % 10):
        u_cur, u_next = u_next, X * u_next + Y * u_cur
    return u_cur


@given(
    st.lists(st.tuples(st.sampled_from(SeqKind), st.integers(0, 700)), min_size=1, max_size=6),
    st.integers(0, 200_000),
)
@example([(SeqKind.FIB, 0), (SeqKind.FIB, 1), (SeqKind.LUC, 0), (SeqKind.LUC, 1)], 0)
def test_direct_builds_give_the_recurrence_terms(requests, terms_bytes):
    # bounds this small keep few of the generator pair's terms, so reads land
    # both in its memo and past it
    with pytest.MonkeyPatch.context() as patch:
        built = small_bounds(patch, terms_bytes)
        steps = counting(patch, "_next_term", "_packed_next_term")
        for kind, n in requests:
            expected = _recurrence_term(kind, n)  # seq_terms steps through sequences
            steps.clear()
            value = seq(kind, n)
            assert steps == []
            assert value == expected
            assert _types(value) == _types(expected)
        assert sequences._built_size == built_size(built)
        assert sequences._built_size <= terms_bytes or len(built) == 4


# -- lists filled on packed ints ------------------------------------------------

#: pairs whose lists fill on packed ints: negative and large coefficients,
#: x = p + q*D with both parts nonzero, weight-0 constants, composed arguments
_PACKED_PAIRS = [
    (1000 * X, -999999 * Y),
    (X + DELTA, Y),
    (-3 * X + 7 * DELTA, -5 * Y),
    (QuadExtElem(1000 * X * X, -999 * X), 12345 * Y * Y),
    (ONE, ONE),
    (3 * ONE, -7 * ONE),
    (luc_poly(3), -(Y**3)),
    (DELTA * fib_poly(3), -(Y**3)),
    # q*D^2 = x^4 - 16y^2 has norm 17, below 5*||q||_1 = 25: a narrower width
    (QuadExtElem(ZERO, X * X - 4 * Y), 5 * Y**3),
    # zero parts: a zero fits any weight, and a zero list packs at the narrowest width
    (ZERO, Y),
    (X, ZERO),
    (ZERO, ZERO),
    (QuadExtElem(ZERO, ZERO), -Y),
]
#: pairs that keep the ring step: a Fraction coefficient, x not homogeneous,
#: weight(y) != 2 * weight(x), y a QuadExtElem, and ints
_RING_PAIRS = [
    (BivarPoly({(1, 0): Fraction(1, 3)}), Y),
    (X + 1, Y),
    (X, Y * Y),
    (X, DELTA),
    (2, -3),
]
_FILL_PAIRS = _PACKED_PAIRS + _RING_PAIRS
_FILL_TERMS = {
    (kind, i): list(islice(seq_terms(kind, *pair), 41))
    for kind in SeqKind
    for i, pair in enumerate(_FILL_PAIRS)
}


@given(
    st.lists(
        st.tuples(
            st.sampled_from(SeqKind), st.integers(0, 40), st.integers(0, len(_FILL_PAIRS) - 1)
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(1_000, 60_000),
)
def test_packed_fills_give_the_ring_terms(requests, terms_bytes):
    # bounds this small stop most lists partway, so walks take over
    # from the packed fill, and their terms must match it
    with pytest.MonkeyPatch.context() as patch:
        small_bounds(patch, terms_bytes)
        for kind, n, i in requests:
            value = seq(kind, n, *_FILL_PAIRS[i])
            expected = _FILL_TERMS[kind, i][n]
            assert value == expected
            assert _types(value) == _types(expected)
        for (kind, _, x_arg, _, y_arg), entry in sequences._pairs.items():
            packed = any(x_arg is x and y_arg is y for x, y in _PACKED_PAIRS)
            seeds = sequences._seeds(kind, x_arg)
            assert (sequences._pack_pair(kind, x_arg, y_arg, *seeds, 1) is not None) is packed
            # a growing list keeps its packed pair, a stopped one none
            assert (entry.packed is not None) is (packed and entry.walk is None)
            assert entry.size == stored_size(entry)


def test_a_packed_step_measures_its_term_and_pair_as_size_does(monkeypatch):
    steps, real = [], sequences._packed_next_term

    def checked(packed, m):
        term, size, pair = real(packed, m)
        assert size == sequences._size(term)
        assert pair.size == sum(map(sequences._size, (pair.a0, pair.b0, pair.a1, pair.b1)))
        steps.append(m)
        return term, size, pair

    monkeypatch.setattr(sequences, "_packed_next_term", checked)
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    for kind in SeqKind:
        for pair in _PACKED_PAIRS:
            assert seq(kind, 40, *pair) == _FILL_TERMS[kind, _FILL_PAIRS.index(pair)][40]
    assert len(steps) == 2 * len(_PACKED_PAIRS) * 39
    composed = ["EQ12", "EQ13", "EQ14", "EQ18", "EQ24", "EQ25", "EQ26", "EQ27"]
    assert identities.run_catalog(24, 3, ids=composed).all_passed
    assert len(steps) > 2 * len(_PACKED_PAIRS) * 39
    for entry in sequences._pairs.values():
        assert entry.size == stored_size(entry)


def test_a_built_term_comes_graded_as_grade_grades_it():
    assert sequences._build(SeqKind.FIB, 0)._memo is None
    for kind in SeqKind:
        for m in range(1, 301):
            terms = sequences._build(kind, m)._terms
            assert sequences._build(kind, m)._memo == (None, 0, *_grade(terms), len(terms))


def test_a_packed_width_holds_its_cover_exactly(monkeypatch):
    # F_n(1, 1) meets the bound: packed at u_1, the width must hold F_18 = 2584
    # below 2^12 with its sign, and a width one bit short overflows at F_18
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    fibs = int_seq(0, 1, 1, 1, 19)
    ring = list(islice(seq_terms(SeqKind.FIB, ONE, ONE), 19))
    for n in range(19):
        value = seq(SeqKind.FIB, n, ONE, ONE)
        assert value == fibs[n] * ONE and _types(value) == _types(ring[n])
    (entry,) = sequences._pairs.values()
    assert (entry.packed.s, entry.packed.cover) == (13, 18)


def test_composed_fills_bound_each_part_of_a_d_pair_apart(monkeypatch):
    # F_n(D, -y) on the composed grid: the base part steps by q*D^2 = x^2 + 4y
    # and the D part by q = 1; one bound through ||q*D^2||_1 for both parts
    # gives 92-bit slots at F_49
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    composed = ["EQ12", "EQ13", "EQ14", "EQ18", "EQ24", "EQ25", "EQ26", "EQ27"]
    assert identities.run_catalog(24, 3, ids=composed).all_passed
    (entry,) = [
        entry
        for (kind, _, x_arg, _, y_arg), entry in sequences._pairs.items()
        if kind is SeqKind.FIB and x_arg == DELTA and y_arg == -Y
    ]
    assert len(entry.terms) == 50 and entry.packed.s <= 64


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


def counting_one(delay=0.0):
    """An int 1 of a class of its own, and the list of recurrence steps it takes as x.

    Each step sleeps ``delay`` seconds, which lets other threads run.
    """
    steps = []

    class CountingInt(int):
        def __mul__(self, other):
            steps.append(other)
            time.sleep(delay)
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
    assert steps == []  # read from the pair's list


def test_past_the_bound_a_request_steps_on_from_the_closest_kept_terms(monkeypatch):
    small_bounds(monkeypatch, 6000)
    one, steps = counting_one()
    fibs = int_seq(0, 1, 1, 1, 201)
    assert seq(SeqKind.FIB, 200, one, 1) == fibs[200]
    (entry,) = sequences._pairs.values()
    top = len(entry.terms) - 1
    assert 2 < top < 200 and entry.walk is not None
    # from the list top below the walk, and from the walk at or past it
    for n, from_index in [(top + 3, top), (top + 5, top + 3), (top + 4, top + 4), (top + 1, top)]:
        steps.clear()
        assert seq(SeqKind.FIB, n, one, 1) == fibs[n]
        assert len(steps) == n - from_index  # not n - 1 from the seeds


def test_the_full_generator_list_builds_past_its_top(monkeypatch):
    built = fresh_generator_memo(monkeypatch)
    top = 2
    while seq(SeqKind.FIB, top) is built.get((SeqKind.FIB, top)):
        top += 1
    top -= 1
    assert top > 200  # past every index the default catalog grid reads
    steps = counting(monkeypatch, "_next_term", "_packed_next_term")
    builds = counting(monkeypatch, "_build")
    assert seq(SeqKind.FIB, top + 20).terms == poly_fib(top + 20)
    assert seq(SeqKind.FIB, top + 1).terms == poly_fib(top + 1)
    assert seq(SeqKind.FIB, top + 1).terms == poly_fib(top + 1)
    # one build each read, not a step from F_top or from the seeds, and nothing kept
    assert len(builds) == 3 and steps == []
    assert len(built) == 2 + top + 1 and sequences._built_size == built_size(built)


def test_long_walks_keep_at_most_the_bound(monkeypatch):
    # a measure that counted an int term as one unit let F(1, 1) keep 18 MB
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    tracemalloc.start()
    try:
        assert seq(SeqKind.FIB, 100000, 1, 1) % 1000 == 875
        # the list and the walk, as the allocator counts them
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.25 * sequences._TERMS_BYTES
    assert seq(SeqKind.FIB, 3000, 2 * X, Y).terms[(2999, 0)] == 2**2999
    entries = list(sequences._pairs.values())
    assert len(entries) == 2 and all(entry.walk is not None for entry in entries)
    for entry in entries:
        assert entry.size == stored_size(entry) <= sequences._TERMS_BYTES


def _expected_luc(n, x_arg):
    return next(islice(seq_terms(SeqKind.LUC, x_arg, Y), n, None))


def test_an_interrupted_walk_leaves_later_calls_correct(monkeypatch):
    real_mul = BivarPoly.__mul__
    x_arg = X + 5  # an argument pair no other test walks
    key = (SeqKind.LUC, sequences._types(x_arg), x_arg, sequences._types(Y), Y)
    for below, above, terms_bytes in [(4, 9, None), (40, 60, 120_000)]:
        if terms_bytes:
            # the list stops at u_15, so the step that fails is a walk's, past
            # the bound
            small_bounds(monkeypatch, terms_bytes)
        assert seq(SeqKind.LUC, below, x_arg, Y) == _expected_luc(below, x_arg)
        calls = []

        def mul_failing_once(self, other):
            calls.append(None)
            if len(calls) == 3:  # inside the second step past the kept terms
                raise RuntimeError("interrupted")
            return real_mul(self, other)

        with monkeypatch.context() as patch:
            patch.setattr(BivarPoly, "__mul__", mul_failing_once)
            with pytest.raises(RuntimeError, match="interrupted"):
                seq(SeqKind.LUC, above, x_arg, Y)
        # the entry stays in its store, and the store's size counts it as it is now
        assert key in sequences._pairs
        assert sequences._pairs_size == sum(entry.size for entry in sequences._pairs.values())
        assert seq(SeqKind.LUC, above, x_arg, Y) == _expected_luc(above, x_arg)
        assert seq(SeqKind.LUC, above + 3, x_arg, Y) == _expected_luc(above + 3, x_arg)
        assert seq(SeqKind.LUC, below + 1, x_arg, Y) == _expected_luc(below + 1, x_arg)


def test_two_callers_of_one_pair_walk_it_once():
    # the second caller waits for the first one's walk and reads its list
    one, steps = counting_one(delay=0.002)
    start = threading.Barrier(2)
    results = []

    def worker():
        start.wait()
        results.append(seq(SeqKind.FIB, 40, one, 7))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [int_seq(0, 1, 1, 7, 41)[40]] * 2
    assert len(steps) == 39  # u_2 .. u_40 once, not once per caller


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


def test_a_repeated_call_hashes_each_argument_once(monkeypatch):
    small_bounds(monkeypatch, sequences._TERMS_BYTES)
    hashed = []

    class HashCounting(BivarPoly):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    x_arg, y_arg = HashCounting(luc_poly(3).terms), HashCounting((-(Y**3)).terms)
    expected = list(islice(seq_terms(SeqKind.LUC, luc_poly(3), -(Y**3)), 21))
    assert seq(SeqKind.LUC, 12, x_arg, y_arg) == expected[12]
    (entry,) = sequences._pairs.values()
    steps = []
    real_term = sequences._Terms.term

    def term(self, *args):
        steps.append(args[1])
        return real_term(self, *args)

    monkeypatch.setattr(sequences._Terms, "term", term)
    # a step past the list, then a list read: one hash of each argument apiece
    for n in (20, 15):
        hashed.clear()
        size, walk, packed = entry.size, entry.walk, entry.packed
        pairs_size = sequences._pairs_size
        assert seq(SeqKind.LUC, n, x_arg, y_arg) == expected[n]
        assert sorted(map(id, hashed)) == sorted([id(x_arg), id(y_arg)])
    # the read changed nothing but the entry's use stamp, and stepped nothing
    assert (entry.size, sequences._pairs_size) == (size, pairs_size)
    assert entry.walk is walk and entry.packed is packed
    assert steps == [20]


def _int_pair_keys(kind, ys):
    """The store's keys of the pairs (1, y) for each y of ``ys``."""
    return [(kind, int, 1, int, y) for y in ys]


def test_demotions_follow_use_not_insertion(monkeypatch):
    small_bounds(monkeypatch, sequences._TERMS_BYTES)
    for y_arg in (1, 2, 3):
        seq(SeqKind.FIB, 30, 1, y_arg)
    seq(SeqKind.FIB, 10, 1, 1)  # a list read makes (1, 1) the most recently used
    # room for a fourth list only once one of the others gives its list up
    monkeypatch.setattr(sequences, "_PAIRS_BYTES", sequences._pairs_size + 2000)
    seq(SeqKind.FIB, 30, 1, 4)
    entries = [sequences._pairs[key] for key in _int_pair_keys(SeqKind.FIB, (1, 2, 3, 4))]
    assert [len(entry.terms) for entry in entries] == [31, 2, 31, 31]
    assert entries[1].walk == (30, seq(SeqKind.FIB, 29, 1, 2), seq(SeqKind.FIB, 30, 1, 2))
    assert sequences._pairs_size == sum(entry.size for entry in entries)
    assert sequences._pairs_size <= sequences._PAIRS_BYTES


def test_a_pair_read_again_outlives_the_pairs_after_it(monkeypatch):
    small_bounds(monkeypatch, sequences._TERMS_BYTES)
    monkeypatch.setattr(sequences, "_WALKS_MAX", 3)
    for y_arg in (1, 2, 3):
        seq(SeqKind.FIB, 30, 1, y_arg)
    seq(SeqKind.FIB, 10, 1, 1)
    seq(SeqKind.FIB, 30, 1, 4)
    assert set(sequences._pairs) == set(_int_pair_keys(SeqKind.FIB, (1, 3, 4)))
    assert sequences._pairs_size == sum(entry.size for entry in sequences._pairs.values())


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
    assert len(sequences._pairs) <= sequences._WALKS_MAX


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
    with pytest.raises(ValueError, match="^exponent must be nonnegative, got -1$"):
        matrix_pow(matrix_A(), -1)


def _entries(m):
    return m.e11, m.e12, m.e21, m.e22


@st.composite
def graded_matrices(draw):
    """A matrix of int polynomials whose entries weigh w, w + d, w - d and w.

    Each entry has up to three terms x^(W - 2j) y^j, W its weight, with
    coefficients of either sign up to 2^40; an entry of negative weight, and
    any other entry drawn with no terms, is zero.
    """
    w, d = draw(st.integers(0, 4)), draw(st.integers(-3, 3))
    coeffs = st.integers(-(2**40), 2**40)
    entries = []
    for weight in (w, w + d, w - d, w):
        size = 3 if weight >= 0 else 0
        js = draw(st.lists(st.integers(0, max(weight, 0) // 2), max_size=size, unique=True))
        entries.append(BivarPoly({(weight - 2 * j, j): draw(coeffs) for j in js}))
    return PolyMatrix2(*entries)


@given(graded_matrices(), st.integers(0, 40))
@example(PolyMatrix2(ZERO, 3 * X, -5 * X * Y, ZERO), 7)  # anti-diagonal, weights 1 and 3
@example(PolyMatrix2(ZERO, ZERO, ZERO, ZERO), 5)
@example(PolyMatrix2(ZERO, X, ZERO, ZERO), 2)  # nilpotent: the square is zero
@example(PolyMatrix2(X, (1 << 40) * X * X, -(1 << 40) * ONE, -X), 40)  # d = 1, wide slots
def test_packed_matrix_powers_equal_binary_squaring(m, n):
    assert sequences._grading(_entries(m)) is not None
    power = matrix_pow(m, n)
    assert power == binary_power(m, n, m.identity_like())
    assert {type(c) for e in _entries(power) for c in e.terms.values()} <= {int}
    if n == 0:
        assert power == m.identity_like()


def _oracle_powers(m, top):
    """[m^0 .. m^top] as entry term dicts, by repeated schoolbook products."""
    e11, e12, e21, e22 = (e.terms for e in _entries(m))
    power = ({(0, 0): 1}, {}, {}, {(0, 0): 1})
    powers = []
    for _ in range(top + 1):
        powers.append(power)
        a, b, c, d = power
        power = (
            d_add(d_mul(a, e11), d_mul(b, e21)),
            d_add(d_mul(a, e12), d_mul(b, e22)),
            d_add(d_mul(c, e11), d_mul(d, e21)),
            d_add(d_mul(c, e12), d_mul(d, e22)),
        )
    return powers


@pytest.mark.parametrize("matrix", [matrix_A(), matrix_B(), matrix_BA()], ids=["A", "B", "BA"])
def test_packed_matrix_powers_match_the_schoolbook_oracle(matrix):
    for n, expected in enumerate(_oracle_powers(matrix, 30)):
        assert tuple(e.terms for e in _entries(matrix_pow(matrix, n))) == expected


@pytest.mark.parametrize(
    "matrix",
    [
        PolyMatrix2(X * Fraction(1, 2), ONE, Y, ZERO),
        PolyMatrix2(QuadExtElem(X, ONE), DELTA, Y, ZERO),
        PolyMatrix2(3, 1, 2, 0),
        PolyMatrix2(X, ONE, Y, Y),
        PolyMatrix2(X, X, Y, X),
        PolyMatrix2(X + Y, ONE, Y, ZERO),
    ],
    ids=["fraction", "extension", "int", "unequal-diagonal", "off-diagonal", "ungraded"],
)
def test_matrices_with_no_grading_keep_binary_squaring(matrix):
    assert sequences._grading(_entries(matrix)) is None
    for n in range(13):
        power = matrix_pow(matrix, n)
        expected = binary_power(matrix, n, matrix.identity_like())
        assert power == expected
        assert list(map(_types, _entries(power))) == list(map(_types, _entries(expected)))
    with pytest.raises(ValueError, match="^exponent must be nonnegative, got -1$"):
        matrix_pow(matrix, -1)


def test_adding_a_non_matrix_to_a_matrix_raises_type_error():
    for add in (lambda: matrix_A() + 1, lambda: 1 + matrix_A(), lambda: matrix_A() + X):
        with pytest.raises(TypeError):
            add()


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


@pytest.mark.parametrize(
    "n, k, shown", [(2.0, 1, "2.0"), (5, 2.0, "2.0"), ("5", 2, "'5'"), (5, -1.5, "-1.5")]
)
def test_binomial_rejects_an_index_that_is_not_an_int(n, k, shown):
    which = "lower" if isinstance(n, int) else "upper"
    message = f"^binomial {which} index must be an integer, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        binomial(n, k)


# -- closed form for the (1,2) entry -----------------------------------------------


def test_entry_factor_base_case():
    assert power_entry_factor(X, -Y, 0) == ONE


def test_entry_factor_rejects_a_negative_index():
    with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
        power_entry_factor(X, Y, -1)


@pytest.mark.parametrize("index", [2.0, Fraction(6), "3", None])
def test_entry_factor_rejects_an_index_that_is_not_an_int(index):
    # checked before the loop, which would raise TypeError, or run on a float
    with pytest.raises(ValueError, match=re.escape(f"index must be an integer, got {index!r}")):
        power_entry_factor(DISCRIMINANT, Y * DISCRIMINANT, index)
    with pytest.raises(ValueError, match="index must be an integer"):
        sequences.binomial_sum(index, X * X, Y)


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


def _oracle_binomial_sum(m, a, b):
    """sum_k C(m-k, k) a^(m//2-k) b^k on term dicts, by Horner's rule in a."""
    total = b_power = {(0, 0): 1}
    for k in range(1, m // 2 + 1):
        b_power = d_mul(b_power, b)
        total = d_add(d_mul(a, total), {mono: comb(m - k, k) * c for mono, c in b_power.items()})
    return total


@st.composite
def _same_weight_pairs(draw):
    """Two int polynomials of one weight, coefficients up to 2^200 of either sign."""
    weight = draw(st.integers(0, 12))
    nonzero = st.integers(-(2**200), 2**200).filter(bool)
    pair = []
    for _ in range(2):
        js = draw(st.lists(st.integers(0, weight // 2), min_size=1, max_size=4, unique=True))
        pair.append(BivarPoly({(weight - 2 * j, j): draw(nonzero) for j in js}))
    return tuple(pair)


@given(_same_weight_pairs(), st.integers(0, 40))
@example((ZERO, -(Y**3)), 9)
@example((ZERO, ZERO), 2)  # every coefficient bound is 0: the narrowest width, 2
@example((X**4 - 3 * Y * Y, ZERO), 9)
@example((X**6 + Y**3, (1 << 40) * Y**3), 21)
@example((X * X + 4 * Y, -Y), 0)
@example((X * X + 4 * Y, -Y), 1)
@example((X * X + 4 * Y, -Y), 2)
@example((X * X + 4 * Y, -Y), 3)
def test_packed_binomial_sum_is_the_horner_sum(pair, m):
    a, b = pair
    total = sequences.binomial_sum(m, a, b)
    assert total.terms == _oracle_binomial_sum(m, a.terms, b.terms)
    assert {type(c) for c in total.terms.values()} <= {int}


@pytest.mark.parametrize(
    "a,b",
    [
        (X * X + Y, X),  # two weights
        (X * X + Fraction(1, 2) * Y, -Y),  # a Fraction coefficient
        (X * X + 4 * Y, Fraction(-1) * Y),
        (DELTA * X, -Y),  # QuadExtElem
        (3, -2),
        (Fraction(1, 4), 5),
    ],
)
def test_binomial_sum_keeps_the_ring_loop_for_other_operands(a, b):
    for m in range(12):
        total, ring = sequences.binomial_sum(m, a, b), sequences._binomial_horner(m, a, b)
        assert total == ring
        assert sequences._types(total) == sequences._types(ring)


# -- deferred products as arguments -------------------------------------------------


def _deferred_product(n, m):
    """F_n * F_m and its terms, of weight n + m - 2: 40 slots at n + m = 81, so
    the product stays packed until its terms are read."""
    value = fib_poly(n) * fib_poly(m)
    assert type(value) is _LazyPoly
    return value, d_mul(poly_fib(n), poly_fib(m))


def _oracle_seq(kind, n, a, b):
    """u_n(a, b) on term dicts, by the recurrence."""
    prev, cur = ({}, {(0, 0): 1}) if kind is SeqKind.FIB else ({(0, 0): 2}, a)
    for _ in range(n):
        prev, cur = cur, d_add(d_mul(a, cur), d_mul(b, prev))
    return prev


def test_a_deferred_product_as_a_seq_argument_fills_on_packed_ints(monkeypatch):
    monkeypatch.setattr(sequences, "_pairs", {})
    monkeypatch.setattr(sequences, "_pairs_size", 0)
    steps = counting(monkeypatch, "_packed_next_term")
    # y_arg weighs twice x_arg's 79, so the list fills packed
    x_arg, x_terms = _deferred_product(40, 41)
    plain = BivarPoly({mono: int(c) for mono, c in x_terms.items()})
    assert sequences._size(x_arg) == sequences._size(plain)
    assert sequences._types(_deferred_product(40, 41)[0]) == sequences._types(plain)
    packed = sequences._pack_pair(SeqKind.FIB, _deferred_product(40, 41)[0], -(Y**79), ZERO, ONE, 1)
    assert packed is not None
    for kind in [*SeqKind, SeqKind.FIB]:
        value = seq(kind, 3, x_arg, -(Y**79))
        assert value.terms == _oracle_seq(kind, 3, x_terms, {(0, 79): -1})
    # one entry per kind: the deferred argument and its unpacked self share a key
    assert [entry.packed is not None for entry in sequences._pairs.values()] == [True, True]
    assert len(steps) == 4  # u_2 and u_3 of each kind


def test_a_deferred_product_as_a_binomial_sum_operand_sums_on_packed_ints(monkeypatch):
    sums = []
    real = sequences._binomial_horner
    monkeypatch.setattr(sequences, "_binomial_horner", lambda m, a, b: sums.append(type(a)) or real(m, a, b))
    # both of weight 79
    (a, a_terms), (b, b_terms) = _deferred_product(40, 41), _deferred_product(39, 42)
    total = sequences.binomial_sum(7, a, -b)
    assert total.terms == _oracle_binomial_sum(7, a_terms, {m: -c for m, c in b_terms.items()})
    assert sums == [int, int]  # the bound on the 1-norms, then the packed sum


def test_a_deferred_product_as_a_matrix_entry_powers_on_packed_ints(monkeypatch):
    runs = counting(monkeypatch, "_packed_run")
    entry, terms = _deferred_product(40, 41)
    power = matrix_pow(PolyMatrix2(entry, X, ZERO, ZERO), 3)
    expected = _oracle_powers(PolyMatrix2(BivarPoly(terms), X, ZERO, ZERO), 3)[3]
    assert tuple(e.terms for e in _entries(power)) == expected
    assert len(runs) == 1


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
