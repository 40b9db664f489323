"""Exact polynomial and extension-ring arithmetic."""

import copy
import pickle
import sys
import threading
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from fibluc import (
    DELTA,
    DISCRIMINANT,
    ONE,
    QuadExtElem,
    X,
    Y,
    ZERO,
    BivarPoly,
    PolyMatrix2,
    SeqKind,
    canonical_text,
    evaluate,
    matrix_B,
    matrix_pow,
    parse_expression,
    seq,
)
from fibluc import poly
from fibluc._seqcache import fib_poly, luc_poly
from fibluc.poly import _LazyPoly, _lazy, _pack, _packed_product, _unpack, binary_power
from oracles import d_add, d_mul, poly_fib, poly_luc

# Random sparse polynomials: at most 8 terms, exponents <= 6, coefficients
# in [-9, 9] (zero coefficients are dropped by the constructor).
monomials = st.tuples(st.integers(0, 6), st.integers(0, 6))
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=8).map(BivarPoly)
small_monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
small_polys = st.dictionaries(small_monos, st.integers(-4, 4), max_size=3).map(BivarPoly)


# -- addition ----------------------------------------------------------------


def test_add_cancellation():
    assert (X + Y) + (X - Y) == 2 * X


@given(polys)
def test_add_zero_is_identity(p):
    assert p + ZERO == p
    assert ZERO + p == p


def test_add_unrolls_recurrence():
    # x*F_2 + y*F_1 = F_3 with F_1 = 1, F_2 = x
    f3 = X * X + Y * ONE
    assert f3 == X * X + Y
    assert f3.terms == poly_fib(3)


# -- multiplication ------------------------------------------------------------


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_mul_doubling_at_two():
    # F_2 * L_2 = x*(x^2+2y) = F_4
    product = X * (X * X + 2 * Y)
    assert product == X**3 + 2 * X * Y
    assert product.terms == poly_fib(4)


@given(polys)
def test_mul_zero_absorbs(p):
    assert p * ZERO == ZERO


@st.composite
def typed_operands(draw, scalars=True):
    """A value whose coefficients all have one drawn type, and that type.

    Polynomials have no terms, one term, or two to eight, so products and
    sums meet the zero and one-term paths and the general loop; with
    ``scalars`` the value may also be a bare int, bool or Fraction.
    """
    kind = draw(st.sampled_from([int, Fraction]))
    coeffs = st.integers(-9, 9) if kind is int else st.fractions(-9, 9, max_denominator=6)
    low, high = draw(st.sampled_from([(0, 0), (1, 1), (2, 8)]))
    poly = st.dictionaries(monomials, coeffs.filter(bool), min_size=low, max_size=high)
    choices = [poly.map(BivarPoly)]
    if scalars:
        choices.append(st.one_of(coeffs, st.booleans()) if kind is int else coeffs)
    return draw(st.one_of(choices)), kind


def _oracle_terms(value):
    if isinstance(value, BivarPoly):
        return value.terms
    return {(0, 0): value} if value else {}


@given(typed_operands(scalars=False), typed_operands())
def test_sums_and_products_match_the_schoolbook_oracle(drawn_p, drawn_q):
    (p, p_kind), (q, q_kind) = drawn_p, drawn_q
    for left, right in [(p, q), (q, p)]:
        product = (left * right).terms
        total = (left + right).terms
        assert product == d_mul(_oracle_terms(left), _oracle_terms(right))
        assert total == d_add(_oracle_terms(left), _oracle_terms(right))
        if p_kind is q_kind is int:
            assert {type(c) for c in [*product.values(), *total.values()]} <= {int}
        if Fraction in (p_kind, q_kind):
            assert {type(c) for c in product.values()} <= {Fraction}


# -- packed (Kronecker) multiplication ---------------------------------------


def _homogeneous(weight, coeffs):
    """The integer polynomial sum of coeffs[j] * x^(weight - 2j) * y^j."""
    return BivarPoly({(weight - 2 * j, j): c for j, c in coeffs.items()})


@st.composite
def homogeneous_polys(draw, min_terms=8):
    """Weighted-homogeneous integer polynomials with min_terms to 40 terms
    and coefficients up to 2^200 in size, of either sign."""
    weight = draw(st.integers(14, 90))
    js = draw(st.lists(st.integers(0, weight // 2), min_size=min_terms, max_size=40, unique=True))
    nonzero = st.integers(-(2**200), 2**200).filter(bool)
    coeffs = draw(st.lists(nonzero, min_size=len(js), max_size=len(js)))
    return _homogeneous(weight, dict(zip(js, coeffs)))


@given(homogeneous_polys(), homogeneous_polys())
def test_packed_mul_matches_schoolbook(p, q):
    assert _packed_product(p, q) is not None
    assert (p * q).terms == d_mul(p.terms, q.terms)


def _counting_packs(patch):
    """Patch ``poly._pack`` to record its calls, and return the record."""
    calls, real = [], poly._pack

    def counting(*args):
        calls.append(args)
        return real(*args)

    patch.setattr("fibluc.poly._pack", counting)
    return calls


@given(homogeneous_polys(min_terms=3))
def test_a_square_packs_its_operand_once(p):
    terms = p.terms
    with pytest.MonkeyPatch.context() as patch:
        packs = _counting_packs(patch)
        square = _packed_product(p, p)
        assert len(packs) == 1
        assert square == _packed_product(p, BivarPoly(terms))
        # the dict loop's product, with packing declined
        patch.setattr("fibluc.poly._packed_product", lambda a, b: None)
        assert square.terms == (p * p).terms == d_mul(terms, terms)


def test_a_stored_value_times_itself_is_packed_once(monkeypatch):
    packs = _counting_packs(monkeypatch)
    # every read of a kept term returns one object, so this is a square
    assert (fib_poly(126) * fib_poly(126)).terms == d_mul(poly_fib(126), poly_fib(126))
    assert len(packs) == 1


def test_packed_mul_at_the_slot_boundary():
    # With 15 terms of size 2^40 - 1 the middle output coefficient is just
    # under 2^(s-1), the most a slot of width s holds with its sign;
    # alternating signs make every other output coefficient negative.
    top = 2**40 - 1
    s = top.bit_length() * 2 + (15).bit_length() + 1
    same = _homogeneous(28, {j: top for j in range(15)})
    alternating = _homogeneous(28, {j: (-1) ** j * top for j in range(15)})
    for p, q in [(same, same), (same, -same), (-same, -same), (alternating, alternating)]:
        product = (p * q).terms
        assert product == d_mul(p.terms, q.terms)
        assert 2 ** (s - 2) < max(abs(c) for c in product.values()) < 2 ** (s - 1)


def test_packed_mul_with_cancelling_middle_terms():
    # (1 + t + ... + t^15)(1 - t + ... - t^15) = (1 - t^16)(1 + t^2 + ... + t^14)
    # with t = y/x^2: every odd power cancels.
    p = _homogeneous(30, {j: 1 for j in range(16)})
    q = _homogeneous(30, {j: (-1) ** j for j in range(16)})
    expected = {(60 - 2 * j, j): 1 if j < 16 else -1 for j in range(0, 31, 2)}
    assert (p * q).terms == expected == d_mul(p.terms, q.terms)


def test_packed_mul_of_large_fibonacci_polynomials():
    assert (fib_poly(120) * fib_poly(121)).terms == d_mul(poly_fib(120), poly_fib(121))
    assert (fib_poly(120) * luc_poly(120)).terms == poly_fib(240)


@pytest.mark.parametrize(
    "p, q",
    [
        (fib_poly(20) + 1, luc_poly(21)),
        (fib_poly(20) * Fraction(1, 2), luc_poly(21)),
        (luc_poly(21), fib_poly(20) * Fraction(1, 2)),
    ],
    ids=["not-homogeneous", "fraction", "fraction-right"],
)
def test_products_the_packed_path_declines(p, q):
    assert _packed_product(p, q) is None
    assert (p * q).terms == d_mul(p.terms, q.terms)


@pytest.mark.parametrize(
    "p, q, tried",
    [
        (fib_poly(5), luc_poly(6), False),
        (DISCRIMINANT, fib_poly(140), False),
        (fib_poly(20), luc_poly(21), True),
    ],
    ids=["12-pairs", "2-term-operand", "110-pairs"],
)
def test_mul_tries_packing_only_for_large_products(monkeypatch, p, q, tried):
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return _packed_product(a, b)

    monkeypatch.setattr("fibluc.poly._packed_product", recording)
    assert (p * q).terms == d_mul(p.terms, q.terms)
    assert bool(calls) == tried


@pytest.mark.parametrize("n, m", [(16, 17), (20, 21), (40, 7), (120, 121)])
def test_fibonacci_times_lucas_is_packed(n, m):
    a, b = fib_poly(n), luc_poly(m)
    assert _packed_product(a, b).terms == d_mul(a.terms, b.terms)


def test_unpack_refuses_a_width_below_two():
    # at width 1 every 1 digit borrows, and the loop would never end
    for s in (1, 0, -3):
        with pytest.raises(ValueError, match=f"slot width must be at least 2, got {s}"):
            _unpack(1, s, 0)


def test_unpack_refuses_a_coefficient_too_wide_for_its_slot():
    # 128 does not fit a signed 8-bit slot: it reads as -128 and carries into y^3,
    # past the last y-exponent of weight 4
    packed = _pack({(4, 0): 1, (0, 2): 128}, 8)
    with pytest.raises(ValueError, match="a coefficient overflows its slot of width 8"):
        _unpack(packed, 8, 4)
    # a deferred value whose bound is one bit short raises when its terms are read
    with pytest.raises(ValueError, match="overflows"):
        _lazy((packed, 8, 4, 0, 7)).terms
    assert _unpack(_pack({(4, 0): 1, (0, 2): 128}, 9), 9, 4) == {(4, 0): 1, (0, 2): 128}


# -- deferred (lazy) products ---------------------------------------------------


def test_a_large_product_stays_packed_until_its_terms_are_read():
    a, b = fib_poly(40), fib_poly(41)
    product = a * b
    assert type(product) is _LazyPoly and product._image is not None
    assert product.terms == d_mul(a.terms, b.terms)
    # the first read unpacks it once for good and frees the image
    assert type(product) is BivarPoly and product._image is None
    assert {type(c) for c in product.terms.values()} == {int}
    # a product of few slots (20 here) is deferred as well
    small = fib_poly(20) * luc_poly(21)
    assert type(small) is _LazyPoly
    assert small.terms == d_mul(poly_fib(20), poly_luc(21))


def _deferred(n, m):
    """F_n * L_m, a fresh deferred product."""
    product = fib_poly(n) * luc_poly(m)
    assert type(product) is _LazyPoly
    return product


def test_operations_with_a_plain_left_operand_run_on_the_deferred_value():
    expected = d_mul(poly_fib(40), poly_luc(41))
    # a monomial scaling and an int scaling stay packed, from either side
    for scaled, factor in [((-Y) ** 3 * _deferred(40, 41), {(0, 3): -1}), (3 * _deferred(40, 41), {(0, 0): 3})]:
        assert type(scaled) is _LazyPoly
        assert scaled.terms == d_mul(expected, factor)
    product = _deferred(40, 41)
    assert X**0 * product == product == BivarPoly(expected)
    assert type(product) is BivarPoly  # compared with a plain value: unpacked
    assert hash(_deferred(40, 41)) == hash(BivarPoly(expected))
    assert len({_deferred(40, 41), BivarPoly(expected)}) == 1


def test_a_mixed_coefficient_product_keeps_the_eager_coefficient_types():
    # the dict loop's order of accumulation decides int or Fraction here
    mixed = BivarPoly({(2, 0): 1, (0, 1): Fraction(1, 2), (1, 0): 3, (0, 0): Fraction(4)})
    eager = BivarPoly(_deferred(40, 41).terms)
    for lazy_side, eager_side in [
        (mixed * _deferred(40, 41), mixed * eager),
        (_deferred(40, 41) * mixed, eager * mixed),
        (mixed + _deferred(40, 41), mixed + eager),
    ]:
        assert {m: (c, type(c)) for m, c in lazy_side.terms.items()} == {
            m: (c, type(c)) for m, c in eager_side.terms.items()
        }


def test_deferred_values_compare_as_ints_only_at_one_width_and_one_weight():
    x2, x4, y = _lazy((1, 64, 2, 0, 1)), _lazy((1, 64, 4, 0, 1)), _lazy((1, 64, 2, 1, 1))
    # one packed int, three polynomials: x^2, x^4 and y
    assert x2 != x4 and x2 != y
    assert (x2, x4, y) == (X**2, X**4, Y)
    # y over its lowest exponent 1, or over 0 at one slot up: equal, compared packed
    y_low_0, y_low_1 = _lazy((1 << 64, 64, 2, 0, 1)), _lazy((1, 64, 2, 1, 1))
    assert y_low_0 == y_low_1
    assert type(y_low_0) is type(y_low_1) is _LazyPoly
    # x^2 at two widths: unpacked, then compared
    wide, narrow = _lazy((1, 96, 2, 0, 1)), _lazy((1, 64, 2, 0, 1))
    assert wide == narrow
    assert type(wide) is type(narrow) is BivarPoly


def test_a_product_whose_bound_reaches_a_deferred_width_is_packed_wider():
    # c(x^4 + x^2*y + y^2) squared has 3c^2 > 2^63 at x^4*y^2 for c = 2^31 - 1,
    # and its bound, 31 + 31 + 2 bits, is 64: a signed 64-bit slot cannot hold it
    c = 2**31 - 1
    terms = {(4, 0): c, (2, 1): c, (0, 2): c}
    expected = d_mul(terms, terms)
    assert max(expected.values()) >= 2**63

    def deferred():
        return _lazy((_pack(terms, 64), 64, 4, 0, 31))

    plain = BivarPoly(terms)
    for product in (deferred() * plain, plain * deferred(), deferred() * deferred()):
        assert type(product) is _LazyPoly and product._image[1] > 64
        assert product.terms == expected


#: plain sides set against a deferred product (see the test below)
_PLAIN_SIDES = [
    "equal",
    "changed",
    "lowest dropped",
    "other weight",
    "past the bound",
    "at the bound",
    "slot edge",
    "fraction",
    "zero",
    "two weights",
]


@given(homogeneous_polys(), homogeneous_polys(), st.sampled_from(_PLAIN_SIDES), st.data())
def test_a_deferred_product_equals_a_plain_value_as_their_terms_do(a, b, side, data):
    def product():
        value = a * b
        assert type(value) is _LazyPoly
        return value

    unpacked = product()
    terms = unpacked.terms
    # a plain value is graded once, as _grade grades its terms
    assert poly._graded(unpacked) == (None, 0, *poly._grade(terms), len(terms)) == unpacked._memo
    _, s, weight, _, bits = product()._image
    # a slot of any y-exponent, below the product's lowest one too
    j = data.draw(st.integers(0, weight // 2))
    mono, sign = (weight - 2 * j, j), data.draw(st.sampled_from([1, -1]))
    lowest = min(terms, key=lambda m: m[1])
    sides = {
        "changed": {**terms, mono: terms.get(mono, 0) + sign * data.draw(st.integers(1, 2**bits))},
        "lowest dropped": {m: c for m, c in terms.items() if m != lowest},
        "other weight": {(i + 1, e): c for (i, e), c in terms.items()},
        "past the bound": {**terms, mono: sign * 2**bits},
        "at the bound": {**terms, mono: sign * (2**bits - 1)},
        "slot edge": {**terms, mono: sign * (2 ** (s - 1) - 1)},
        "fraction": {**terms, mono: Fraction(terms.get(mono, 1))},
        "zero": {},
        "two weights": {**terms, (weight + 1, 0): sign},
    }
    plain = BivarPoly(sides.get(side, terms))
    expected = BivarPoly(dict(terms)) == plain
    assert expected or side != "equal"
    graded = bool(plain) and poly._grade(plain.terms) is not None
    for value, compared in [(product(), lambda v: v == plain), (product(), lambda v: plain == v)]:
        assert compared(value) is expected
        # compared on the ints, without unpacking
        assert (type(value) is _LazyPoly and value._image is not None) is graded


def test_a_stored_term_is_graded_once_across_products(monkeypatch):
    calls, real = [], poly._grade
    monkeypatch.setattr(poly, "_grade", lambda terms: calls.append(len(terms)) or real(terms))
    stored, plain = fib_poly(130), BivarPoly(luc_poly(131).terms)
    expected = d_mul(poly_fib(130), poly_luc(131))
    for _ in range(3):
        assert (stored * plain).terms == expected
        assert (stored * stored).terms == d_mul(poly_fib(130), poly_fib(130))
    # the stored term came graded from its build, the plain one at its first product
    assert calls == [66]


def test_threads_grading_one_plain_value_agree():
    # the first uses of fresh plain values race to write their memos: as an
    # operand of a product, and as the side a deferred product is compared with
    expected = {mono: int(c) for mono, c in d_mul(poly_fib(60), poly_luc(61)).items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            plain, other, seen = BivarPoly(luc_poly(61).terms), BivarPoly(expected), {}
            barrier = threading.Barrier(4)

            def use(i):
                barrier.wait()
                product = fib_poly(60) * plain
                seen[i] = (product == other, type(product), product.terms)

            threads = [threading.Thread(target=use, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert [seen[i] for i in range(4)] == [(True, _LazyPoly, expected)] * 4
            for value in (plain, other):
                assert value._memo == (None, 0, *poly._grade(value.terms), len(value.terms))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "p", [ZERO, X * X - 2 * Y + 1, BivarPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(2)})]
)
def test_a_product_with_one_is_the_other_operand(p):
    # ONE's coefficient is the int 1: the general loop's values and coefficient types
    assert p * ONE is p and ONE * p is p


def test_threads_reading_and_using_one_deferred_value_get_its_terms():
    # the first read of the terms unpacks the value in place, while other
    # threads may be in its methods: each must still see the one polynomial
    expected = d_mul(poly_fib(60), poly_luc(61))
    doubled = d_mul({(0, 0): 2}, expected)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            product, seen = _deferred(60, 61), {}
            barrier = threading.Barrier(4)

            def use(i):
                barrier.wait()
                seen[i] = (product + product if i % 2 else product).terms

            threads = [threading.Thread(target=use, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert [seen[i] for i in range(4)] == [expected, doubled] * 2
    finally:
        sys.setswitchinterval(interval)


@st.composite
def graded_operands(draw):
    """Three int polynomials of one weight, each of 8 to 24 terms, so that a
    product of two is packed and deferred.  Coefficients are
    drawn near one bit bound t: 2^t - 1 and -2^t or anything between, and the
    third operand may be the first with alternating signs, whose product
    with the first cancels its middle terms."""
    weight = draw(st.integers(64, 90))
    t = draw(st.integers(1, 70))
    coeffs = st.one_of(st.sampled_from([2**t - 1, -(2**t - 1), -(2**t)]), st.integers(-(2**t), 2**t))
    operands = []
    for _ in range(3):
        js = draw(st.lists(st.integers(0, weight // 2), min_size=8, max_size=24, unique=True))
        operands.append({j: draw(coeffs.filter(bool)) for j in js})
    if draw(st.booleans()):
        operands[2] = {j: (-1) ** j * c for j, c in operands[0].items()}
    return [_homogeneous(weight, terms) for terms in operands]


@st.composite
def _chain_ops(draw):
    """Up to six ops of a chain, each a name and indices of earlier values, with
    a scalar or a monomial term where the op takes one."""
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        op, i = draw(st.sampled_from(_OPS)), draw(_INDEX)
        if op in ("mul", "add", "sub", "eq"):
            ops.append((op, i, draw(_INDEX)))
        elif op == "scale":
            ops.append((op, i, draw(st.integers(-(2**40), 2**40))))
        elif op == "monomial":
            term = draw(monomials), draw(st.integers(-9, 9).filter(bool)), draw(st.booleans())
            ops.append((op, i, *term))
        else:
            ops.append((op, i))
    return ops


_OPS = ["mul", "add", "sub", "eq", "square", "neg", "scale", "monomial"]
_INDEX = st.integers(0, 11)


def _run_chain(operands, ops):
    """The values of a chain: the operands, their three products of two, then
    one value per op.

    Each op reads earlier values by index, modulo their count; ``eq`` records
    a comparison instead.  No op reads terms, so deferred values stay packed
    wherever the bounds allow.
    """
    p, q, r = operands
    values = [p, q, r, p * q, p * r, q * r]
    compared = []
    for op, i, *rest in ops:
        a = values[i % len(values)]
        b = values[rest[0] % len(values)] if op in ("mul", "add", "sub", "eq") else None
        if op == "eq":
            compared.append(a == b)
            continue
        if op == "mul":
            value = a * b
        elif op == "add":
            value = a + b
        elif op == "sub":
            value = a - b
        elif op == "square":
            value = a * a
        elif op == "neg":
            value = -a
        elif op == "scale":
            value = rest[0] * a
        else:
            (e, f), c, left = rest
            term = BivarPoly({(e, f): c})
            value = term * a if left else a * term
        values.append(value)
    return values, compared


def _oracle_chain(operands, ops):
    """The term dicts and comparisons of :func:`_run_chain`, on the schoolbook oracle."""
    p, q, r = (value.terms for value in operands)
    values = [p, q, r, d_mul(p, q), d_mul(p, r), d_mul(q, r)]
    compared = []
    for op, i, *rest in ops:
        a = values[i % len(values)]
        b = values[rest[0] % len(values)] if op in ("mul", "add", "sub", "eq") else None
        if op == "eq":
            compared.append(a == b)
            continue
        if op == "mul":
            value = d_mul(a, b)
        elif op == "add":
            value = d_add(a, b)
        elif op == "sub":
            value = d_add(a, {m: -c for m, c in b.items()})
        elif op == "square":
            value = d_mul(a, a)
        elif op == "neg":
            value = {m: -c for m, c in a.items()}
        elif op == "scale":
            value = d_mul({(0, 0): rest[0]}, a) if rest[0] else {}
        else:
            (e, f), c, _ = rest
            value = d_mul({(e, f): c}, a)
        values.append(value)
    return values, compared


@given(graded_operands(), _chain_ops())
def test_deferred_chains_match_the_oracle_and_the_eager_path(operands, ops):
    assert type(operands[0] * operands[1]) is _LazyPoly
    values, compared = _run_chain(operands, ops)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "_packed_product", lambda a, b: None)  # the dict loop's products
        eager, eager_compared = _run_chain(operands, ops)
    oracle, oracle_compared = _oracle_chain(operands, ops)
    assert compared == eager_compared == oracle_compared
    for value, plain, expected in zip(values, eager, oracle):
        assert type(plain) is BivarPoly
        assert value == plain
        assert hash(value) == hash(plain)
        assert value.terms == plain.terms == expected
        assert {type(c) for c in value.terms.values()} <= {int}


def _fresh_values():
    """A plain polynomial with a Fraction coefficient, a deferred product, an
    extension element with deferred parts and a packed matrix power, each new."""
    product = fib_poly(40) * fib_poly(41)
    assert type(product) is _LazyPoly
    return [
        DISCRIMINANT * X + Fraction(1, 2) * Y,
        product,
        QuadExtElem(fib_poly(40) * luc_poly(41), fib_poly(30) * luc_poly(31)),
        matrix_pow(matrix_B(), 6),
    ]


def _polys(value):
    """The polynomials that make up a value of :func:`_fresh_values`."""
    if isinstance(value, QuadExtElem):
        return [value.a, value.b]
    if isinstance(value, PolyMatrix2):
        return [value.e11, value.e12, value.e21, value.e22]
    return [value]


_COPIES = {
    **{
        f"pickle-{protocol}": lambda value, p=protocol: pickle.loads(pickle.dumps(value, p))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    },
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("duplicate", _COPIES.values(), ids=_COPIES.keys())
def test_pickle_and_copy_rebuild_plain_polynomials(duplicate):
    for value in _fresh_values():
        twin = duplicate(value)
        assert twin == value
        assert type(twin) is type(value)  # a deferred product is unpacked by now
        for part, original in zip(_polys(twin), _polys(value)):
            assert type(part) is BivarPoly
            assert {m: (c, type(c)) for m, c in part.terms.items()} == {
                m: (c, type(c)) for m, c in original.terms.items()
            }


# -- powers ---------------------------------------------------------------------


def test_pow_zero_exponent():
    assert DISCRIMINANT**0 == ONE


def test_pow_square():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2


def test_pow_lucas_doubling():
    # L_2^2 - 2y^2 = L_4
    l2 = X * X + 2 * Y
    assert l2**2 == X**4 + 4 * X * X * Y + 4 * Y**2
    assert (l2**2 - 2 * Y**2).terms == poly_luc(4)


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        X**-1
    with pytest.raises(ValueError):
        DELTA**-2
    for power in (lambda: (X + Y) ** -1, lambda: DELTA**-1):
        with pytest.raises(ValueError, match="^exponent must be nonnegative, got -1$"):
            power()
    with pytest.raises(ValueError, match=r"^exponent must be an integer, got 1\.5$"):
        X**1.5


def test_binary_power_checks_the_exponent_before_any_product():
    # every caller relies on this check: a negative exponent left unchecked
    # keeps the squaring loop running without end.  The base has no ``*``,
    # so the test fails fast (TypeError) if any product comes first.
    with pytest.raises(ValueError, match="^exponent must be nonnegative, got -1$"):
        binary_power(object(), -1, ONE)


class _CountingFactor:
    """Stands for x^degree; its ``*`` counts the products taken."""

    products = 0

    def __init__(self, degree):
        self.degree = degree

    def __mul__(self, other):
        _CountingFactor.products += 1
        return _CountingFactor(self.degree + other.degree)


def test_a_power_never_multiplies_by_one():
    one, base = _CountingFactor(0), _CountingFactor(1)
    _CountingFactor.products = 0
    assert binary_power(base, 0, one) is one
    assert binary_power(base, 1, one) is base
    assert _CountingFactor.products == 0
    for e in range(2, 41):
        _CountingFactor.products = 0
        assert binary_power(base, e, one).degree == e
        # one squaring per bit below the top one, one product per set bit past the first
        assert _CountingFactor.products == (e.bit_length() - 1) + (bin(e).count("1") - 1), e


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        BivarPoly({(-1, 0): 1})
    with pytest.raises(ValueError):
        BivarPoly({(0, 1.5): 1})


@pytest.mark.parametrize("coeff", [1.5, "2"])
def test_constructor_rejects_non_rational_coefficients(coeff):
    with pytest.raises(TypeError):
        BivarPoly({(1, 0): coeff})


def test_integer_polynomials_keep_int_coefficients():
    # coefficients stay the numbers int arithmetic produces; nothing promotes them
    p = 3 * X**2 - 2 * X * Y + 5
    q = X - 7 * Y**3
    values = [
        p + q,
        p - q,
        2 - p,
        p * q,
        p**3,
        (2 * X) ** 5,
        p.substitute(q, p * q),
        fib_poly(40),
        luc_poly(40),
        seq(SeqKind.FIB, 12, q, -(Y**2)),
        seq(SeqKind.LUC, 12, p, q),
    ]
    for value in values:
        assert {type(coeff) for coeff in value.terms.values()} == {int}


def test_terms_view_cannot_mutate_the_polynomial():
    p = X + 2 * Y
    view = p.terms
    view.clear()
    assert p == X + 2 * Y
    assert p.terms == {(1, 0): 1, (0, 1): 2}


# -- substitution -----------------------------------------------------------------


def test_substitute_composes_fibonacci():
    # F_3(x^2+2y, -y^2) = x^4+4x^2y+3y^2, and times x it equals F_6
    f3 = X * X + Y
    composed = f3.substitute(X * X + 2 * Y, -(Y**2))
    assert composed == X**4 + 4 * X * X * Y + 3 * Y**2
    assert (X * composed).terms == poly_fib(6)


@given(polys)
def test_substitute_identity(p):
    assert p.substitute(X, Y) == p


def test_substitute_degree_one():
    # L_1 = x, so substituting anything for x just returns it
    l5 = BivarPoly(poly_luc(5))
    assert X.substitute(l5, Y**3 + 7) == l5


@pytest.mark.parametrize("p", [ZERO, BivarPoly.const(3), X * Y - 1], ids=["zero", "const", "xy-1"])
def test_substitute_lands_in_the_arguments_ring(p):
    # the zero polynomial too, whose image is the zero of that ring
    assert type(p.substitute(DELTA, Y)) is QuadExtElem
    assert type(p.substitute(Fraction(1), Fraction(2))) is Fraction


@given(small_polys, small_polys, small_polys, small_polys)
def test_substitute_is_a_homomorphism(p, q, xs, ys):
    assert (p + q).substitute(xs, ys) == p.substitute(xs, ys) + q.substitute(xs, ys)
    assert (p * q).substitute(xs, ys) == p.substitute(xs, ys) * q.substitute(xs, ys)


# -- numeric evaluation --------------------------------------------------------------


def test_eval_fibonacci_point():
    f10 = BivarPoly(poly_fib(10))
    assert f10.eval_at(1, 1) == 55


def test_eval_lucas_seed_everywhere():
    l0 = BivarPoly(poly_luc(0))
    for x0, y0 in [(1, 1), (2, 1), (Fraction(3, 2), Fraction(-1, 7)), (0, 0)]:
        assert l0.eval_at(x0, y0) == 2


def test_eval_pell_point():
    f5 = BivarPoly(poly_fib(5))
    assert f5.eval_at(2, 1) == 29


# -- extension ring --------------------------------------------------------------------


def test_delta_squares_to_discriminant():
    assert DELTA * DELTA == QuadExtElem(DISCRIMINANT, ZERO)
    assert DELTA * DELTA == DISCRIMINANT  # base embedding comparison


def test_root_conjugate_product():
    # (x+D)(x-D) = x^2 - (x^2+4y) = -4y, i.e. four times the root product -y
    assert (X + DELTA) * (X - DELTA) == -4 * Y


@given(small_polys, small_polys)
def test_conjugate_product_has_no_delta_part(a, b):
    u = QuadExtElem(a, b)
    product = u * u.conjugate()
    assert product.b == ZERO
    assert product.a == a * a - b * b * DISCRIMINANT


@given(small_polys, small_polys)
def test_base_embedding_is_a_ring_homomorphism(p, q):
    assert QuadExtElem(p) + QuadExtElem(q) == QuadExtElem(p + q)
    assert QuadExtElem(p) * QuadExtElem(q) == QuadExtElem(p * q)
    assert QuadExtElem(p) - QuadExtElem(q) == QuadExtElem(p - q)
    # mixed arithmetic lands in the extension and agrees with the embedding
    assert p + QuadExtElem(q) == QuadExtElem(p + q)
    assert p * QuadExtElem(q) == QuadExtElem(p * q)
    assert QuadExtElem(p) == p


@given(small_polys, small_polys)
def test_embedding_powers_match(p, q):
    assert QuadExtElem(p) ** 3 == p**3
    assert (QuadExtElem(p) + QuadExtElem(q)) ** 2 == (p + q) ** 2


def _coefficient_types(value):
    return [{type(c) for c in part.terms.values()} for part in (value.a, value.b)]


@given(
    st.builds(QuadExtElem, small_polys, small_polys),
    st.one_of(small_polys, st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)),
)
@example(DELTA * fib_poly(3), (-Y) ** 3)  # the EQ24 walk step y*u at y = -y^3
def test_extension_times_a_base_ring_value_scales_both_parts(u, p):
    expected = u * QuadExtElem(p)
    for product in (u * p, p * u):
        assert type(product) is QuadExtElem
        assert product == expected
        assert product.b == u.b * p
        assert _coefficient_types(product) == _coefficient_types(expected)


@pytest.mark.parametrize(
    "value, number",
    [
        (BivarPoly.const(3), 3),
        (BivarPoly.const(Fraction(-5, 3)), Fraction(-5, 3)),
        (ZERO, 0),
        (QuadExtElem(3), 3),
        (BivarPoly({(1, 0): Fraction(2)}), 2 * X),
    ],
    ids=["int", "fraction", "zero", "extension", "fraction-coefficient"],
)
def test_constants_hash_like_the_number_they_equal(value, number):
    assert value == number
    assert hash(value) == hash(number)
    assert len({value, number}) == 1


# Subtraction is addition of the negation; the result lives in the larger
# ring of the two operands, in this order.
_RINGS = [int, Fraction, BivarPoly, QuadExtElem]
_OPERANDS = [5, Fraction(-3, 4), X * X - 2 * Y + 1, QuadExtElem(X, Y - 3)]


@pytest.mark.parametrize("a, b", list(product(_OPERANDS, repeat=2)))
def test_subtraction_over_every_pair_of_ring_types(a, b):
    difference = a - b
    assert difference == a + (-b)
    assert type(difference) is max(type(a), type(b), key=_RINGS.index)


@pytest.mark.parametrize(
    "subtract",
    [lambda: X - "a", lambda: "a" - X, lambda: DELTA - 1.5, lambda: 1.5 - DELTA],
    ids=["poly-str", "str-poly", "ext-float", "float-ext"],
)
def test_subtracting_a_non_ring_operand_raises_type_error(subtract):
    with pytest.raises(TypeError):
        subtract()


@pytest.mark.parametrize(
    "make",
    [lambda: QuadExtElem("a"), lambda: DELTA * "a"],
    ids=["component", "product"],
)
def test_a_non_ring_operand_of_the_extension_raises_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_extension_element_never_equals_a_non_ring_value():
    assert (DELTA == "a") is False


def test_extension_element_with_a_d_part_hashes_like_its_equal():
    assert hash(DELTA * X) == hash(QuadExtElem(ZERO, X))


@pytest.mark.parametrize(
    "value, truth",
    [(ZERO, False), (X, True), (QuadExtElem(), False), (DELTA, True)],
    ids=["zero", "x", "extension-zero", "delta"],
)
def test_truth_value_is_being_nonzero(value, truth):
    assert bool(value) is truth


# -- ring axioms -----------------------------------------------------------------------


@given(polys, polys, polys)
def test_add_associative_commutative(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p


@given(polys, polys, polys)
def test_mul_associative_commutative(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p


@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_multiplicative_identity_and_additive_inverse(p):
    assert p * ONE == p
    assert ONE * p == p
    assert p + (-p) == ZERO


# -- canonical text -----------------------------------------------------------------------


def test_text_basic_formats():
    assert canonical_text(X**3 + 2 * X * Y) == "x^3 + 2*x*y"
    assert canonical_text(ZERO) == "0"
    assert canonical_text(X - Y**2) == "x - y^2"
    assert canonical_text(BivarPoly({(0, 0): True})) == "1"


def test_text_fractional_coefficients():
    assert canonical_text(X * Fraction(3, 2)) == "3/2*x"
    assert canonical_text(BivarPoly.const(Fraction(-1, 3)) + Y) == "y - 1/3"


def test_text_extension_format():
    assert canonical_text(DELTA) == "(0) + (1)*D"
    half = Fraction(1, 2)
    assert canonical_text(QuadExtElem(X * half, ONE * half)) == "(1/2*x) + (1/2)*D"


def test_text_of_a_rational_and_of_a_non_ring_value():
    assert canonical_text(Fraction(-1, 3)) == "-1/3"
    with pytest.raises(TypeError, match="cannot render 'x'"):
        canonical_text("x")


def test_repr_wraps_the_canonical_text():
    assert repr(X + 1) == "BivarPoly(x + 1)"
    assert repr(DELTA) == "QuadExtElem(0, 1)"


@given(polys)
def test_text_round_trips_through_parser(p):
    # integer-coefficient render is valid identity-language source
    assert evaluate(parse_expression(canonical_text(p)), {}) == p


@given(polys, polys)
def test_text_is_injective(p, q):
    if canonical_text(p) == canonical_text(q):
        assert p == q
    else:
        assert p != q


@given(small_polys, small_polys, small_polys, small_polys)
def test_extension_text_is_injective_and_shows_the_d_part(a, b, c, d):
    u, v = QuadExtElem(a, b), QuadExtElem(c, d)
    assert (canonical_text(u) == canonical_text(v)) == (u == v)
    assert canonical_text(u * v) == canonical_text(v * u)
    assert canonical_text(u) == f"({a}) + ({b})*D"
    # equal across types, yet the extension element still shows its D part
    assert QuadExtElem(a) == a
    assert canonical_text(QuadExtElem(a)) == f"({a}) + (0)*D" != canonical_text(a)
