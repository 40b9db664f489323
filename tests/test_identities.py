"""The identity catalog: structure, spot checks, negative controls."""

import re
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from fibluc import (
    DISCRIMINANT,
    DomainError,
    X,
    Y,
    BivarPoly,
    build_catalog,
    catalog_by_id,
    check,
    check_case,
    fib,
    luc,
    parse,
    run_catalog,
)
from fibluc import identities, sequences
from fibluc.report import grid_cells
from oracles import d_add, d_mul, poly_fib

EXPECTED_IDS = [f"EQ{i:02d}" for i in range(1, 32)]


def test_catalog_has_31_cases_in_order():
    cases = build_catalog()
    assert [case.case_id for case in cases] == EXPECTED_IDS


def test_catalog_arities_and_minima():
    cases = catalog_by_id()
    binary_ids = {
        "EQ12", "EQ13", "EQ16", "EQ18", "EQ19", "EQ21", "EQ23", "EQ24",
        "EQ25", "EQ26", "EQ27", "EQ28", "EQ29", "EQ30", "EQ31",
    }
    for case in cases.values():
        assert case.is_binary == (case.case_id in binary_ids)
        assert case.n_min >= 0
        if case.is_binary:
            assert case.k_min >= 1  # composed y-arguments need k >= 1


def test_a_case_stores_whether_it_is_binary():
    # which cases are binary is pinned above; here, that it is a stored bool
    # field, which a copy can set, not a property derived from other fields
    cases = build_catalog()
    assert all(type(case.is_binary) is bool for case in cases)
    flipped = [replace(case, is_binary=not case.is_binary) for case in cases]
    assert [case.is_binary for case in flipped] == [not case.is_binary for case in cases]


def test_eq04_single_term_cell():
    # n=1 collapses the sum to x * C(1,0) = x = F_2
    result = check_case(catalog_by_id()["EQ04"], 1)
    assert result.passed


def test_eq11_at_one():
    # F_1 = 1, L_1 = x: x^2 + 4y = (x^2+4y) * 1
    result = check_case(catalog_by_id()["EQ11"], 1)
    assert result.passed


def test_eq12_spot_value():
    # F_3(x^2+2y, -y^2) * x = ((x^2+2y)^2 - y^2) * x = F_6
    composed = (X * X + 2 * Y) ** 2 - Y**2
    assert (composed * X).terms == poly_fib(6)
    result = check_case(catalog_by_id()["EQ12"], 3, 2)
    assert result.passed


def test_eq15_unrolled_by_hand():
    # L_0 L_2 - L_1^2 = 2(x^2+2y) - x^2 = x^2+4y
    report = run_catalog(1, 1, ids=["EQ15"])
    assert report.all_passed
    assert luc(0) * luc(2) - luc(1) ** 2 == X * X + 4 * Y


def test_small_grid_all_pass():
    report = run_catalog(5, 3)
    assert report.all_passed
    assert len(report.failures()) == 0


def test_check_case_below_minimum_raises():
    cases = catalog_by_id()
    with pytest.raises(DomainError):
        check_case(cases["EQ04"], 0)
    with pytest.raises(DomainError):
        check_case(cases["EQ12"], 2, 0)
    with pytest.raises(DomainError):
        check_case(cases["EQ12"], 2)


def test_run_catalog_rejects_unknown_id():
    with pytest.raises(ValueError):
        run_catalog(3, 2, ids=["EQ99"])


def test_run_catalog_rejects_an_empty_id_list():
    # an empty selection would pass vacuously
    with pytest.raises(ValueError, match="^no identity id given$"):
        run_catalog(10, 6, ids=[])


def test_run_catalog_rejects_bad_bounds():
    with pytest.raises(ValueError):
        run_catalog(0, 3)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: run_catalog(3.0, 2), "n=0..3.0"),
        (lambda: check(parse("F[n] = F[n]"), {"n": (0, 2.5)}), "n=0..2.5"),
        (lambda: check(parse("F[n] = F[n]"), {"n": (0, "2")}), "n=0..2"),
        # before, check_grid_bounds's ``< 1`` raised TypeError on these
        (lambda: run_catalog("3", 2), "n=0..3"),
        (lambda: run_catalog(3, None), "k=0..None"),
        (lambda: run_catalog(3, 2.0), "k=0..2.0"),
    ],
    ids=["catalog-float", "check-float", "check-str", "catalog-str", "catalog-none", "catalog-k-float"],
)
def test_a_grid_bound_that_is_not_an_int_is_refused(call, shown):
    # before, range() or ``>`` raised TypeError
    message = f"^range '{re.escape(shown)}' has a bound that is not an integer$"
    with pytest.raises(ValueError, match=message):
        call()


def test_grid_cells_walk_the_first_axis_outermost():
    axes = [("n", range(2)), ("k", range(3, 5))]
    points = [{"n": 0, "k": 3}, {"n": 0, "k": 4}, {"n": 1, "k": 3}, {"n": 1, "k": 4}]
    assert grid_cells(axes, dict) == points
    assert grid_cells([], dict) == [{}]
    assert grid_cells([("n", range(3)), ("k", [])], dict) == []


def test_grid_cells_give_each_cell_a_point_of_its_own():
    points = grid_cells([("n", range(2)), ("k", range(3))], lambda point: point)
    assert len({id(point) for point in points}) == 6
    assert points[-1] == {"n": 1, "k": 2}


def test_grid_cells_read_each_axis_as_they_go():
    # a cell that raises ends the walk, so an axis of sys.maxsize values is never listed
    def cell(point):
        raise DomainError(f"at {point}")

    with pytest.raises(DomainError, match=r"^at \{'n': 0, 'k': 0\}$"):
        grid_cells([("n", range(sys.maxsize)), ("k", range(sys.maxsize))], cell)


def test_corrupted_case_fails_with_rendered_sides():
    # negative control: flip the sign of EQ11's right side
    good = catalog_by_id()["EQ11"]
    bad = replace(good, rhs=lambda n: -(good.rhs(n)))
    report = run_catalog(4, 1, cases=[bad])
    failures = report.failures()
    assert failures
    first = failures[0]
    assert first.lhs and first.rhs
    # both rendered sides are present and really differ
    assert first.lhs != first.rhs


def test_tuple_side_against_scalar_side_fails_its_cell():
    good = catalog_by_id()["EQ11"]
    bad = replace(good, lhs=lambda n: (fib(n), luc(n)))
    cell = check_case(bad, 2)
    assert not cell.passed
    assert (cell.lhs, cell.rhs) == ("(x; x^2 + 2*y)", str(good.rhs(2)))
    shorter = replace(good, lhs=lambda n: (fib(n), luc(n)), rhs=lambda n: (fib(n),))
    assert not check_case(shorter, 2).passed


def test_domain_error_in_a_side_fails_its_cell():
    def out_of_domain(n):
        raise DomainError(f"no value at n={n}")

    # a side outside its domain is an error, not a failed cell
    with pytest.raises(DomainError, match="no value at n=2"):
        check_case(replace(catalog_by_id()["EQ20"], lhs=out_of_domain), 2)


def test_mutation_sensitivity():
    # flipping the sign of the whole right side must break every spot-checked case
    cases = catalog_by_id()
    for case_id in ["EQ04", "EQ11", "EQ15", "EQ20", "EQ27"]:
        good = cases[case_id]
        if good.is_binary:
            bad = replace(good, rhs=lambda n, k, _g=good: -_g.rhs(n, k))
        else:
            bad = replace(good, rhs=lambda n, _g=good: -_g.rhs(n))
        report = run_catalog(4, 2, cases=[bad])
        assert report.failures(), f"{case_id} did not notice a sign flip"


def test_closed_forms_notice_a_short_binomial_sum(monkeypatch):
    # the six closed-form sides share binomial_sum, but their other sides do
    # not, so an expansion that drops its last term breaks every one of them
    def short_sum(m, a, b):
        return sum(
            sequences.binomial(m - k, k) * a ** (m // 2 - k) * b**k for k in range(m // 2)
        )

    monkeypatch.setattr(sequences, "binomial_sum", short_sum)
    monkeypatch.setattr(identities, "binomial_sum", short_sum)
    closed_forms = ["EQ03", "EQ04", "EQ06", "EQ08", "EQ09", "EQ19"]
    report = run_catalog(6, 2, ids=closed_forms)
    assert {cell.case_id for cell in report.failures()} == set(closed_forms)


def _d_matmul(m1, m2):
    """The product of two 2x2 matrices of term dicts, row-major tuples."""
    return tuple(
        d_add(d_mul(m1[2 * r], m2[c]), d_mul(m1[2 * r + 1], m2[2 + c]))
        for r in range(2)
        for c in range(2)
    )


def test_the_horner_matrix_sum_is_its_definition():
    # sum_k C(n, k) (2y)^(n-k) x^k A^(k+shift), on term dicts
    a = ({(1, 0): 1}, {(0, 0): 1}, {(0, 1): 1}, {})
    a_powers = [({(0, 0): 1}, {}, {}, {(0, 0): 1})]
    while len(a_powers) <= 60:
        a_powers.append(_d_matmul(a_powers[-1], a))
    for n in range(31):
        for shift in (0, n):
            expected = ({}, {}, {}, {})
            for k in range(n + 1):
                scalar = {(k, n - k): comb(n, k) << (n - k)}
                term = [d_mul(scalar, e) for e in a_powers[k + shift]]
                expected = tuple(map(d_add, expected, term))
            total = identities._binomial_matrix_sum(n, shift)
            entries = (total.e11, total.e12, total.e21, total.e22)
            assert tuple(e.terms for e in entries) == expected
            assert {type(c) for e in entries for c in e.terms.values()} <= {int}


def test_the_catalog_sums_run_on_packed_ints(monkeypatch):
    # the six closed forms' binomial_sum operands and EQ01/EQ07's matrix sums
    # take no ring product: a grading test that stopped passing would drop
    # back to the ring loop with the same values
    d = DISCRIMINANT
    pairs = [(d, -Y), (X * X * d, Y * Y), (d * d, -Y * d), ((X * d) ** 2, Y * Y * d)]
    pairs += [(d * fib(k) ** 2, (-Y) ** k) for k in range(1, 7)]

    def no_ring_product(*args):
        raise AssertionError("a ring product")

    monkeypatch.setattr(BivarPoly, "__mul__", no_ring_product)
    monkeypatch.setattr(BivarPoly, "__rmul__", no_ring_product)
    for m in range(12):
        for a, b in pairs:
            sequences.binomial_sum(m, a, b)
    for n in range(12):
        identities._binomial_matrix_sum(n, n)


def test_matrix_sums_notice_a_wrong_binomial_coefficient(monkeypatch):
    # C(n, 1) + 1 in place of C(n, 1): every cell with a k = 1 term fails
    def planted(n, k):
        return sequences.binomial(n, k) + (k == 1)

    monkeypatch.setattr(identities, "binomial", planted)
    report = run_catalog(6, 1, ids=["EQ01", "EQ07"])
    failed = {(cell.case_id, cell.n) for cell in report.failures()}
    assert failed == {(case_id, n) for case_id in ("EQ01", "EQ07") for n in range(1, 7)}


def test_divisibility_form_of_composition():
    # the composed value is a polynomial Q with Q * F_k = F_{nk}
    for n in range(0, 6):
        for k in range(1, 5):
            sign = 1 if k % 2 else -1
            q = fib(n, luc(k), sign * Y**k)
            assert isinstance(q, BivarPoly)
            assert q * fib(k) == fib(n * k)


def test_report_ordering_and_records():
    report = run_catalog(3, 2, ids=["EQ16", "EQ04"])
    keys = [(cell.case_id, cell.n, cell.k) for cell in report.cells]
    assert keys == sorted(keys, key=lambda t: (t[0], t[1], -1 if t[2] is None else t[2]))
    records = report.to_records()
    assert len(records) == len(report.cells)
    for record in records:
        assert set(record) >= {"id", "n", "k", "status", "elapsed_ms"}
        assert record["status"] == "pass"
        assert "lhs" not in record  # sides only appear on failure


def test_report_text_contains_every_cell():
    report = run_catalog(2, 1, ids=["EQ15"])
    text = report.to_text()
    assert text.count("EQ15") == len(report.cells)
    assert "pass" in text


def test_cells_can_be_checked_concurrently():
    from concurrent.futures import ThreadPoolExecutor

    case = catalog_by_id()["EQ16"]
    grid = [(n, k) for n in range(0, 6) for k in range(1, 5)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda point: check_case(case, *point), grid))
    assert all(cell.passed for cell in results)
    sequential = [check_case(case, n, k) for n, k in grid]
    assert [(c.case_id, c.n, c.k, c.passed) for c in results] == [
        (c.case_id, c.n, c.k, c.passed) for c in sequential
    ]


def test_base_ring_cases_agree_at_random_points():
    # symbolic equality implies pointwise equality; spot-check a sample of
    # base-ring cases numerically as an independent guard
    import random

    rng = random.Random(77)
    cases = catalog_by_id()
    points = [
        (Fraction(rng.randrange(-6, 7)), Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
        for _ in range(4)
    ]
    for case_id in ["EQ04", "EQ08", "EQ15", "EQ16", "EQ22"]:
        case = cases[case_id]
        grid = [(n, 2) for n in range(max(case.n_min, 1), 5)]
        for n, k in grid:
            left = case.lhs(n, k) if case.is_binary else case.lhs(n)
            right = case.rhs(n, k) if case.is_binary else case.rhs(n)
            for x0, y0 in points:
                assert left.eval_at(x0, y0) == right.eval_at(x0, y0)
