"""Acceptance suite: one test per criterion, exact equality everywhere.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines).
"""

import random
import time
from itertools import islice

import pytest

from fibluc import (
    ALPHA,
    BETA,
    ParseError,
    PolyMatrix2,
    QuadExtElem,
    SeqKind,
    X,
    Y,
    ZERO,
    alpha_power,
    beta_power,
    catalog_by_id,
    check,
    check_case,
    fib,
    load_corpus,
    luc,
    matrix_A,
    matrix_B,
    matrix_BA,
    matrix_pow,
    parse,
    power_entry_factor,
    run_catalog,
    seq,
    seq_terms,
)
from fibluc._seqcache import fib_poly
from fibluc.cli import main
from oracles import int_seq


def _announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_c1_full_catalog_exact_over_acceptance_grid():
    start = time.perf_counter()
    report = run_catalog(10, 6)
    elapsed = time.perf_counter() - start
    failures = report.failures()
    assert not failures, f"{len(failures)} failing cells, first: {failures[:1]}"
    assert elapsed < 60.0, f"catalog run took {elapsed:.1f}s, target is under 60s"
    _announce("C1", f"all 31 cases, {len(report.cells)} cells exact, {elapsed:.2f}s")


def test_c2_generator_oracle_equivalence():
    # symbolic arguments up to n = 64; seq builds F_n(x, y) from its binomial
    # coefficients, so the recurrence side is the generator itself
    for n, by_recurrence in enumerate(islice(seq_terms(SeqKind.FIB), 65)):
        by_matrix = matrix_pow(matrix_A(), n).e12
        assert by_recurrence == by_matrix
        assert seq(SeqKind.FIB, n) == by_matrix
        assert by_recurrence == fib_poly(n) * 1
        assert seq(SeqKind.FIB, 2 * n) == by_recurrence * seq(SeqKind.LUC, n)
    # numeric arguments (x, y) = (3, 2) up to n = 512
    numeric_a = PolyMatrix2(3, 1, 2, 0)
    for n in range(0, 513):
        by_recurrence = seq(SeqKind.FIB, n, 3, 2)
        by_matrix = matrix_pow(numeric_a, n).e12
        assert by_recurrence == by_matrix
        assert seq(SeqKind.FIB, 2 * n, 3, 2) == by_recurrence * seq(SeqKind.LUC, n, 3, 2)
    _announce(
        "C2",
        "recurrence, binomial build, matrix entry, and doubling agree"
        " (n<=64 symbolic, n<=512 numeric)",
    )


def test_c3_closed_form_equals_matrix_power_entry():
    for label, matrix in (("A", matrix_A()), ("B", matrix_B()), ("BA", matrix_BA())):
        trace_value = matrix.trace()
        det_value = matrix.det()
        for n in range(1, 9):
            closed = matrix.e12 * power_entry_factor(trace_value, det_value, n - 1)
            brute = matrix_pow(matrix, n).e12
            assert closed == brute, (label, n)
    _announce("C3", "trace/det closed form matches brute-force powers of A, B, BA for n in 1..8")


def test_c4_extension_ring_root_powers():
    for n in range(0, 13):
        assert alpha_power(n) + beta_power(n) == QuadExtElem(luc(n), ZERO)
        assert alpha_power(n) - beta_power(n) == QuadExtElem(ZERO, fib(n))
        assert alpha_power(n) * beta_power(n) == QuadExtElem((-Y) ** n, ZERO)
        assert alpha_power(n) == ALPHA**n
        assert beta_power(n) == BETA**n
    _announce("C4", "root powers decompose on the (L, F) basis and match repeated squaring, n<=12")


def test_c5_integer_specializations():
    fib_11 = int_seq(0, 1, 1, 1, 31)
    luc_11 = int_seq(2, 1, 1, 1, 31)
    pell = int_seq(0, 1, 2, 1, 21)
    assert fib_11[:8] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert luc_11[:6] == [2, 1, 3, 4, 7, 11]
    assert pell[:6] == [0, 1, 2, 5, 12, 29]
    for n in range(31):
        assert seq(SeqKind.FIB, n, 1, 1) == fib_11[n]
        assert seq(SeqKind.LUC, n, 1, 1) == luc_11[n]
        assert fib(n).eval_at(1, 1) == fib_11[n]
    for n in range(21):
        assert seq(SeqKind.FIB, n, 2, 1) == pell[n]
    _announce("C5", "(1,1) gives Fibonacci/Lucas through 30, (2,1) gives Pell through 20, exact")


def test_c6_dsl_equivalence_and_parser_fuzz():
    # corpus encodings of EQ04 and EQ11..EQ31 give the same verdict grids
    required = ["EQ04"] + [f"EQ{i}" for i in range(11, 32)]
    entries_by_id: dict[str, list] = {}
    for entry in load_corpus():
        entries_by_id.setdefault(entry.case_id, []).append(entry)
    cases = catalog_by_id()
    for case_id in required:
        case = cases[case_id]
        assert case_id in entries_by_id, f"corpus is missing {case_id}"
        ranges = {"n": (case.n_min, 10), "k": (case.k_min, 6)}
        dsl_grid: dict[tuple, bool] = {}
        for entry in entries_by_id[case_id]:
            for cell in check(entry.ast, ranges, case_id=case_id).cells:
                key = (cell.n, cell.k)
                dsl_grid[key] = dsl_grid.get(key, True) and cell.passed
        if case.is_binary:
            grid_points = [(n, k) for n in range(case.n_min, 11) for k in range(case.k_min, 7)]
        else:
            grid_points = [(n, None) for n in range(case.n_min, 11)]
        programmatic = {
            (n, k): check_case(case, n, k).passed if k is not None else check_case(case, n).passed
            for n, k in grid_points
        }
        assert dsl_grid == programmatic, f"{case_id}: verdict grids differ"

    # parser fuzzing: >= 10^4 random inputs, no crash, only ASTs or positioned errors
    rng = random.Random(1234)
    alphabet = [
        "F", "L", "x", "y", "D", "n", "k", "r", "s", "binom", "sum", "0", "7", "12",
        "+", "-", "*", "^", "(", ")", "[", "]", ",", "=", "..", ".", " ", "?", "@",
    ]
    attempts = 0
    for _ in range(5000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30)))
        attempts += 1
        try:
            parse(source)
        except ParseError as exc:
            assert exc.line >= 1 and exc.col >= 1
    for _ in range(5000):
        source = "".join(chr(rng.randrange(1, 1000)) for _ in range(rng.randrange(0, 20)))
        attempts += 1
        try:
            parse(source)
        except ParseError as exc:
            assert exc.line >= 1 and exc.col >= 1
    assert attempts >= 10_000
    _announce("C6", f"corpus grids match the programmatic catalog; {attempts} fuzz inputs, no crash")


def test_c7_homogeneity():
    for n in range(1, 11):
        assert fib(n).substitute(2 * X, 4 * Y) == 2 ** (n - 1) * fib(n)
        assert luc(n).substitute(2 * X, 4 * Y) == 2**n * luc(n)
    _announce("C7", "F_n(2x,4y) = 2^(n-1) F_n and L_n(2x,4y) = 2^n L_n for n in 1..10")


def test_c8_negative_control(capsys):
    # sign-flipped EQ11: discriminant written with a minus sign
    flipped = "L[n]^2 + (-1)^(n+1)*4*y^n = (x^2-4*y)*F[n]^2"
    code = main(["verify", flipped, "--range", "n=0..10"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert "lhs:" in out and "rhs:" in out
    with capsys.disabled():
        _announce("C8", "sign-flipped identity fails, report carries both sides, exit code 1")
