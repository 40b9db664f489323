"""End-to-end CLI behavior: outputs, exit codes, structured reports."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fibluc import BivarPoly, cli, sequences
from fibluc.cli import main, run
from fibluc.idlang import MAX_DEPTH
from fibluc.sequences import SeqKind, seq, seq_terms
from oracles import d_add, d_mul, int_seq, poly_fib


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ---------------------------------------------------------------------


def test_eval_symbolic(capsys):
    code, out, _ = run_cli(capsys, "eval", "F", "6")
    assert code == 0
    assert out.strip() == "x^5 + 4*x^3*y + 3*x*y^2"


def test_eval_lucas_seed(capsys):
    code, out, _ = run_cli(capsys, "eval", "L", "1")
    assert code == 0
    assert out.strip() == "x"


def test_eval_at_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "F", "10", "--at", "1,1")
    assert code == 0
    assert out.strip() == "55"


def test_a_deferred_product_as_a_substituted_argument(capsys):
    # F_40 * F_41 stays packed until read; the term store reads it as the polynomial it is
    code, out, _ = run_cli(capsys, "eval", "L", "3", "--xsub", "F[40]*F[41]")
    a = d_mul(poly_fib(40), poly_fib(41))
    assert code == 0
    assert out == f"{BivarPoly(d_add(d_mul(d_mul(a, a), a), d_mul({(0, 1): 3}, a)))}\n"


def test_an_integral_point_computes_on_ints(capsys, monkeypatch):
    received = []

    def recording(kind, n, x_arg, y_arg):
        received.append((type(x_arg), type(y_arg)))
        return seq(kind, n, x_arg, y_arg)

    monkeypatch.setattr(cli, "seq", recording)
    code, out, _ = run_cli(capsys, "eval", "F", "40", "--at", "1,1")
    assert code == 0 and received == [(int, int)]
    assert out == f"{seq(SeqKind.FIB, 40, Fraction(1), Fraction(1))}\n"


def test_eval_past_the_generator_table_keeps_only_the_table(capsys, monkeypatch):
    # a list of every term to F_2000 took 260 MB, and a list to the size bound
    # kept terms eval never reads: eval builds the one term it prints, and
    # keeps it only while the kept terms fit the bound
    built = {key: u for key, u in sequences._built.items() if key[1] < 2}
    monkeypatch.setattr(sequences, "_built", built)
    monkeypatch.setattr(sequences, "_built_size", sum(map(sequences._size, built.values())))
    monkeypatch.setattr(sequences, "_TERMS_BYTES", 40_000)
    builds = []
    real_build = sequences._build

    def build(kind, n):
        builds.append((kind, n))
        return real_build(kind, n)

    monkeypatch.setattr(sequences, "_build", build)
    for n in 120, 121:
        code, out, err = run_cli(capsys, "eval", "F", str(n))
        assert (code, err) == (0, "")
        assert out == f"{next(islice(seq_terms(SeqKind.FIB), n, None))}\n"
        assert builds.pop() == (SeqKind.FIB, n) and builds == []
        # F_120 fits, and F_121 is past the bound that it leaves
        monkeypatch.setattr(sequences, "_TERMS_BYTES", sequences._built_size)
    assert sorted(n for _, n in built) == [0, 0, 1, 1, 120]
    assert sequences._built_size == sum(map(sequences._size, built.values())) <= 40_000


def test_results_past_the_int_to_str_digit_limit_are_printed(capsys):
    code, out, err = run_cli(capsys, "eval", "F", "25000", "--at", "1,1")
    assert (code, err) == (0, "")
    # Decimal reads and compares the digits without the interpreter's limit on int/str
    assert len(out.strip()) == 5225
    assert Decimal(out) == seq(SeqKind.FIB, 25000, 1, 1)


def test_the_digit_limit_is_lifted_for_the_command_alone(capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    limit = sys.get_int_max_str_digits()
    assert run_cli(capsys, "eval", "F", "6", "--at", "1,1") == (0, "8\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_an_interpreter_without_the_digit_limit_runs_the_command(monkeypatch, capsys):
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run_cli(capsys, "eval", "F", "6", "--at", "1,1") == (0, "8\n", "")


def test_a_long_sequence_is_printed_past_the_digit_limit(monkeypatch, capsys):
    # term 20578 of F(1, 1) is the first with more than 4300 digits
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(["sequence", "F", "--x", "1", "--y", "1", "--count", "21000"])
        monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (0, "")


def test_eval_identity_substitution_is_byte_identical(capsys):
    code_a, out_a, _ = run_cli(capsys, "eval", "F", "9")
    code_b, out_b, _ = run_cli(capsys, "eval", "F", "9", "--xsub", "x", "--ysub", "y")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_eval_composed_substitution(capsys):
    # x * F_3(x^2+2y, -y^2) = F_6
    code, out, _ = run_cli(capsys, "eval", "F", "3", "--xsub", "x^2+2*y", "--ysub=-y^2")
    assert code == 0
    code6, out6, _ = run_cli(capsys, "eval", "F", "6")
    # multiply the composed value by x by comparing against F_6 textually
    assert out6.strip() == "x^5 + 4*x^3*y + 3*x*y^2"
    assert out.strip() == "x^4 + 4*x^2*y + 3*y^2"


def test_eval_rejects_free_meta_variables(capsys):
    code, out, err = run_cli(capsys, "eval", "F", "3", "--xsub", "L[k]")
    assert (code, out) == (2, "")
    assert err == "error: F[3](L[k], y) has free meta-variable(s): k\n"


def test_eval_rejects_at_with_substitution(capsys):
    code, _, err = run_cli(capsys, "eval", "F", "3", "--xsub", "x", "--at", "1,1")
    assert code == 2


def test_eval_at_needs_two_rationals(capsys):
    for point in ("1", "1,1,1"):
        code, out, err = run_cli(capsys, "eval", "F", "3", "--at", point)
        assert (code, out) == (2, "")
        assert err == "error: --at expects two rationals, e.g. --at 1,1\n"


def test_eval_delta_substitution(capsys):
    code, out, _ = run_cli(capsys, "eval", "L", "1", "--xsub", "D")
    assert code == 0
    assert out.strip() == "(0) + (1)*D"


# -- catalog -------------------------------------------------------------------


def test_catalog_small_grid_passes(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--n-max", "3", "--k-max", "2")
    assert code == 0
    assert "all" in out and "pass" in out


def test_catalog_single_case(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--ids", "EQ15", "--n-max", "1")
    assert code == 0


def test_catalog_unknown_id(capsys):
    code, _, err = run_cli(capsys, "catalog", "--ids", "EQ99")
    assert code == 2
    assert "EQ99" in err


def test_catalog_json_schema_and_verdicts_match_text(capsys):
    code_j, out_j, _ = run_cli(capsys, "catalog", "--ids", "EQ04,EQ16", "--n-max", "3", "--k-max", "2", "--json")
    records = json.loads(out_j)
    assert code_j == 0
    # one record per grid cell: EQ04 has n in 1..3, EQ16 has n in 0..3, k in 1..2
    assert len(records) == 3 + 4 * 2
    for record in records:
        assert set(record) == {"id", "n", "k", "status", "elapsed_ms"}
        assert record["status"] == "pass"
    code_t, out_t, _ = run_cli(capsys, "catalog", "--ids", "EQ04,EQ16", "--n-max", "3", "--k-max", "2")
    assert code_t == code_j
    assert out_t.count("pass") >= len(records)


def test_catalog_duplicate_ids_check_each_cell_once(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--ids", "EQ20,EQ20", "--n-max", "3", "--json")
    assert code == 0
    assert [(r["id"], r["n"]) for r in json.loads(out)] == [("EQ20", 1), ("EQ20", 2), ("EQ20", 3)]


# -- verify --------------------------------------------------------------------


def test_verify_linear_identity(capsys):
    code, out, _ = run_cli(capsys, "verify", "y*F[n-1]+F[n+1]=L[n]", "--range", "n=1..10")
    assert code == 0
    assert "all 10 cells pass" in out


def test_verify_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "F[n]=L[n]", "--range", "n=0..2")
    assert code == 1
    assert "counterexample" in out
    assert "'0' vs '2'" in out


def test_verify_ground_identity_failure_names_no_indices(capsys):
    code, out, _ = run_cli(capsys, "verify", "D^2 = x^2-4*y")
    assert code == 1
    assert "first counterexample: user: '(x^2 + 4*y) + (0)*D' vs 'x^2 - 4*y'" in out


def test_verify_default_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "F[n*k]=F[n*k]", "--json")
    assert code == 0
    cells = [(record["n"], record["k"]) for record in json.loads(out)]
    assert cells == [(n, k) for n in range(11) for k in range(1, 7)]


def test_verify_doubling(capsys):
    code, out, _ = run_cli(capsys, "verify", "F[2*n] = F[n]*L[n]", "--range", "n=0..12")
    assert code == 0


def test_verify_parse_error_with_position(capsys):
    code, _, err = run_cli(capsys, "verify", "F[n] = ", "--range", "n=0..2")
    assert code == 2
    assert "parse error at 1:" in err


def test_verify_combined_range_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "F[n*k]*1 = F[n*k]", "--range", "n=0..2,k=1..2"
    )
    assert code == 0
    assert "all 6 cells pass" in out


def test_verify_range_list_may_end_in_a_comma(capsys):
    code, out, _ = run_cli(capsys, "verify", "F[n]=F[n]", "--range", "n=0..2,")
    assert code == 0
    assert "all 3 cells pass" in out


def test_verify_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify", "F[n]=F[n]", "--range", "n=0-3")
    assert code == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("n=5..2", "empty range 'n=5..2'"),
        ("m=0..3", "unknown range name 'm'"),
        ("n=0..3,m=0..3", "unknown range name 'm'"),
        ("n=0..a", "bad range bounds in 'n=0..a'"),
    ],
)
def test_verify_rejects_empty_or_unknown_ranges(capsys, spec, message):
    code, out, err = run_cli(capsys, "verify", "F[n]=F[n]", "--range", spec)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "range_args",
    [
        ["--range", "n=0..1,n=3..4"],
        ["--range", "n=0..1", "--range", "n=3..4"],
        ["--range", "n=0..1,k=1..2", "--range", "n=3..4"],
    ],
)
def test_verify_rejects_a_repeated_range_name(capsys, range_args):
    code, out, err = run_cli(capsys, "verify", "F[n]=F[n]", *range_args)
    assert code == 2
    assert out == ""
    assert "range for 'n' given twice" in err


def test_verify_rejects_a_range_for_an_unused_meta_variable(capsys):
    code, out, err = run_cli(capsys, "verify", "F[n]=F[n]", "--range", "n=0..2", "--range", "k=1..1")
    assert (code, out) == (2, "")
    assert err == "error: range given for unused meta-variable(s): k\n"


def test_verify_empty_sum_is_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "sum(j=3..1, x) = 0")
    assert code == 0
    assert "all 1 cells pass" in out


def _groups(depth):
    """x inside depth - 1 parentheses: depth levels, counting the outer one."""
    return "(" * (depth - 1) + "x" + ")" * (depth - 1)


def _chain(depth):
    """A sum of depth x's, whose left-deep tree is depth levels tall."""
    return "+".join(["x"] * depth)


@pytest.mark.parametrize(
    "argv",
    [
        lambda depth: ["verify", f"{_groups(depth)} = x"],
        lambda depth: ["verify", f"{_chain(depth)} = {depth}*x"],
        lambda depth: ["eval", "F", "2", "--xsub", _chain(depth)],
    ],
    ids=["verify-parentheses", "verify-chain", "eval-xsub-chain"],
)
def test_nesting_deeper_than_max_depth_is_a_parse_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv(MAX_DEPTH))
    assert (code, err) == (0, "")
    for depth in (MAX_DEPTH + 1, 3000):
        code, out, err = run_cli(capsys, *argv(depth))
        assert code == 2
        assert out == ""
        assert err.startswith("parse error at 1:")
        assert f"deeper than {MAX_DEPTH} levels" in err


_N_TERMS = ["n"] * (MAX_DEPTH - 2)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "F[n]=F[n]", "--range", "n=-3..-1"], "negative sequence index -3 in F[n] at {n=-3}"),
        (["verify", "y*F[n-1]+F[n+1]=L[n]"], "negative sequence index -1 in F[n - 1] at {n=0}"),
        # nothing is bound, so no binding is named
        (["verify", "x^(0-1)=1"], "negative exponent -1 in x^(0 - 1)"),
        (["eval", "F", "3", "--xsub", "x^(0-1)"], "negative exponent -1 in x^(0 - 1)"),
        # F[n+...+n-1] is MAX_DEPTH levels tall, and its index is named in full
        (
            ["verify", f"F[{'+'.join(_N_TERMS)}-1] = 0", "--range", "n=0..0"],
            f"negative sequence index -1 in F[{' + '.join(_N_TERMS)} - 1] at {{n=0}}",
        ),
        (
            ["verify", "binom(n-3,1)=0", "--range", "n=0..0"],
            "negative binomial index -3 in binom(n - 3, 1) at {n=0}",
        ),
    ],
    ids=[
        "argv0-{n=-3}",
        "argv1-{n=0}",
        "verify-nothing-bound",
        "eval-nothing-bound",
        "verify-deepest-index",
        "verify-binomial",
    ],
)
def test_verify_domain_error_exits_2(capsys, argv, message):
    # a negative subscript or exponent is outside the identity's domain, not a counterexample
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert " at {}" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catalog", "--ids", ","], "--ids ',' names no id"),
        (["catalog", "--ids", ""], "--ids '' names no id"),
        (["verify", "--corpus", "--ids", ","], "--ids ',' names no id"),
        (["verify", "--corpus", "--ids", ""], "--ids '' names no id"),
        (["verify", "--corpus", "--range", "n=1..2", "--ids", "EQ20"], "--range applies"),
        (["verify", "F[n]=F[n]", "--ids", "EQ20"], "--ids: only valid with --corpus"),
        (["verify", "F[n]=F[n]", "--n-max", "3"], "--n-max: only valid with --corpus"),
        (["verify", "F[n]=F[n]", "--k-max", "6", "--n-max", "10"], "--n-max, --k-max: only"),
    ],
)
def test_options_that_select_nothing_or_are_ignored_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_verify_json_failure_records_carry_sides(capsys):
    code, out, _ = run_cli(capsys, "verify", "F[n]=L[n]", "--range", "n=0..1", "--json")
    assert code == 1
    records = json.loads(out)
    assert len(records) == 2
    assert records[0]["status"] == "fail"
    assert records[0]["lhs"] == "0" and records[0]["rhs"] == "2"


def test_verify_corpus_subset(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--corpus", "--ids", "EQ20,EQ27", "--n-max", "4", "--k-max", "3"
    )
    assert code == 0


def test_verify_corpus_from_explicit_path(tmp_path, capsys):
    corpus = tmp_path / "mini.txt"
    corpus.write_text("# id: EQ20\ny*F[n-1] + F[n+1] = L[n]\n")
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus), "--n-max", "5")
    assert code == 0
    assert "all 5 cells pass" in out


def test_verify_corpus_with_byte_order_mark(tmp_path, capsys):
    corpus = tmp_path / "bom.txt"
    corpus.write_bytes(b"\xef\xbb\xbf# id: EQ20\r\ny*F[n-1] + F[n+1] = L[n]\r\n")
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(corpus))
    assert code == 0
    assert "all 10 cells pass" in out


@pytest.mark.parametrize("text", ["", "# id: EQ20\n\n# only comments\n"])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_verify_empty_corpus_is_a_usage_error(tmp_path, capsys, text, as_json):
    corpus = tmp_path / "empty.txt"
    corpus.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus), *as_json)
    assert (code, out) == (2, "")
    assert err == f"error: corpus file {str(corpus)!r} holds no identity lines\n"


def test_verify_rejects_identity_plus_corpus(capsys):
    code, _, err = run_cli(capsys, "verify", "F[n]=F[n]", "--corpus")
    assert code == 2


def test_verify_missing_corpus_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--corpus", "/nonexistent/corpus.txt")
    assert code == 2
    assert "error:" in err


def test_verify_corpus_line_without_id(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("F[n] = F[n]\n")
    code, _, err = run_cli(capsys, "verify", "--corpus", str(bad))
    assert code == 2


def test_verify_corpus_rejects_an_empty_id(tmp_path, capsys):
    corpus = tmp_path / "noid.txt"
    corpus.write_text("# id:\nF[n] = F[n]\n")
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus), "--n-max", "2")
    assert (code, out) == (2, "")
    assert err == "error: corpus line 1 has an empty '# id:' comment\n"


def test_verify_corpus_that_is_not_utf8_names_file_and_line(tmp_path, capsys):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes(b"# id: EQ20\ny*F[n-1] + F[n+1] = L[n]\xff\n")
    code, out, err = run_cli(capsys, "verify", "--corpus", str(corpus))
    assert (code, out) == (2, "")
    assert err == f"error: corpus file {str(corpus)!r}, line 2: invalid UTF-8 byte 0xff\n"


def test_verify_whole_shipped_corpus_small_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--corpus", "--n-max", "6", "--k-max", "3")
    assert code == 0
    assert "all 388 cells pass" in out


def test_verify_corpus_keeps_file_order(capsys):
    # EQ10 has two corpus lines; each keeps its own n run instead of interleaving
    code, out, _ = run_cli(capsys, "verify", "--corpus", "--ids", "EQ10", "--n-max", "3", "--json")
    assert code == 0
    assert [(r["id"], r["n"]) for r in json.loads(out)] == [("EQ10", n) for n in (1, 2, 3) * 2]


@pytest.mark.parametrize("bound", [("--n-max", "-1"), ("--n-max", "0"), ("--k-max", "0")])
def test_verify_corpus_rejects_empty_grid(capsys, bound):
    code, out, err = run_cli(capsys, "verify", "--corpus", *bound)
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err


_HUGE = "99999999999999999999"  # past sys.maxsize, the longest a Python sequence can be


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "F[n] = F[n]", "--range", f"n=0..{_HUGE}"],
        ["verify", "--corpus", "--k-max", _HUGE],
        ["catalog", "--n-max", _HUGE],
    ],
)
def test_a_grid_axis_longer_than_a_sequence_is_a_usage_error(capsys, argv):
    # before, the first two raised OverflowError (exit 1) and the catalog ran until killed
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert _HUGE in err and f"more than {sys.maxsize} values" in err


def test_a_short_range_of_huge_indices_is_checked(capsys):
    low = int(_HUGE) - 1
    code, out, _ = run_cli(capsys, "verify", "binom(n, 0) = 1", "--range", f"n={low}..{_HUGE}")
    assert code == 0
    assert "all 2 cells pass" in out


def test_verify_corpus_parse_error_reports_file_position(tmp_path, capsys):
    corpus = tmp_path / "bad.txt"
    good = "y*F[n-1] + F[n+1] = L[n]"
    corpus.write_text(f"# id: EQ20\n{good}\n\n# id: EQ15\nL[n]*L[n+2] = $\n")
    code, _, err = run_cli(capsys, "verify", "--corpus", str(corpus))
    assert code == 2
    assert "parse error at 5:15: unexpected character '$'" in err
    corpus.write_text(f"# id: EQ20\n{good}\n    y*F[n-1] + F[n+1 = L[n]\n")
    code, _, err = run_cli(capsys, "verify", "--corpus", str(corpus))
    assert code == 2
    assert "parse error at 3:22: expected ']', found '='" in err


def test_eval_negative_index(capsys):
    # the index is checked by the node eval builds, or by seq at a point
    assert run_cli(capsys, "eval", "F", "-1") == (
        2,
        "",
        "error: negative sequence index -1 in F[-1](x, y)\n",
    )
    assert run_cli(capsys, "eval", "F", "-1", "--at", "1,1") == (
        2,
        "",
        "error: sequence index must be nonnegative, got -1\n",
    )


# -- sequence ------------------------------------------------------------------


def test_sequence_fibonacci(capsys):
    code, out, _ = run_cli(capsys, "sequence", "F", "--x", "1", "--y", "1", "--count", "8")
    assert code == 0
    assert [int(v) for v in out.split()] == int_seq(0, 1, 1, 1, 8)
    assert out.split() == ["0", "1", "1", "2", "3", "5", "8", "13"]


def test_sequence_lucas(capsys):
    code, out, _ = run_cli(capsys, "sequence", "L", "--x", "1", "--y", "1", "--count", "6")
    assert code == 0
    assert out.split() == ["2", "1", "3", "4", "7", "11"]


def test_sequence_pell(capsys):
    code, out, _ = run_cli(capsys, "sequence", "F", "--x", "2", "--y", "1", "--count", "6")
    assert code == 0
    assert out.split() == ["0", "1", "2", "5", "12", "29"]


def test_sequence_rational_point(capsys):
    code, out, _ = run_cli(capsys, "sequence", "F", "--x", "1/2", "--y", "1", "--count", "4")
    assert code == 0
    assert out.split() == ["0", "1", "1/2", "5/4"]


def test_sequence_rejects_bad_count(capsys):
    code, _, err = run_cli(capsys, "sequence", "F", "--x", "1", "--y", "1", "--count", "0")
    assert code == 2


def test_sequence_rejects_bad_rational(capsys):
    code, _, err = run_cli(capsys, "sequence", "F", "--x", "one", "--y", "1", "--count", "3")
    assert code == 2


# -- usage errors ------------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_running_out_of_memory_is_a_one_line_error_with_status_2(monkeypatch, capsys):
    # 1 would claim a counterexample, and a traceback is no error message
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_catalog", out_of_memory)
    assert run_cli(capsys, "catalog") == (
        2,
        "",
        "error: out of memory: the result is too large for this process\n",
    )


def test_run_exits_with_the_status_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fibluc", "eval", "L", "1"])
    with pytest.raises(SystemExit) as info:
        run()
    assert info.value.code == 0
    assert capsys.readouterr().out == "x\n"


def test_a_closed_stdout_exits_141_without_a_message(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["sequence", "F", "--x", "1", "--y", "1", "--count", "3"])
        monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (141, "")


def test_a_reader_that_goes_away_ends_the_output_with_status_141():
    # as in `fibluc sequence ... | head -1`; the output is far larger than a pipe's buffer
    argv = ["sequence", "F", "--x", "1", "--y", "1", "--count", "100000"]
    with subprocess.Popen(
        [sys.executable, "-m", "fibluc", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline() == b"0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


def test_module_runner_smoke():
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-m", "fibluc", "eval", "F", "6"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "x^5 + 4*x^3*y + 3*x*y^2"


def test_shipped_corpus_is_read_as_utf8_whatever_the_locale():
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        + ["-m", "fibluc", "verify", "--corpus", "--n-max", "2", "--k-max", "1"],
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("all 74 cells pass\n")


# -- every argv exits 0, 1 or 2 ----------------------------------------------------

# Identity-language tokens: the grammar's, integers up to 12, and malformed ones.
_SOURCE_TOKENS = [
    *"xyDnkFLj", "binom", "sum", *"+-*^()[],=", "..", *map(str, range(13)),
    "$", ".", "m", "1.5", "_",
]
_IX_ATOM = st.sampled_from(["n", "k", *map(str, range(13))]).map(lambda a: [a])
_IX = _IX_ATOM | st.tuples(_IX_ATOM, st.sampled_from("+-*"), _IX_ATOM).map(
    lambda p: [*p[0], p[1], *p[2]]
)
_ATOM = st.one_of(
    st.sampled_from(["x", "y", "D", "n", "2"]).map(lambda a: [a]),
    st.tuples(st.sampled_from("FL"), _IX).map(lambda p: [p[0], "[", *p[1], "]"]),
    st.tuples(_IX, _IX).map(lambda p: ["binom", "(", *p[0], ",", *p[1], ")"]),
)
_FACTOR = _ATOM | st.tuples(_ATOM, _IX_ATOM | _IX.map(lambda i: ["(", *i, ")"])).map(
    lambda p: [*p[0], "^", *p[1]]
)
_SIDE = _FACTOR | st.tuples(_FACTOR, st.sampled_from("+-*"), _FACTOR).map(
    lambda p: [*p[0], p[1], *p[2]]
)


def _cost(tokens):
    """Operators that multiply the work: ``*``, ``^`` and an argument list after ``]``."""
    compositions = sum(a == "]" and b == "(" for a, b in zip(tokens, tokens[1:]))
    return tokens.count("*") + tokens.count("^") + compositions


def _sources(well_formed, max_tokens, max_cost):
    """Token soups and well-formed sources, at most max_tokens tokens and max_cost
    work-multiplying operators.  There is no work budget yet: two such operators,
    or a substituted expression under eval's own index, can take a minute."""
    soup = st.lists(st.sampled_from(_SOURCE_TOKENS), max_size=max_tokens)
    tokens = st.one_of(soup, well_formed, well_formed)
    return tokens.filter(lambda ts: len(ts) <= max_tokens and _cost(ts) <= max_cost).map(" ".join)


_INTS = st.integers(-3, 12).map(str)
# the default (10, 6) grid takes seconds per run, so catalog and corpus runs
# always get bounds, and valid ones stay at most 4
_GRID = st.integers(-1, 4).map(str) | st.sampled_from(["", "a"])
_KIND = st.sampled_from(["F", "L", "G"])
_IDS = st.lists(st.sampled_from(["EQ04", "EQ16", "EQ20", "EQ99", "", " "]), max_size=3).map(",".join)
_RATIONALS = st.sampled_from(["0", "1", "-2", "1/2", "3/4", "1/0", "a", ""])
_RANGE = st.builds(
    "{}={}..{}".format, st.sampled_from(["n", "k", "m", ""]), _INTS, _INTS
) | st.sampled_from(["n=0-3", "n", "=..", ""])


def _options(*pairs):
    """Any subset of the given (flag, value strategy) options, in any order."""
    chosen = st.lists(st.sampled_from(pairs), max_size=len(pairs), unique_by=lambda p: p[0])
    return chosen.flatmap(
        lambda ps: st.tuples(*(st.tuples(st.just(f), v) for f, v in ps))
    ).map(lambda ps: [item for flag, value in ps for item in (flag, value) if item is not None])


def _argv(*parts):
    """The concatenation of the lists drawn from the given strategies."""
    return st.tuples(*parts).map(lambda ps: [item for part in ps for item in part])


_GRID_BOUNDS = _argv(st.tuples(st.just("--n-max"), _GRID), st.tuples(st.just("--k-max"), _GRID))
_ARGVS = st.one_of(
    _argv(
        st.just(["eval"]), st.tuples(_KIND, _INTS | _GRID),
        _options(("--xsub", _sources(_SIDE, 6, 0)), ("--ysub", _sources(_SIDE, 6, 0)),
                 ("--at", st.lists(_RATIONALS, max_size=3).map(",".join))),
    ),
    _argv(st.just(["catalog"]), _GRID_BOUNDS, _options(("--ids", _IDS), ("--json", st.none()))),
    _argv(
        st.just(["verify"]),
        st.lists(_sources(_argv(_SIDE, st.just(["="]), _SIDE), 12, 1), max_size=1),
        _options(("--range", _RANGE), ("--json", st.none()), ("--ids", _IDS), ("--n-max", _GRID)),
    ),
    _argv(
        st.just(["verify", "--corpus"]), _GRID_BOUNDS,
        _options(("--ids", _IDS), ("--json", st.none()), ("--range", _RANGE)),
    ),
    _argv(
        st.just(["sequence"]), st.tuples(_KIND),
        _options(("--x", _RATIONALS), ("--y", _RATIONALS), ("--count", _INTS)),
    ),
)


@settings(max_examples=300)
@given(_ARGVS)
def test_every_argv_exits_0_1_or_2(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
    if code == 1:
        assert "domain error" not in out.getvalue(), argv
