"""Identity-language parsing, evaluation, grid checks, and fuzzing."""

import dataclasses
import functools
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from fibluc import (
    BivarPoly,
    DomainError,
    ParseError,
    X,
    Y,
    canonical_text,
    catalog_by_id,
    check,
    check_case,
    evaluate,
    free_meta_vars,
    load_corpus,
    parse,
    parse_expression,
    render,
)
from fibluc import idlang
from fibluc.idlang import (
    MAX_DEPTH,
    Add,
    Binom,
    Eq,
    IntLit,
    MetaVar,
    Mul,
    Neg,
    Node,
    Pow,
    SeqApp,
    Sub,
    Sum,
    VarDelta,
    VarX,
    VarY,
    _offset,
    _tokenize,
)
from oracles import poly_luc, tokenize


# -- golden ASTs --------------------------------------------------------------


def test_parse_linear_identity():
    ast = parse("y*F[n-1] + F[n+1] = L[n]")
    n = MetaVar("n")
    expected = Eq(
        Add(
            Mul(VarY(), SeqApp("F", Sub(n, IntLit(1)))),
            SeqApp("F", Add(n, IntLit(1))),
        ),
        SeqApp("L", n),
    )
    assert ast == expected


def test_parse_composition_identity():
    ast = parse("F[n](L[k], (-1)^(k+1)*y^k) * F[k] = F[n*k]")
    n, k = MetaVar("n"), MetaVar("k")
    sign = Pow(Neg(IntLit(1)), Add(k, IntLit(1)))
    expected = Eq(
        Mul(
            SeqApp("F", n, (SeqApp("L", k), Mul(sign, Pow(VarY(), k)))),
            SeqApp("F", k),
        ),
        SeqApp("F", Mul(n, k)),
    )
    assert ast == expected


def test_parse_binomial_sum_identity():
    source = "x * sum(r=0..n-1, binom(2*n-1-r, r) * (x^2+4*y)^(n-1-r) * (-y)^r) = F[2*n]"
    ast = parse(source)
    n, r = MetaVar("n"), MetaVar("r")
    body = Mul(
        Mul(
            Binom(Sub(Sub(Mul(IntLit(2), n), IntLit(1)), r), r),
            Pow(
                Add(Pow(VarX(), IntLit(2)), Mul(IntLit(4), VarY())),
                Sub(Sub(n, IntLit(1)), r),
            ),
        ),
        Pow(Neg(VarY()), r),
    )
    expected = Eq(
        Mul(VarX(), Sum("r", IntLit(0), Sub(n, IntLit(1)), body)),
        SeqApp("F", Mul(IntLit(2), n)),
    )
    assert ast == expected


def test_precedence_power_binds_tighter_than_minus_and_star():
    assert parse_expression("-y^k") == Neg(Pow(VarY(), MetaVar("k")))
    assert parse_expression("x^2*n") == Mul(Pow(VarX(), IntLit(2)), MetaVar("n"))
    assert parse_expression("2^(k+1)") == Pow(IntLit(2), Add(MetaVar("k"), IntLit(1)))


def test_omitted_arguments_default_to_x_y():
    with_args = evaluate(parse_expression("F[5](x, y)"), {})
    without = evaluate(parse_expression("F[5]"), {})
    assert with_args == without


# -- parse errors -------------------------------------------------------------


_SYNTAX_ERRORS = [
    ("", "expected an expression, found 'end of input'", 1, 1),
    ("F[n", "expected ']', found 'end of input'", 1, 4),
    ("F[n] =", "expected an expression, found 'end of input'", 1, 7),
    ("= F[n]", "expected an expression, found '='", 1, 1),
    ("F[n] = L[n] = L[n]", "unexpected trailing input '='", 1, 13),
    ("1 +", "expected an expression, found 'end of input'", 1, 4),
    (
        "x^",
        "expected an exponent (integer, meta-variable, or parenthesized index), "
        "found 'end of input'",
        1,
        3,
    ),
    ("x ^ y", "unknown name 'y'", 1, 5),
    ("binom(n)", "expected ',', found ')'", 1, 8),
    ("sum(x=0..2, x)", "'x' is reserved and cannot be a sum variable", 1, 5),
    ("sum(r=0..2)", "expected ',', found ')'", 1, 11),
    ("F(n)", "'F' must be applied as F[index]", 1, 1),
    ("F[n](x)", "expected ',', found ')'", 1, 7),
    ("2..3", "expected '=', found '..'", 1, 2),
    ("x $ y", "unexpected character '$'", 1, 3),
    ("x . y", "unexpected character '.'", 1, 3),
    ("((x)", "expected ')', found 'end of input'", 1, 5),
]


@pytest.mark.parametrize(
    "source, message, line, col", _SYNTAX_ERRORS, ids=[case[0] for case in _SYNTAX_ERRORS]
)
def test_syntax_errors_are_positioned(source, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


def test_unknown_name_outside_scope():
    with pytest.raises(ParseError, match="unknown name 'm'"):
        parse("F[m] = L[m]")
    with pytest.raises(ParseError, match="unknown name 'r'"):
        parse("sum(r=0..3, x) + r = x")  # r is out of scope after the sum


def test_error_column_points_at_offender():
    with pytest.raises(ParseError) as info:
        parse_expression("x + $")
    assert (info.value.line, info.value.col) == (1, 5)


@pytest.mark.parametrize(
    "source, line, col, message",
    [
        # a tab is one column, and a line starts after its "\n" whatever precedes it
        ("F[n] = F[n] +\n\t ?", 2, 3, "unexpected character '?'"),
        ("F[n] = F[n]\r\n  + )", 2, 5, "expected an expression, found ')'"),
        ("x.y", 1, 2, "unexpected character '.'"),
        ("F[n] =\n  F[n", 2, 6, "expected ']', found 'end of input'"),
        ("sum(j=0..n,\n  x) +\n  j = x", 3, 3, "unknown name 'j'"),
    ],
    ids=["tab", "crlf", "single-dot", "end-of-input", "unknown-name"],
)
def test_error_positions_count_lines_and_columns(source, line, col, message):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


# -- evaluation -----------------------------------------------------------------


def test_evaluate_sequence_reference():
    value = evaluate(parse_expression("L[n]"), {"n": 2})
    assert value.terms == poly_luc(2)


def test_evaluate_delta_square():
    assert evaluate(parse_expression("D^2"), {}) == X * X + 4 * Y


def test_evaluate_empty_sum():
    assert evaluate(parse_expression("sum(r=0..-1, x)"), {}) == 0 * X
    assert evaluate(parse_expression("sum(r=2..n, x)"), {"n": 1}) == 0 * X


def test_evaluate_negative_subscript_raises_domain_error():
    node = parse_expression("F[n-1]")
    with pytest.raises(DomainError) as info:
        evaluate(node, {"n": 0})
    message = str(info.value)
    assert "F[n - 1]" in message and "n=0" in message


def test_evaluate_negative_exponent_raises_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse_expression("y^(n-2)"), {"n": 0})
    # inside a sum, whose power tables leave the message as it was
    with pytest.raises(DomainError) as info:
        evaluate(parse_expression("sum(r=0..n, (x+y)^(r-1))"), {"n": 0})
    assert str(info.value) == "negative exponent -1 in (x + y)^(r - 1) at {n=0, r=0}"


def test_evaluate_lifts_integer_results_to_polynomials():
    # the sign rule covers the binomial upper index only: a lower index out of
    # range gives 0, and a sum bound may be negative
    for source, expected in [
        ("2^3 - binom(4, 2)", 2),
        ("binom(3, 0-1)", 0),
        ("binom(3, 4)", 0),
        ("sum(r=0-1..1, r)", 0),
    ]:
        value = evaluate(parse_expression(source), {})
        assert isinstance(value, BivarPoly), source
        assert value == expected, source


def test_index_position_rejects_ring_values():
    with pytest.raises(ValueError, match="not an index expression: x"):
        evaluate(SeqApp("F", VarX()), {})


def test_evaluate_unbound_meta_variable():
    with pytest.raises(DomainError):
        evaluate(parse_expression("F[n]"), {})


def test_free_meta_vars():
    assert free_meta_vars(parse("y*F[n-1]+F[n+1]=L[n]")) == {"n"}
    assert free_meta_vars(parse_expression("sum(r=0..n, y^r) * y^k")) == {"n", "k"}
    assert free_meta_vars(parse_expression("x + y")) == set()


@pytest.mark.parametrize(
    "source, free",
    [
        ("sum(n=0..n, y^n)", {"n"}),  # the bound n is free in the range alone
        ("sum(r=0..n, sum(s=r..k, x^s))", {"n", "k"}),  # r is bound in the inner range
        ("sum(r=0..2, sum(r=0..r, y^r))", set()),  # the inner r shadows the outer one
    ],
)
def test_a_sum_frees_its_variable_in_its_body_alone(source, free):
    assert free_meta_vars(parse_expression(source)) == free


# -- grid checks -------------------------------------------------------------------


def test_check_passes_linear_identity():
    report = check(parse("y*F[n-1] + F[n+1] = L[n]"), {"n": (1, 10)})
    assert report.all_passed
    assert len(report.cells) == 10


def test_check_matches_programmatic_catalog():
    case = catalog_by_id()["EQ20"]
    programmatic = [check_case(case, n).passed for n in range(1, 11)]
    dsl = [cell.passed for cell in check(parse("y*F[n-1] + F[n+1] = L[n]"), {"n": (1, 10)}).cells]
    assert programmatic == dsl


def test_check_finds_seed_mismatch():
    report = check(parse("F[n] = L[n]"), {"n": (0, 3)})
    assert not report.all_passed
    first = report.failures()[0]
    assert (first.n, first.lhs, first.rhs) == (0, "0", "2")


def test_check_square_root_composition():
    source = "L[2*n](D*F[k], (-1)^k * y^k) = L[2*n*k]"
    report = check(parse(source), {"n": (0, 4), "k": (1, 4)})
    assert report.all_passed


def test_check_reports_domain_error_as_failure():
    # the first grid point outside the domain raises, naming the expression and binding
    with pytest.raises(DomainError, match=r"negative sequence index -2 in F\[n - 2\] at \{n=0\}"):
        check(parse("F[n-2] = F[n-2]"), {"n": (0, 3)})


def test_check_requires_ranges_for_free_vars():
    with pytest.raises(ValueError):
        check(parse("F[n*k] = F[n*k]"), {"n": (0, 3)})


def test_check_rejects_an_empty_range():
    # an empty range would check no cell and pass
    with pytest.raises(ValueError, match=r"empty range 'n=5\.\.2'"):
        check(parse("F[n] = L[n]"), {"n": (5, 2)})
    with pytest.raises(ValueError, match=r"empty range 'k=1\.\.0'"):
        check(parse("F[n*k] = L[n*k]"), {"n": (0, 3), "k": (1, 0)})
    # nor can a range of more values than a list can hold be checked
    too_long = rf"range 'n=0\.\.{10**20}' has more than {sys.maxsize} values"
    with pytest.raises(ValueError, match=too_long):
        check(parse("F[n] = F[n]"), {"n": (0, 10**20)})


def test_check_ground_identity_is_a_single_cell():
    report = check(parse("D^2 = x^2+4*y"), {})
    assert [(cell.n, cell.k, cell.passed) for cell in report.cells] == [(None, None, True)]
    report = check(parse("D^2 = x^2-4*y"), {})
    assert not report.all_passed


def test_sum_variable_shadows_meta_variable():
    # the bound n hides the meta-variable n inside the sum body
    value = evaluate(parse_expression("sum(n=0..2, y^n)"), {"n": 5})
    assert canonical_text(value) == "y^2 + y + 1"


def test_evaluate_rejects_an_identity():
    with pytest.raises(ValueError, match="cannot evaluate an identity"):
        evaluate(parse("x = y"), {})


def test_check_rejects_bare_expression():
    with pytest.raises(ValueError):
        check(parse_expression("F[n]"), {"n": (0, 3)})


# -- rendering ----------------------------------------------------------------------


def test_render_parse_render_fixed_point_on_corpus():
    for entry in load_corpus():
        rendered = render(entry.ast)
        reparsed = parse(rendered)
        assert reparsed == entry.ast, entry.source
        assert render(reparsed) == rendered


def _binary_asts(operand):
    return st.one_of(st.builds(cls, operand, operand) for cls in (Add, Sub, Mul))


@functools.cache
def _index_asts(names, depth):
    """Index expressions: integers >= 0, names in scope, unary -, and + - *."""
    leaves = st.builds(IntLit, st.integers(0, 12)) | st.builds(MetaVar, st.sampled_from(names))
    if depth == 0:
        return leaves
    sub = _index_asts(names, depth - 1)
    return leaves | st.builds(Neg, sub) | _binary_asts(sub)


@functools.cache
def _expression_asts(names=("k", "n"), depth=4):
    """Expressions of all 13 kinds, at most depth + 1 levels tall (far below
    MAX_DEPTH); a sum-bound name appears only inside its sum, and a sum over
    n shadows the meta-variable."""
    leaves = (
        st.sampled_from([VarX(), VarY(), VarDelta()])
        | st.builds(IntLit, st.integers(0, 12))
        | st.builds(MetaVar, st.sampled_from(names))
    )
    if depth == 0:
        return leaves
    sub = _expression_asts(names, depth - 1)
    index = _index_asts(names, depth - 1)
    sums = st.one_of(
        st.builds(Sum, st.just(var), index, index, _expression_asts(scope, depth - 1))
        for var, scope in (("j", tuple(sorted({*names, "j"}))), ("n", names))
    )
    return (
        leaves
        | st.builds(Neg, sub)
        | _binary_asts(sub)
        | st.builds(Pow, sub, index)
        | st.builds(Binom, index, index)
        | sums
        | st.builds(SeqApp, st.sampled_from("FL"), index, st.none() | st.tuples(sub, sub))
    )


@given(_expression_asts())
@settings(max_examples=500)
def test_render_parse_round_trip_on_generated_asts(expression):
    rendered = render(expression)
    reparsed = parse_expression(rendered)
    assert reparsed == expression
    assert render(reparsed) == rendered


def test_render_parenthesizes_only_when_needed():
    assert render(parse_expression("-y^k")) == "-y^k"
    assert render(parse_expression("(x+y)*x")) == "(x + y) * x"
    assert render(parse_expression("x+y*x")) == "x + y * x"


# -- power tables inside sums ---------------------------------------------------------


def _outcome(compute):
    """``compute()``'s value with its type, or its error's type and text."""
    try:
        value = compute()
    except ValueError as exc:  # DomainError too
        return type(exc), str(exc)
    return type(value), value


def _term_by_term(node: Sum, binding):
    """The sum's value with no power table: ``evaluate`` outside a sum takes none."""
    env = dict(binding)
    total = BivarPoly.const(0)
    for value in range(node.low._eval(env), node.high._eval(env) + 1):
        total = total + evaluate(node.body, {**binding, node.var: value})
    return total


def _assert_tables_change_nothing(node: Sum, binding):
    assert _outcome(lambda: evaluate(node, binding)) == _outcome(
        lambda: _term_by_term(node, binding)
    ), render(node)


def _nodes(node):
    yield node
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Node):
                yield from _nodes(child)


_INDEX_FIELDS = {
    Pow: ("exponent",),
    Binom: ("upper", "lower"),
    Sum: ("low", "high"),
    SeqApp: ("index",),
}


def _no_index_products(node) -> bool:
    """True when no index multiplies, which keeps every index at most 24 and
    every power and sum small enough to evaluate twice."""
    return not any(
        isinstance(inner, Mul)
        for outer in _nodes(node)
        for name in _INDEX_FIELDS.get(type(outer), ())
        for inner in _nodes(getattr(outer, name))
    )


@given(_expression_asts(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_a_binding_of_the_free_meta_variables_binds_every_name(expression, n, k):
    assume(_no_index_products(expression))
    free = free_meta_vars(expression)
    binding = {name: value for name, value in (("n", n), ("k", k)) if name in free}
    try:
        evaluate(expression, binding)
    except DomainError as exc:  # a negative index is outside the domain, not unbound
        assert "unbound meta-variable" not in str(exc), render(expression)


def _sum_asts(var, scope):
    """Sums over ``var``, from 0..2 to 0..8 or a meta-variable, whose bodies
    hold a power of a binomial, often free of ``var``, so that many of them
    read a power table."""
    outer = tuple(name for name in scope if name != var)
    operand = _expression_asts(outer, 1) | _expression_asts(scope, 1)
    base = st.builds(Add, operand, st.builds(IntLit, st.integers(1, 3)))
    power = st.builds(Pow, base, _index_asts(scope, 0))
    body = _expression_asts(scope, 2)
    return st.builds(
        Sum,
        st.just(var),
        st.builds(IntLit, st.integers(0, 2)),
        st.builds(IntLit, st.integers(0, 8)) | st.builds(MetaVar, st.sampled_from(outer)),
        st.builds(Mul, power, body) | st.builds(Add, power, body),
    )


_SUMS = _sum_asts("j", ("j", "k", "n")) | _sum_asts("n", ("k", "n"))


@given(_SUMS, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_a_sum_with_power_tables_equals_its_terms_evaluated_alone(node, n, k):
    # an assumption, not a filter: a filter's retries render the whole strategy
    assume(_no_index_products(node))
    _assert_tables_change_nothing(node, {"n": n, "k": k})


@pytest.mark.parametrize(
    "source",
    [
        "sum(r=0..n, 2^(n-r))",  # an int base
        "sum(r=0..n, (-y)^r)",  # a monomial base
        "sum(r=0..6, (-y)^r * x^(12-2*r))",  # monomial bases, one of them read downward
        "sum(r=0..5, 2^r * (-1)^r)",  # int bases
        "sum(r=0..4, (2*x)^(2*r))",  # a monomial base read at even exponents
        "sum(r=0..n-1, (x^2+4*y)^(n-1-r))",  # a base of two or more terms
        "sum(r=0..n, (x+D)^r)",  # a QuadExtElem base
        "sum(r=1..n, (x+F[r])^2)",  # a base that depends on the sum variable
        "sum(r=0..n, sum(s=0..r, (x+F[r])^s))",  # an inner base that depends on the outer variable
        "sum(r=0..n, (x+y)^0)",  # exponent 0
        "sum(r=0..2, (x+y)^(40*r))",  # exponents past the table's limit
        "sum(r=0..3, (x+y)^r * (x+y)^(3-r))",  # two tables whose nodes share leaves
    ],
)
def test_power_tables_change_no_sum(source):
    _assert_tables_change_nothing(parse_expression(source), {"n": 4})


@pytest.mark.parametrize(
    "source, tabled",
    [
        ("sum(r=0..n, 2^r)", False),  # an int base
        ("sum(r=0..n, (2*x)^r)", False),  # a monomial base
        ("sum(r=0..n, (x+y)^r)", True),  # a base of two terms
        ("sum(r=0..n, (x+D)^r)", True),  # a QuadExtElem base
    ],
)
def test_ints_and_monomials_take_no_power_table(monkeypatch, source, tabled):
    # a table of 2^0 .. 2^e would hold about e^2/2 bits, where each power
    # alone costs one power of an int
    grown = []
    real = idlang._grow_powers

    def grow(value, *args):
        grown.append(value)
        return real(value, *args)

    monkeypatch.setattr(idlang, "_grow_powers", grow)
    evaluate(parse_expression(source), {"n": 4})
    assert bool(grown) is tabled


# -- the parser's shortcuts ------------------------------------------------------------


def test_parse_shares_leaves_but_each_power_keeps_its_table(monkeypatch):
    node = parse_expression("sum(r=0..3, (x+y)^r * (x+y)^(3-r))")
    by_hand = Sum(
        "r",
        IntLit(0),
        IntLit(3),
        Mul(
            Pow(Add(VarX(), VarY()), MetaVar("r")),
            Pow(Add(VarX(), VarY()), Sub(IntLit(3), MetaVar("r"))),
        ),
    )
    assert node == by_hand
    first, second = node.body.left, node.body.right
    assert first.base.left is second.base.left and first.base.right is second.base.right
    assert first.exponent is second.exponent.right and node.high is second.exponent.left
    assert first.base is not second.base
    started = []
    real = Pow._powers
    monkeypatch.setattr(Pow, "_powers", lambda self, env: started.append(self) or real(self, env))
    assert evaluate(node, {}) == 4 * (X + Y) ** 3
    assert len(started) == 2 and started[0] is first and started[1] is second


def _tree_size(node) -> int:
    return sum(1 for _ in _nodes(node))


def _token_count(source: str) -> int:
    """Tokens in ``source``, EOF excluded."""
    return len(_tokenize(source)[0]) - 1


# every node owns a token of its own, which is why an input of at most
# MAX_DEPTH tokens, EOF included, needs no height tracking
@given(_expression_asts())
@settings(max_examples=300)
def test_a_parse_tree_has_no_more_nodes_than_its_source_has_tokens(expression):
    source = render(expression)
    assert _tree_size(parse_expression(source)) <= _token_count(source)


def test_a_corpus_tree_has_no_more_nodes_than_its_line_has_tokens():
    for entry in load_corpus():
        assert _tree_size(entry.ast) <= _token_count(entry.source), entry.source


def test_a_short_input_parses_with_no_height_tracking():
    # 50 terms are 99 tokens: MAX_DEPTH with EOF
    source = "+".join(["x"] * 50)
    parser = idlang._Parser(source)
    assert len(parser._kinds) == MAX_DEPTH and parser._heights is None
    assert parser.parse_expression() == functools.reduce(Add, [VarX()] * 50)
    assert idlang._Parser(source + "+x")._heights == {}


def test_a_late_error_in_a_long_line_reports_the_reference_column():
    source = "+".join(["x"] * 60) + " = )"
    reference = tokenize(source)
    assert len(reference) - 1 > MAX_DEPTH
    with pytest.raises(ParseError) as info:
        parse(source)
    found = (info.value.message, info.value.line, info.value.col)
    assert found == ("expected an expression, found ')'", 1, reference[-2][2] + 1)


# -- corpus --------------------------------------------------------------------------


def test_corpus_ids_map_to_catalog():
    entries = load_corpus()
    catalog_ids = set(catalog_by_id())
    assert {entry.case_id for entry in entries} <= catalog_ids
    required = {"EQ04"} | {f"EQ{i}" for i in range(11, 32)}
    assert required <= {entry.case_id for entry in entries}


def test_corpus_multi_line_cases():
    entries = load_corpus()
    by_id: dict[str, int] = {}
    for entry in entries:
        by_id[entry.case_id] = by_id.get(entry.case_id, 0) + 1
    assert by_id["EQ10"] == 2
    assert by_id["EQ14"] == 3


# -- fuzzing ---------------------------------------------------------------------------


def _tokens_or_error(tokenizer, source):
    try:
        return tokenizer(source)
    except ParseError as exc:
        return (exc.message, exc.line, exc.col)


def _tokens_with_offsets(source):
    """``_tokenize``'s tokens as ``(kind, text, offset)``, each offset found by ``_offset``."""
    kinds, texts = _tokenize(source)
    return [(kind, text, _offset(source, i)) for i, (kind, text) in enumerate(zip(kinds, texts))]


# Unicode digits and whitespace, dots and every punctuation mark, among any
# other characters: the tokenizer must treat each exactly as the reference does
_TRICKY = [
    "²", "٣", "x1", "F", "7", "\u00a0", "\u2003", "\x1c", "\n", "\t", ".", "..", "...",
    *"+-*^()[],=$?_",
]


@given(st.lists(st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=30).map("".join))
@settings(max_examples=500)
def test_tokenizer_matches_the_reference_character_loop(source):
    assert _tokens_or_error(_tokens_with_offsets, source) == _tokens_or_error(tokenize, source)


@given(st.text(max_size=60))
@settings(max_examples=300)
def test_parser_total_on_arbitrary_text(source):
    try:
        parse(source)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1


def test_parser_total_on_random_token_streams():
    rng = random.Random(20260809)
    tokens = [
        "F", "L", "x", "y", "D", "n", "k", "r", "binom", "sum", "0", "1", "2", "17",
        "+", "-", "*", "^", "(", ")", "[", "]", ",", "=", "..", " ",
    ]
    for _ in range(2000):
        source = "".join(rng.choice(tokens) for _ in range(rng.randrange(0, 25)))
        try:
            parse(source)
        except ParseError:
            pass
