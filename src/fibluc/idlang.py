"""A small expression language for stating identities over F, L, x, y, D.

Sources look like ``y*F[n-1] + F[n+1] = L[n]`` or
``L[2*n](D*F[k], (-1)^k * y^k) = L[2*n*k]``: sequence applications take an
index in brackets and optional substitution arguments in parentheses
(defaulting to ``(x, y)``), ``D`` is the adjoined square root of x^2+4y,
``binom`` and ``sum`` are available, and ``n``/``k`` are meta-variables bound
to concrete nonnegative integers at evaluation time.

Grammar (EBNF)::

    identity = expr "=" expr ;
    expr     = term { ("+"|"-") term } ;
    term     = unary { "*" unary } ;
    unary    = ["-"] factor ;
    factor   = base [ "^" ( "(" ixexpr ")" | integer | name ) ] ;
    base     = integer | "x" | "y" | "D" | name | seqapp | binom | sum
             | "(" expr ")" ;
    seqapp   = ("F"|"L") "[" ixexpr "]" [ "(" expr "," expr ")" ] ;
    binom    = "binom" "(" ixexpr "," ixexpr ")" ;
    sum      = "sum" "(" name "=" ixexpr ".." ixexpr "," expr ")" ;
    ixexpr   = integer / meta-variable arithmetic with + - * and parentheses ;

``^`` binds tighter than unary minus, so ``-y^k`` means ``-(y^k)``.
Parsing and evaluation are pure; ASTs are immutable.
"""

from __future__ import annotations

import importlib.resources
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from ._seqcache import fib_poly, luc_poly
from .poly import BivarPoly, DELTA, X, Y, ZERO
from .report import CheckReport, DomainError, check_cell
from .sequences import SeqKind, binomial, seq

_RESERVED = {"x", "y", "D", "F", "L", "binom", "sum"}
META_VARS = {"n", "k"}

#: Deepest expression the parser accepts, as nesting of sub-expressions (the
#: whole expression is level 1; each parenthesized group, bracketed index,
#: argument or sum body is one more) and as AST height (a leaf is 1).  The
#: parser, evaluator and renderer recurse once per level, so this keeps every
#: input well inside Python's recursion limit.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


class ParseError(Exception):
    """Syntax or scoping error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class VarX:
    pass


@dataclass(frozen=True)
class VarY:
    pass


@dataclass(frozen=True)
class VarDelta:
    pass


@dataclass(frozen=True)
class MetaVar:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: "Node"


@dataclass(frozen=True)
class Binom:
    upper: "Node"
    lower: "Node"


@dataclass(frozen=True)
class Sum:
    var: str
    low: "Node"
    high: "Node"
    body: "Node"


@dataclass(frozen=True)
class SeqApp:
    kind: str  # "F" or "L"
    index: "Node"
    args: tuple["Node", "Node"] | None = None


@dataclass(frozen=True)
class Eq:
    lhs: "Node"
    rhs: "Node"


Node = Union[
    IntLit, VarX, VarY, VarDelta, MetaVar, Neg, Add, Sub, Mul, Pow, Binom, Sum, SeqApp, Eq
]


# -- tokenizer ------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # INT NAME PUNCT EOF
    text: str
    line: int
    col: int


_PUNCT = set("+-*^()[],=")
_DIGITS = set("0123456789")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_BODY = _NAME_START | _DIGITS


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch in _DIGITS:
            j = i
            while j < length and source[j] in _DIGITS:
                j += 1
            tokens.append(_Token("INT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < length and source[j] in _NAME_BODY:
                j += 1
            tokens.append(_Token("NAME", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == ".":
            if i + 1 < length and source[i + 1] == ".":
                tokens.append(_Token("PUNCT", "..", line, start_col))
                col += 2
                i += 2
                continue
            raise ParseError("unexpected character '.'", line, start_col)
        if ch in _PUNCT:
            tokens.append(_Token("PUNCT", ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str) -> None:
        self._tokens = _tokenize(source)
        self._pos = 0
        self._scope: list[str] = []
        self._nesting = 0
        # AST heights by node id; ids stay unique because every node built
        # is held by the tree until the parse ends
        self._heights: dict[int, int] = {}

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _error(self, message: str, token: _Token | None = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, token.line, token.col)

    def _match(self, text: str) -> bool:
        token = self._peek()
        if token.kind == "PUNCT" and token.text == text:
            self._advance()
            return True
        return False

    def _expect(self, text: str) -> _Token:
        token = self._peek()
        if token.kind == "PUNCT" and token.text == text:
            return self._advance()
        shown = token.text if token.kind != "EOF" else "end of input"
        raise self._error(f"expected '{text}', found {shown!r}")

    def _expect_end(self) -> None:
        token = self._peek()
        if token.kind != "EOF":
            raise self._error(f"unexpected trailing input {token.text!r}")

    def _build(self, cls: type, *fields) -> Node:
        """``cls(*fields)``, unless the new node would make the tree taller
        than MAX_DEPTH.  A SeqApp's argument pair counts as two children;
        fields that are not nodes count as leaves."""
        heights = self._heights
        tallest_child = 1
        for child in fields + fields[2] if cls is SeqApp and fields[2] else fields:
            height = heights.get(id(child), 1)
            if height > tallest_child:
                tallest_child = height
        if tallest_child >= MAX_DEPTH:
            raise self._error(_TOO_DEEP)
        node = cls(*fields)
        heights[id(node)] = tallest_child + 1
        return node

    # entry points

    def parse_identity(self) -> Eq:
        lhs = self._expr()
        self._expect("=")
        rhs = self._expr()
        self._expect_end()
        return Eq(lhs, rhs)

    def parse_expression(self) -> Node:
        node = self._expr()
        self._expect_end()
        return node

    # expressions: ring-valued ones are chains of factors, index
    # expressions the same chains of index atoms

    def _expr(self, operand: Callable[[], Node] | None = None) -> Node:
        operand = operand or self._factor
        self._nesting += 1
        if self._nesting > MAX_DEPTH:
            raise self._error(_TOO_DEEP)
        node = self._term(operand)
        while True:
            if self._match("+"):
                node = self._build(Add, node, self._term(operand))
            elif self._match("-"):
                node = self._build(Sub, node, self._term(operand))
            else:
                self._nesting -= 1
                return node

    def _term(self, operand: Callable[[], Node]) -> Node:
        node = self._unary(operand)
        while self._match("*"):
            node = self._build(Mul, node, self._unary(operand))
        return node

    def _unary(self, operand: Callable[[], Node]) -> Node:
        if self._match("-"):
            return self._build(Neg, operand())
        return operand()

    def _ixexpr(self) -> Node:
        return self._expr(self._ixatom)

    def _factor(self) -> Node:
        node = self._base()
        if self._match("^"):
            exponent = self._ixatom("an exponent (integer, meta-variable, or parenthesized index)")
            node = self._build(Pow, node, exponent)
        return node

    def _base(self) -> Node:
        token = self._peek()
        if token.kind == "INT":
            self._advance()
            return IntLit(int(token.text))
        if token.kind == "PUNCT" and token.text == "(":
            self._advance()
            inner = self._expr()
            self._expect(")")
            return inner
        if token.kind == "NAME":
            self._advance()
            name = token.text
            if name == "x":
                return VarX()
            if name == "y":
                return VarY()
            if name == "D":
                return VarDelta()
            if name in ("F", "L"):
                return self._seqapp(name, token)
            if name == "binom":
                return self._binom(token)
            if name == "sum":
                return self._sum(token)
            return self._index_name(token)
        shown = token.text if token.kind != "EOF" else "end of input"
        raise self._error(f"expected an expression, found {shown!r}")

    def _seqapp(self, kind: str, token: _Token) -> SeqApp:
        if not self._match("["):
            raise self._error(f"'{kind}' must be applied as {kind}[index]", token)
        index = self._ixexpr()
        self._expect("]")
        args: tuple[Node, Node] | None = None
        if self._match("("):
            x_arg = self._expr()
            self._expect(",")
            y_arg = self._expr()
            self._expect(")")
            args = (x_arg, y_arg)
        return self._build(SeqApp, kind, index, args)

    def _binom(self, token: _Token) -> Binom:
        if not self._match("("):
            raise self._error("'binom' needs two index arguments", token)
        upper = self._ixexpr()
        self._expect(",")
        lower = self._ixexpr()
        self._expect(")")
        return self._build(Binom, upper, lower)

    def _sum(self, token: _Token) -> Sum:
        if not self._match("("):
            raise self._error("'sum' needs a bound variable and a body", token)
        var_token = self._peek()
        if var_token.kind != "NAME":
            raise self._error("expected a bound variable name")
        if var_token.text in _RESERVED:
            raise self._error(f"'{var_token.text}' is reserved and cannot be a sum variable")
        self._advance()
        self._expect("=")
        low = self._ixexpr()
        self._expect("..")
        high = self._ixexpr()
        self._expect(",")
        self._scope.append(var_token.text)
        try:
            body = self._expr()
        finally:
            self._scope.pop()
        self._expect(")")
        return self._build(Sum, var_token.text, low, high, body)

    def _index_name(self, token: _Token) -> MetaVar:
        name = token.text
        if name in self._scope or name in META_VARS:
            return MetaVar(name)
        raise ParseError(f"unknown name '{name}'", token.line, token.col)

    def _ixatom(self, expected: str = "an index expression") -> Node:
        token = self._peek()
        if token.kind == "INT":
            self._advance()
            return IntLit(int(token.text))
        if token.kind == "NAME":
            self._advance()
            return self._index_name(token)
        if token.kind == "PUNCT" and token.text == "(":
            self._advance()
            inner = self._ixexpr()
            self._expect(")")
            return inner
        shown = token.text if token.kind != "EOF" else "end of input"
        raise self._error(f"expected {expected}, found {shown!r}")


def parse(source: str) -> Eq:
    """Parse an identity ``lhs = rhs``."""
    return _Parser(source).parse_identity()


def parse_expression(source: str) -> Node:
    """Parse a single expression (no '=')."""
    return _Parser(source).parse_expression()


# -- evaluation -------------------------------------------------------------------


def _eval_index(node: Node, env: Mapping[str, int]) -> int:
    value = _eval_ring(node, env)
    if not isinstance(value, int):
        raise ValueError(f"not an index expression: {render(node)}")
    return value


def _domain_error(problem: str, node: Node, env: Mapping[str, int]) -> DomainError:
    """``<problem> in <node> at {n=.., k=..}``, leaving out an empty binding."""
    message = f"{problem} in {render(node)}"
    if env:
        message += " at {" + ", ".join(f"{name}={env[name]}" for name in sorted(env)) + "}"
    return DomainError(message)


def _eval_ring(node: Node, env: Mapping[str, int]):
    """Exact value of ``node``; a plain int when no x, y, D or F/L occurs in it."""
    # the node kinds of index expressions come first: they are the most frequent
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, MetaVar):
        try:
            return env[node.name]
        except KeyError:
            raise DomainError(f"unbound meta-variable '{node.name}'") from None
    if isinstance(node, Neg):
        return -_eval_ring(node.operand, env)
    if isinstance(node, Add):
        return _eval_ring(node.left, env) + _eval_ring(node.right, env)
    if isinstance(node, Sub):
        return _eval_ring(node.left, env) - _eval_ring(node.right, env)
    if isinstance(node, Mul):
        return _eval_ring(node.left, env) * _eval_ring(node.right, env)
    if isinstance(node, VarX):
        return X
    if isinstance(node, VarY):
        return Y
    if isinstance(node, VarDelta):
        return DELTA
    if isinstance(node, Pow):
        exponent = _eval_index(node.exponent, env)
        if exponent < 0:
            raise _domain_error(f"negative exponent {exponent}", node, env)
        return _eval_ring(node.base, env) ** exponent
    if isinstance(node, Binom):
        upper = _eval_index(node.upper, env)
        lower = _eval_index(node.lower, env)
        if upper < 0:
            raise _domain_error(f"negative binomial index {upper}", node, env)
        return binomial(upper, lower)
    if isinstance(node, Sum):
        low = _eval_index(node.low, env)
        high = _eval_index(node.high, env)
        total = ZERO
        if low > high:
            return total
        inner = dict(env)
        for value in range(low, high + 1):
            inner[node.var] = value
            total = total + _eval_ring(node.body, inner)
        return total
    if isinstance(node, SeqApp):
        index = _eval_index(node.index, env)
        if index < 0:
            raise _domain_error(f"negative sequence index {index}", node, env)
        if node.args is None:
            return fib_poly(index) if node.kind == "F" else luc_poly(index)
        x_arg = _eval_ring(node.args[0], env)
        y_arg = _eval_ring(node.args[1], env)
        return seq(SeqKind(node.kind), index, x_arg, y_arg)
    if isinstance(node, Eq):
        raise ValueError("cannot evaluate an identity; evaluate one side")
    raise ValueError(f"cannot evaluate node {node!r}")


def evaluate(node: Node, binding: Mapping[str, int]):
    """Exact ring value of an expression under the given meta-variable binding."""
    value = _eval_ring(node, dict(binding))
    return BivarPoly.const(value) if isinstance(value, int) else value


def free_meta_vars(node: Node) -> set[str]:
    """Meta-variables the expression depends on (sum-bound names excluded)."""

    def walk(item: Node, bound: tuple[str, ...]) -> set[str]:
        if isinstance(item, MetaVar):
            return set() if item.name in bound else {item.name}
        if isinstance(item, Neg):
            return walk(item.operand, bound)
        if isinstance(item, (Add, Sub, Mul)):
            return walk(item.left, bound) | walk(item.right, bound)
        if isinstance(item, Pow):
            return walk(item.base, bound) | walk(item.exponent, bound)
        if isinstance(item, Binom):
            return walk(item.upper, bound) | walk(item.lower, bound)
        if isinstance(item, Sum):
            names = walk(item.low, bound) | walk(item.high, bound)
            return names | walk(item.body, bound + (item.var,))
        if isinstance(item, SeqApp):
            names = walk(item.index, bound)
            if item.args is not None:
                names |= walk(item.args[0], bound) | walk(item.args[1], bound)
            return names
        if isinstance(item, Eq):
            return walk(item.lhs, bound) | walk(item.rhs, bound)
        return set()

    return walk(node, ())


def check(ast: Eq, ranges: Mapping[str, tuple[int, int]], case_id: str = "user") -> CheckReport:
    """Check an identity at every grid point of the given inclusive ranges.

    Equality is exact componentwise extension-ring equality.  A negative
    subscript, exponent or binomial upper index at some grid point is outside
    the identity's domain, not a counterexample: it raises ``DomainError``,
    naming the expression and the binding.
    """
    if not isinstance(ast, Eq):
        raise ValueError("expected an identity of the form lhs = rhs")
    free = free_meta_vars(ast)
    missing = sorted(free - set(ranges))
    if missing:
        raise ValueError(f"no range given for meta-variable(s): {', '.join(missing)}")

    def axis(name: str) -> list[int | None]:
        if name not in free:
            return [None]
        low, high = ranges[name]
        return list(range(low, high + 1))

    cells = []
    for n, k in itertools.product(axis("n"), axis("k")):
        env = {name: value for name, value in (("n", n), ("k", k)) if value is not None}
        cells.append(
            check_cell(case_id, n, k, lambda: (_eval_ring(ast.lhs, env), _eval_ring(ast.rhs, env)))
        )
    return CheckReport.from_cells(cells)


# -- rendering --------------------------------------------------------------------

_LEVEL_EQ = 0
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_UNARY = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


_NODE_LEVELS = {
    Eq: _LEVEL_EQ,
    Add: _LEVEL_ADD,
    Sub: _LEVEL_ADD,
    Mul: _LEVEL_MUL,
    Neg: _LEVEL_UNARY,
    Pow: _LEVEL_POW,
}


def _render(node: Node, min_level: int) -> str:
    text: str
    if isinstance(node, Eq):
        text = f"{_render(node.lhs, _LEVEL_ADD)} = {_render(node.rhs, _LEVEL_ADD)}"
    elif isinstance(node, Add):
        text = f"{_render(node.left, _LEVEL_ADD)} + {_render(node.right, _LEVEL_MUL)}"
    elif isinstance(node, Sub):
        text = f"{_render(node.left, _LEVEL_ADD)} - {_render(node.right, _LEVEL_MUL)}"
    elif isinstance(node, Mul):
        text = f"{_render(node.left, _LEVEL_MUL)} * {_render(node.right, _LEVEL_UNARY)}"
    elif isinstance(node, Neg):
        text = f"-{_render(node.operand, _LEVEL_POW)}"
    elif isinstance(node, Pow):
        exponent = node.exponent
        if isinstance(exponent, IntLit) and exponent.value >= 0:
            exp_text = str(exponent.value)
        elif isinstance(exponent, MetaVar):
            exp_text = exponent.name
        else:
            exp_text = f"({_render(exponent, _LEVEL_ADD)})"
        text = f"{_render(node.base, _LEVEL_ATOM)}^{exp_text}"
    elif isinstance(node, IntLit):
        text = str(node.value)
    elif isinstance(node, VarX):
        text = "x"
    elif isinstance(node, VarY):
        text = "y"
    elif isinstance(node, VarDelta):
        text = "D"
    elif isinstance(node, MetaVar):
        text = node.name
    elif isinstance(node, SeqApp):
        text = f"{node.kind}[{_render(node.index, _LEVEL_ADD)}]"
        if node.args is not None:
            text += f"({_render(node.args[0], _LEVEL_ADD)}, {_render(node.args[1], _LEVEL_ADD)})"
    elif isinstance(node, Binom):
        text = f"binom({_render(node.upper, _LEVEL_ADD)}, {_render(node.lower, _LEVEL_ADD)})"
    elif isinstance(node, Sum):
        text = (
            f"sum({node.var}={_render(node.low, _LEVEL_ADD)}..{_render(node.high, _LEVEL_ADD)}, "
            f"{_render(node.body, _LEVEL_ADD)})"
        )
    else:
        raise ValueError(f"cannot render {node!r}")
    if _NODE_LEVELS.get(type(node), _LEVEL_ATOM) < min_level:
        return f"({text})"
    return text


def render(node: Node) -> str:
    """Source text that parses back to an equal AST."""
    return _render(node, _LEVEL_EQ)


# -- corpus -----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    case_id: str
    source: str
    line_no: int
    ast: Eq


def load_corpus(path=None) -> list[CorpusEntry]:
    """Load the shipped identity corpus (or a corpus file at ``path``).

    The file holds one identity per line; ``# id: EQnn`` comment lines bind
    the following identity lines to catalog case ids.
    """
    if path is None:
        text = importlib.resources.files("fibluc").joinpath("identities.txt").read_text()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    entries: list[CorpusEntry] = []
    current_id: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.lower().startswith("id:"):
                current_id = comment[3:].strip()
            continue
        if current_id is None:
            raise ValueError(f"corpus line {line_no} has no preceding '# id:' comment")
        try:
            ast = parse(line)
        except ParseError as exc:  # report the position in the file, not in the stripped line
            indent = len(raw) - len(raw.lstrip())
            raise ParseError(exc.message, line_no, exc.col + indent) from None
        entries.append(CorpusEntry(current_id, line, line_no, ast))
    return entries
