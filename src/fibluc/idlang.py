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
Parsing and evaluation are pure; ASTs are immutable.  Each node kind's rules
(its value, its free meta-variables and its source text) live in its class.
"""

from __future__ import annotations

import importlib.resources
import itertools
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .poly import BivarPoly, DELTA, X, Y, ZERO
from .report import CheckReport, DomainError, check_cell
from .sequences import SeqKind, binomial, seq

_RESERVED = {"x", "y", "D", "F", "L", "binom", "sum"}
META_VARS = {"n", "k"}

#: Deepest expression the parser accepts, as nesting of sub-expressions (the
#: whole expression is level 1; each parenthesized group, bracketed index,
#: argument or sum body is one more) and as AST height (a leaf is 1).  The
#: parser takes four stack frames per parenthesized group in an index, five
#: per other parenthesized group and six per bracketed index, argument or sum
#: body (at most about 600 at this depth), the renderer two per level of height
#: (``_render`` and the node's ``_text``: about 200) and the evaluator one; a
#: domain error renders its node from inside the evaluator, which stays near
#: 200.  So every input stays well inside Python's default recursion limit of
#: 1000.
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
#
# Each node kind states its rules in its class: ``_eval(env)`` is its exact
# value (a plain int when no x, y, D or F/L occurs in it), ``_free(bound)`` the
# meta-variables it depends on outside the names in ``bound``, and ``_text()``
# its source text, in which ``_render`` parenthesizes each operand whose
# precedence ``level`` is below what its position needs.

_LEVEL_EQ = 0
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_UNARY = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


class Node:
    """An AST node, by default with an atom's precedence and no meta-variables."""

    level = _LEVEL_ATOM

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        return set()


@dataclass(frozen=True)
class IntLit(Node):
    value: int

    def _eval(self, env: Mapping[str, int]) -> int:
        return self.value

    def _text(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class _Symbol(Node):
    """A ring generator: x, y or D."""

    def _eval(self, env: Mapping[str, int]):
        return self._value

    def _text(self) -> str:
        return self._symbol


class VarX(_Symbol):
    _value, _symbol = X, "x"


class VarY(_Symbol):
    _value, _symbol = Y, "y"


class VarDelta(_Symbol):
    _value, _symbol = DELTA, "D"


#: The generator node classes by the name that spells them.
_SYMBOLS = {cls._symbol: cls for cls in (VarX, VarY, VarDelta)}


@dataclass(frozen=True)
class MetaVar(Node):
    name: str

    def _eval(self, env: Mapping[str, int]) -> int:
        try:
            return env[self.name]
        except KeyError:
            raise DomainError(f"unbound meta-variable '{self.name}'") from None

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        return set() if self.name in bound else {self.name}

    def _text(self) -> str:
        return self.name


@dataclass(frozen=True)
class Neg(Node):
    operand: "Node"

    level = _LEVEL_UNARY

    def _eval(self, env: Mapping[str, int]):
        return -self.operand._eval(env)

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        return self.operand._free(bound)

    def _text(self) -> str:
        return f"-{_render(self.operand, _LEVEL_POW)}"


@dataclass(frozen=True)
class _Binary(Node):
    """``left <symbol> right`` for a left-associative operator."""

    left: "Node"
    right: "Node"

    def _eval(self, env: Mapping[str, int]):
        return self._op(self.left._eval(env), self.right._eval(env))

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        return self.left._free(bound) | self.right._free(bound)

    def _text(self) -> str:
        left = _render(self.left, self.level)
        return f"{left} {self._symbol} {_render(self.right, self.level + 1)}"


class Add(_Binary):
    _op, _symbol, level = operator.add, "+", _LEVEL_ADD


class Sub(_Binary):
    _op, _symbol, level = operator.sub, "-", _LEVEL_ADD


class Mul(_Binary):
    _op, _symbol, level = operator.mul, "*", _LEVEL_MUL


@dataclass(frozen=True)
class Pow(Node):
    base: "Node"
    exponent: "Node"

    level = _LEVEL_POW

    def _eval(self, env: Mapping[str, int]):
        exponent = _eval_index(self.exponent, env, self, "exponent")
        return self.base._eval(env) ** exponent

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        return self.base._free(bound) | self.exponent._free(bound)

    def _text(self) -> str:
        exponent = self.exponent
        if isinstance(exponent, MetaVar) or isinstance(exponent, IntLit) and exponent.value >= 0:
            exp_text = exponent._text()
        else:
            exp_text = f"({_render(exponent, _LEVEL_ADD)})"
        return f"{_render(self.base, _LEVEL_ATOM)}^{exp_text}"


@dataclass(frozen=True)
class Binom(Node):
    upper: "Node"
    lower: "Node"

    def _eval(self, env: Mapping[str, int]) -> int:
        upper = _eval_index(self.upper, env, self, "binomial index")
        return binomial(upper, _eval_index(self.lower, env))

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        return self.upper._free(bound) | self.lower._free(bound)

    def _text(self) -> str:
        return f"binom({_render(self.upper, _LEVEL_ADD)}, {_render(self.lower, _LEVEL_ADD)})"


@dataclass(frozen=True)
class Sum(Node):
    var: str
    low: "Node"
    high: "Node"
    body: "Node"

    def _eval(self, env: Mapping[str, int]):
        low = _eval_index(self.low, env)
        high = _eval_index(self.high, env)
        total = ZERO
        inner = dict(env)
        for value in range(low, high + 1):
            inner[self.var] = value
            total = total + self.body._eval(inner)
        return total

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        names = self.low._free(bound) | self.high._free(bound)
        return names | self.body._free(bound + (self.var,))

    def _text(self) -> str:
        return (
            f"sum({self.var}={_render(self.low, _LEVEL_ADD)}..{_render(self.high, _LEVEL_ADD)}, "
            f"{_render(self.body, _LEVEL_ADD)})"
        )


@dataclass(frozen=True)
class SeqApp(Node):
    kind: str  # "F" or "L"
    index: "Node"
    args: tuple["Node", "Node"] | None = None

    def _eval(self, env: Mapping[str, int]):
        index = _eval_index(self.index, env, self, "sequence index")
        args = () if self.args is None else (self.args[0]._eval(env), self.args[1]._eval(env))
        return seq(SeqKind(self.kind), index, *args)

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        names = self.index._free(bound)
        if self.args is not None:
            names |= self.args[0]._free(bound) | self.args[1]._free(bound)
        return names

    def _text(self) -> str:
        text = f"{self.kind}[{_render(self.index, _LEVEL_ADD)}]"
        if self.args is not None:
            text += f"({_render(self.args[0], _LEVEL_ADD)}, {_render(self.args[1], _LEVEL_ADD)})"
        return text


@dataclass(frozen=True)
class Eq(Node):
    lhs: "Node"
    rhs: "Node"

    level = _LEVEL_EQ

    def _eval(self, env: Mapping[str, int]):
        raise ValueError("cannot evaluate an identity; evaluate one side")

    def _free(self, bound: tuple[str, ...]) -> set[str]:
        return self.lhs._free(bound) | self.rhs._free(bound)

    def _text(self) -> str:
        return f"{_render(self.lhs, _LEVEL_ADD)} = {_render(self.rhs, _LEVEL_ADD)}"


# -- tokenizer ------------------------------------------------------------------

#: One token per match: an integer, a name, a punctuation mark (``..`` or one
#: character) or, as an error, any other character that is not whitespace.
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)|(\.\.|[-+*^()\[\],=])|(\S)")
_GROUP_KINDS = (None, "INT", "NAME")


def _position(source: str, pos: int) -> tuple[int, int]:
    """1-based line and column of the offset ``pos`` in ``source``."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` for each token, then an EOF token; a kind is
    INT, NAME, EOF or the punctuation mark itself."""
    tokens = []
    for match in _TOKEN.finditer(source):
        group, text = match.lastindex, match[0]
        if group == 4:
            raise ParseError(f"unexpected character {text!r}", *_position(source, match.start()))
        tokens.append((text if group == 3 else _GROUP_KINDS[group], text, match.start()))
    tokens.append(("EOF", "", len(source)))
    return tokens


# -- parser ---------------------------------------------------------------------

_ADD_OPS = {"+": Add, "-": Sub}


class _Parser:
    def __init__(self, source: str) -> None:
        self._source = source
        # the token at index i is (_kinds[i], _texts[i], _offsets[i])
        self._kinds, self._texts, self._offsets = zip(*_tokenize(source))
        self._pos = 0
        self._scope: list[str] = []
        self._nesting = 0
        # AST heights by node id; ids stay unique because every node built
        # is held by the tree until the parse ends
        self._heights: dict[int, int] = {}

    def _error(self, message: str, at: int | None = None) -> ParseError:
        """An error at the token with index ``at``, by default the next one."""
        offset = self._offsets[self._pos if at is None else at]
        return ParseError(message, *_position(self._source, offset))

    def _shown(self) -> str:
        """The next token as an error message shows it."""
        pos = self._pos
        return repr(self._texts[pos] if self._kinds[pos] != "EOF" else "end of input")

    def _match(self, mark: str) -> bool:
        if self._kinds[self._pos] == mark:
            self._pos += 1
            return True
        return False

    def _expect(self, mark: str) -> None:
        if not self._match(mark):
            raise self._error(f"expected '{mark}', found {self._shown()}")

    def _expect_end(self) -> None:
        if self._kinds[self._pos] != "EOF":
            raise self._error(f"unexpected trailing input {self._shown()}")

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
    # expressions the same chains of index atoms; each rule reads the next
    # token's kind once per decision

    def _expr(self, operand: Callable[[], Node] | None = None) -> Node:
        operand = operand or self._factor
        self._nesting += 1
        if self._nesting > MAX_DEPTH:
            raise self._error(_TOO_DEEP)
        node = self._term(operand)
        kinds = self._kinds
        while (cls := _ADD_OPS.get(kinds[self._pos])) is not None:
            self._pos += 1
            node = self._build(cls, node, self._term(operand))
        self._nesting -= 1
        return node

    def _term(self, operand: Callable[[], Node]) -> Node:
        node = self._unary(operand)
        kinds = self._kinds
        while kinds[self._pos] == "*":
            self._pos += 1
            node = self._build(Mul, node, self._unary(operand))
        return node

    def _unary(self, operand: Callable[[], Node]) -> Node:
        if self._kinds[self._pos] == "-":
            self._pos += 1
            return self._build(Neg, operand())
        return operand()

    def _factor(self) -> Node:
        node = self._base()
        if self._kinds[self._pos] == "^":
            self._pos += 1
            exponent = self._ixatom("an exponent (integer, meta-variable, or parenthesized index)")
            node = self._build(Pow, node, exponent)
        return node

    def _base(self) -> Node:
        pos = self._pos
        kind = self._kinds[pos]
        if kind == "NAME":
            self._pos = pos + 1
            name = self._texts[pos]
            if name in _SYMBOLS:
                return _SYMBOLS[name]()
            if name in ("F", "L"):
                return self._seqapp(name, pos)
            if name == "binom":
                return self._binom(pos)
            if name == "sum":
                return self._sum(pos)
            return self._index_name(pos)
        if kind == "INT":
            self._pos = pos + 1
            return IntLit(int(self._texts[pos]))
        if kind == "(":
            self._pos = pos + 1
            inner = self._expr()
            self._expect(")")
            return inner
        raise self._error(f"expected an expression, found {self._shown()}")

    # ``at`` is the index of the name token that starts a rule

    def _seqapp(self, kind: str, at: int) -> SeqApp:
        if not self._match("["):
            raise self._error(f"'{kind}' must be applied as {kind}[index]", at)
        index = self._expr(self._ixatom)
        self._expect("]")
        args: tuple[Node, Node] | None = None
        if self._match("("):
            x_arg = self._expr()
            self._expect(",")
            y_arg = self._expr()
            self._expect(")")
            args = (x_arg, y_arg)
        return self._build(SeqApp, kind, index, args)

    def _binom(self, at: int) -> Binom:
        if not self._match("("):
            raise self._error("'binom' needs two index arguments", at)
        upper = self._expr(self._ixatom)
        self._expect(",")
        lower = self._expr(self._ixatom)
        self._expect(")")
        return self._build(Binom, upper, lower)

    def _sum(self, at: int) -> Sum:
        if not self._match("("):
            raise self._error("'sum' needs a bound variable and a body", at)
        if self._kinds[self._pos] != "NAME":
            raise self._error("expected a bound variable name")
        var = self._texts[self._pos]
        if var in _RESERVED:
            raise self._error(f"'{var}' is reserved and cannot be a sum variable")
        self._pos += 1
        self._expect("=")
        low = self._expr(self._ixatom)
        self._expect("..")
        high = self._expr(self._ixatom)
        self._expect(",")
        self._scope.append(var)
        try:
            body = self._expr()
        finally:
            self._scope.pop()
        self._expect(")")
        return self._build(Sum, var, low, high, body)

    def _index_name(self, at: int) -> MetaVar:
        name = self._texts[at]
        if name in self._scope or name in META_VARS:
            return MetaVar(name)
        raise self._error(f"unknown name '{name}'", at)

    def _ixatom(self, expected: str = "an index expression") -> Node:
        pos = self._pos
        kind = self._kinds[pos]
        if kind == "INT":
            self._pos = pos + 1
            return IntLit(int(self._texts[pos]))
        if kind == "NAME":
            self._pos = pos + 1
            return self._index_name(pos)
        if kind == "(":
            self._pos = pos + 1
            inner = self._expr(self._ixatom)
            self._expect(")")
            return inner
        raise self._error(f"expected {expected}, found {self._shown()}")


def parse(source: str) -> Eq:
    """Parse an identity ``lhs = rhs``."""
    return _Parser(source).parse_identity()


def parse_expression(source: str) -> Node:
    """Parse a single expression (no '=')."""
    return _Parser(source).parse_expression()


# -- evaluation -------------------------------------------------------------------


def _eval_index(
    node: Node, env: Mapping[str, int], owner: Node | None = None, noun: str = ""
) -> int:
    """Integer value of an index expression.

    Where ``owner``, the node the index belongs to, is given, a negative
    value is outside the domain: ``negative <noun> <value> in <owner> ...``.
    """
    value = node._eval(env)
    if not isinstance(value, int):
        raise ValueError(f"not an index expression: {render(node)}")
    if owner is not None and value < 0:
        raise _domain_error(f"negative {noun} {value}", owner, env)
    return value


def _domain_error(problem: str, node: Node, env: Mapping[str, int]) -> DomainError:
    """``<problem> in <node> at {n=.., k=..}``, leaving out an empty binding."""
    message = f"{problem} in {render(node)}"
    if env:
        message += " at {" + ", ".join(f"{name}={env[name]}" for name in sorted(env)) + "}"
    return DomainError(message)


def evaluate(node: Node, binding: Mapping[str, int]):
    """Exact ring value of an expression under the given meta-variable binding."""
    value = node._eval(dict(binding))
    return BivarPoly.const(value) if isinstance(value, int) else value


def free_meta_vars(node: Node) -> set[str]:
    """Meta-variables the expression depends on (sum-bound names excluded)."""
    return node._free(())


def check(ast: Eq, ranges: Mapping[str, tuple[int, int]], case_id: str = "user") -> CheckReport:
    """Check an identity at every grid point of the given inclusive ranges.

    Equality is exact componentwise extension-ring equality.  A negative
    subscript, exponent or binomial upper index at some grid point is outside
    the identity's domain, not a counterexample: it raises ``DomainError``,
    naming the expression and the binding.  An empty range raises
    ``ValueError``, because it would check no cell.
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
        if low > high:
            raise ValueError(f"empty range '{name}={low}..{high}': low bound above high bound")
        return list(range(low, high + 1))

    cells = []
    for n, k in itertools.product(axis("n"), axis("k")):
        env = {name: value for name, value in (("n", n), ("k", k)) if value is not None}
        cells.append(check_cell(case_id, n, k, lambda: (ast.lhs._eval(env), ast.rhs._eval(env))))
    return CheckReport.from_cells(cells)


# -- rendering --------------------------------------------------------------------


def _render(node: Node, min_level: int) -> str:
    text = node._text()
    return f"({text})" if node.level < min_level else text


def render(node: Node) -> str:
    """Source text that parses back to an equal AST."""
    return _render(node, _LEVEL_EQ)


# -- corpus -----------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    case_id: str
    source: str
    ast: Eq


def load_corpus(path=None) -> list[CorpusEntry]:
    """Load the shipped identity corpus (or a corpus file at ``path``).

    The file holds one identity per line; ``# id: EQnn`` comment lines bind
    the following identity lines to catalog case ids.  Either file is read
    as UTF-8, with or without a byte-order mark.
    """
    source = importlib.resources.files("fibluc") / "identities.txt" if path is None else Path(path)
    try:
        text = source.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        line_no = exc.object[: exc.start].count(b"\n") + 1
        problem = f"invalid UTF-8 byte {exc.object[exc.start]:#04x}"
        raise ValueError(f"corpus file {str(source)!r}, line {line_no}: {problem}") from None
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
                if not current_id:
                    raise ValueError(f"corpus line {line_no} has an empty '# id:' comment")
            continue
        if current_id is None:
            raise ValueError(f"corpus line {line_no} has no preceding '# id:' comment")
        try:
            ast = parse(line)
        except ParseError as exc:  # report the position in the file, not in the stripped line
            indent = len(raw) - len(raw.lstrip())
            raise ParseError(exc.message, line_no, exc.col + indent) from None
        entries.append(CorpusEntry(current_id, line, ast))
    return entries
