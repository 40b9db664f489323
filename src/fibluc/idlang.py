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

from .poly import BivarPoly, DELTA, QuadExtElem, X, Y, ZERO, _grow_powers
from .report import CheckReport, DomainError, check_cell, grid_axis
from .sequences import SeqKind, binomial, seq

_RESERVED = {"x", "y", "D", "F", "L", "binom", "sum"}
META_VARS = {"n", "k"}

#: Deepest expression the parser accepts, as nesting of sub-expressions (the
#: whole expression is level 1; each parenthesized group, bracketed index,
#: argument or sum body is one more) and as AST height (a leaf is 1).  The
#: parser takes three stack frames per parenthesized group in an index, four
#: per other parenthesized group and five per bracketed index, argument or sum
#: body (at most about 500 at this depth), the renderer two per level of height
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
# value (a plain int when no x, y, D or F/L occurs in it), ``_free()`` the
# meta-variables it depends on (a sum takes its own variable out of its body's),
# and ``_text()`` its source text, in which ``_render`` parenthesizes each
# operand whose precedence ``level`` is below what its position needs.

_LEVEL_EQ = 0
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_UNARY = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5


class Node:
    """An AST node, by default with an atom's precedence and no meta-variables."""

    level = _LEVEL_ATOM

    def _free(self) -> set[str]:
        return set()


class _SumEnv(dict):
    """The binding a sum hands its body: the meta-variables, plus the sum's
    variable ``var``, a power table per ``Pow`` node (by id) and ``limit``,
    the highest exponent a table reaches, twice the sum's term count.

    A body's powers of a base that does not vary with ``var`` mostly run
    over consecutive exponents, so building them upward costs one product
    each, where each power alone costs about log2(e) + popcount(e).  An int
    or a monomial takes no table: each power alone is one power of its
    coefficient, while a table of 2^0 .. 2^e would hold about e^2/2 bits.
    """

    __slots__ = ("var", "limit", "tables")

    def __init__(self, env: Mapping[str, int], var: str, limit: int) -> None:
        super().__init__(env)
        self.var = var
        self.limit = limit
        self.tables: dict[int, list] = {}


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

    def _free(self) -> set[str]:
        return {self.name}

    def _text(self) -> str:
        return self.name


@dataclass(frozen=True)
class Neg(Node):
    operand: "Node"

    level = _LEVEL_UNARY

    def _eval(self, env: Mapping[str, int]):
        return -self.operand._eval(env)

    def _free(self) -> set[str]:
        return self.operand._free()

    def _text(self) -> str:
        return f"-{_render(self.operand, _LEVEL_POW)}"


@dataclass(frozen=True)
class _Binary(Node):
    """``left <symbol> right`` for a left-associative operator."""

    left: "Node"
    right: "Node"

    def _eval(self, env: Mapping[str, int]):
        return self._op(self.left._eval(env), self.right._eval(env))

    def _free(self) -> set[str]:
        return self.left._free() | self.right._free()

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
    """``base^exponent``.

    Inside a sum, a base that does not depend on the sum's variable is
    evaluated once, and when it is a ``QuadExtElem`` or a polynomial of two or
    more terms, its powers up to the sum's limit come from one table that
    grows by one product with the base per power (see :class:`_SumEnv`).
    Every other power is ``base ** exponent``.
    """

    base: "Node"
    exponent: "Node"

    level = _LEVEL_POW

    def _eval(self, env: Mapping[str, int]):
        exponent = _eval_index(self.exponent, env, self, "exponent")
        if type(env) is _SumEnv and exponent <= env.limit:
            tables = env.tables
            powers = tables.get(id(self))
            if powers is None:
                powers = tables[id(self)] = self._powers(env)
            if powers:
                return _grow_powers(powers[1], exponent, powers)[exponent]
        return self.base._eval(env) ** exponent

    def _powers(self, env: _SumEnv) -> list:
        """``[base^0, base]`` to start this node's table in ``env``'s sum, or
        ``[]`` where the base depends on the sum's variable or takes no table
        (an int, a monomial)."""
        if env.var in self.base._free():
            return []
        base = self.base._eval(env)
        if isinstance(base, QuadExtElem) or isinstance(base, BivarPoly) and len(base._terms) > 1:
            return _grow_powers(base, 1)
        return []

    def _free(self) -> set[str]:
        return self.base._free() | self.exponent._free()

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

    def _free(self) -> set[str]:
        return self.upper._free() | self.lower._free()

    def _text(self) -> str:
        return f"binom({_render(self.upper, _LEVEL_ADD)}, {_render(self.lower, _LEVEL_ADD)})"


@dataclass(frozen=True)
class Sum(Node):
    """``sum(var=low..high, body)``.

    The body sees a :class:`_SumEnv` of its own, with power tables for this
    evaluation alone: a nested sum starts its own, and the tables go when the
    sum returns.
    """

    var: str
    low: "Node"
    high: "Node"
    body: "Node"

    def _eval(self, env: Mapping[str, int]):
        low = _eval_index(self.low, env)
        high = _eval_index(self.high, env)
        total = ZERO
        inner = _SumEnv(env, self.var, 2 * (high - low + 1))
        for value in range(low, high + 1):
            inner[self.var] = value
            total = total + self.body._eval(inner)
        return total

    def _free(self) -> set[str]:
        return self.low._free() | self.high._free() | (self.body._free() - {self.var})

    def _text(self) -> str:
        return (
            f"sum({self.var}={_render(self.low, _LEVEL_ADD)}..{_render(self.high, _LEVEL_ADD)}, "
            f"{_render(self.body, _LEVEL_ADD)})"
        )


#: Each sequence kind by its letter, without Enum's lookup by value.
_SEQ_KINDS = {kind.value: kind for kind in SeqKind}


@dataclass(frozen=True)
class SeqApp(Node):
    kind: str  # "F" or "L"
    index: "Node"
    args: tuple["Node", "Node"] | None = None

    def _eval(self, env: Mapping[str, int]):
        index = _eval_index(self.index, env, self, "sequence index")
        args = () if self.args is None else (self.args[0]._eval(env), self.args[1]._eval(env))
        return seq(_SEQ_KINDS[self.kind], index, *args)

    def _free(self) -> set[str]:
        names = self.index._free()
        if self.args is not None:
            names |= self.args[0]._free() | self.args[1]._free()
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

    def _free(self) -> set[str]:
        return self.lhs._free() | self.rhs._free()

    def _text(self) -> str:
        return f"{_render(self.lhs, _LEVEL_ADD)} = {_render(self.rhs, _LEVEL_ADD)}"


# -- tokenizer ------------------------------------------------------------------

#: One token per match: an integer, a name, a punctuation mark (``..`` or one
#: character) or, as an error, any other character that is not whitespace.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|\.\.|[-+*^()\[\],=]|\S")
#: A token's kind by its text (a punctuation mark) or else by its first
#: character (INT or NAME); a text found in neither is an unexpected character.
_KINDS = {mark: mark for mark in ("..", *"-+*^()[],=")} | dict.fromkeys("0123456789", "INT")
_KINDS |= dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "NAME")


def _offset(source: str, i: int) -> int:
    """Offset in ``source`` of the token with index ``i``; the EOF token's is
    the length of ``source``.  Tokens keep no offsets: only an error needs one."""
    match = next(itertools.islice(_TOKEN.finditer(source), i, None), None)
    return len(source) if match is None else match.start()


def _position(source: str, i: int) -> tuple[int, int]:
    """1-based line and column in ``source`` of the token with index ``i``."""
    pos = _offset(source, i)
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _tokenize(source: str) -> tuple[list[str], list[str]]:
    """The kind and the text of each token, then of an EOF token, as two
    lists; a kind is INT, NAME, EOF or the punctuation mark itself."""
    texts = _TOKEN.findall(source)
    kinds = [_KINDS.get(text) or _KINDS.get(text[0]) for text in texts]
    if None in kinds:
        i = kinds.index(None)
        raise ParseError(f"unexpected character {texts[i]!r}", *_position(source, i))
    return kinds + ["EOF"], texts + [""]


# -- parser ---------------------------------------------------------------------

_ADD_OPS = {"+": Add, "-": Sub}


class _Leaves(dict):
    """One parse's leaves (IntLit, MetaVar, VarX, VarY, VarDelta) by the text
    of the token that spells them, each built at its first use.  The parser
    looks a meta-variable up only once its name is known to be in scope."""

    def __missing__(self, text: str) -> Node:
        cls = _SYMBOLS.get(text)
        leaf = self[text] = cls() if cls else IntLit(int(text)) if text.isdigit() else MetaVar(text)
        return leaf


class _Parser:
    def __init__(self, source: str) -> None:
        self._source = source
        # the token at index i has kind _kinds[i] and text _texts[i]
        self._kinds, self._texts = _tokenize(source)
        self._pos = 0
        self._scope: list[str] = []
        self._nesting = 0
        self._leaves = _Leaves()
        # AST heights by node id; ids stay unique because every node built
        # is held by the tree until the parse ends.  Every node owns a token
        # of its own, so a tree is no taller than its count of tokens: an
        # input of at most MAX_DEPTH tokens, EOF included, needs no heights.
        self._heights: dict[int, int] | None = None if len(self._kinds) <= MAX_DEPTH else {}

    def _error(self, message: str, at: int | None = None) -> ParseError:
        """An error at the token with index ``at``, by default the next one."""
        return ParseError(message, *_position(self._source, self._pos if at is None else at))

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
        if heights is None:
            return cls(*fields)
        children = fields + fields[2] if cls is SeqApp and fields[2] else fields
        tallest_child = max(heights.get(id(child), 1) for child in children)
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
        """Factors joined by ``*``, each one negated by a ``-`` before it."""
        kinds = self._kinds
        node = None
        while True:
            if kinds[self._pos] == "-":
                self._pos += 1
                factor = self._build(Neg, operand())
            else:
                factor = operand()
            node = factor if node is None else self._build(Mul, node, factor)
            if kinds[self._pos] != "*":
                return node
            self._pos += 1

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
                return self._leaves[name]
            if name in ("F", "L"):
                return self._seqapp(name, pos)
            if name == "binom":
                return self._binom(pos)
            if name == "sum":
                return self._sum(pos)
            return self._index_name(pos)
        if kind == "INT":
            self._pos = pos + 1
            return self._leaves[self._texts[pos]]
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
        body = self._expr()
        self._scope.pop()
        self._expect(")")
        return self._build(Sum, var, low, high, body)

    def _index_name(self, at: int) -> MetaVar:
        name = self._texts[at]
        if name in self._scope or name in META_VARS:
            return self._leaves[name]
        raise self._error(f"unknown name '{name}'", at)

    def _ixatom(self, expected: str = "an index expression") -> Node:
        pos = self._pos
        kind = self._kinds[pos]
        if kind == "INT":
            self._pos = pos + 1
            return self._leaves[self._texts[pos]]
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
    return node._free()


def check(ast: Eq, ranges: Mapping[str, tuple[int, int]], case_id: str = "user") -> CheckReport:
    """Check an identity at every grid point of the given inclusive ranges.

    Equality is exact componentwise extension-ring equality.  A negative
    subscript, exponent or binomial upper index at some grid point is outside
    the identity's domain, not a counterexample: it raises ``DomainError``,
    naming the expression and the binding.  Each range is a grid axis, and
    ``report.grid_axis`` refuses one that is empty or too long.
    """
    if not isinstance(ast, Eq):
        raise ValueError("expected an identity of the form lhs = rhs")
    free = free_meta_vars(ast)
    missing = sorted(free - set(ranges))
    if missing:
        raise ValueError(f"no range given for meta-variable(s): {', '.join(missing)}")

    ns, ks = (grid_axis(name, *ranges[name]) if name in free else [None] for name in ("n", "k"))
    cells = []
    for n in ns:
        for k in ks:
            env = {name: value for name, value in (("n", n), ("k", k)) if value is not None}
            cell = check_cell(case_id, n, k, lambda: (ast.lhs._eval(env), ast.rhs._eval(env)))
            cells.append(cell)
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
            # with its indent, so a column is the file's; without trailing blanks,
            # so an unexpected end of input is placed just past the text
            ast = parse(raw.rstrip())
        except ParseError as exc:
            raise ParseError(exc.message, line_no, exc.col) from None
        entries.append(CorpusEntry(current_id, line, ast))
    return entries
