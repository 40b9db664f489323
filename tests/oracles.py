"""Independent oracles used to compute and freeze expected values.

Nothing here touches the package's polynomial type: a polynomial is a bare
dict mapping (x_exp, y_exp) to Fraction, and the recurrences are unrolled
with local helpers only, so comparisons against the package are genuine
cross-checks rather than tautologies.  The reference evaluator computes an
identity-language expression on such dicts, reading the package's AST
classes only for their fields.  The reference tokenizer scans the identity
language one character at a time, independently of the package's regular
expression.
"""

from fractions import Fraction
from math import comb

from fibluc import ParseError
from fibluc.idlang import Add, Binom, IntLit, MetaVar, Mul, Neg, Pow, SeqApp, Sub, Sum
from fibluc.idlang import VarDelta, VarX, VarY


def d_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        total = out.get(mono, Fraction(0)) + coeff
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def d_shift(p: dict, di: int, dj: int) -> dict:
    """Multiply by x^di * y^dj."""
    return {(i + di, j + dj): coeff for (i, j), coeff in p.items()}


def d_mul(a: dict, b: dict) -> dict:
    """Schoolbook product of two term dicts."""
    out: dict = {}
    for (i, j), ca in a.items():
        for (p, q), cb in b.items():
            mono = (i + p, j + q)
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: coeff for mono, coeff in out.items() if coeff}


def poly_fib(n: int) -> dict:
    """F_n(x, y) as a bare term dict, via the recurrence F = x*F' + y*F''."""
    prev: dict = {}
    cur: dict = {(0, 0): Fraction(1)}
    for _ in range(n):
        prev, cur = cur, d_add(d_shift(cur, 1, 0), d_shift(prev, 0, 1))
    return prev


def poly_luc(n: int) -> dict:
    """L_n(x, y) as a bare term dict."""
    prev: dict = {(0, 0): Fraction(2)}
    cur: dict = {(1, 0): Fraction(1)}
    for _ in range(n):
        prev, cur = cur, d_add(d_shift(cur, 1, 0), d_shift(prev, 0, 1))
    return prev


def int_seq(s0: int, s1: int, x0: int, y0: int, count: int) -> list[int]:
    """First `count` terms of u_m = x0*u_{m-1} + y0*u_{m-2} over plain ints."""
    out = [s0, s1]
    while len(out) < count:
        out.append(x0 * out[-1] + y0 * out[-2])
    return out[:count]


# -- a reference evaluator for the identity language ------------------------------
#
# A value is a pair (p, q) of term dicts standing for p + q*D, with D^2 = x^2 + 4y.
# F and L come from their recurrence, unrolled in that ring for any argument
# pair; binom is math.comb and a sum is a loop.  Nodes are read by their
# dataclass fields alone, so nothing here runs the package's evaluator, ring
# types, packing or term store.

#: The largest index, exponent or sum length the reference evaluator takes on.
INDEX_CAP = 160
#: The most term pairs one evaluation may multiply, over all its products.
WORK_CAP = 50_000

_ONE = {(0, 0): Fraction(1)}
_D_SQUARED = {(2, 0): Fraction(1), (0, 1): Fraction(4)}


class TooCostly(Exception):
    """An expression past the reference evaluator's caps: a test skips it."""


def _constant(c: int) -> tuple[dict, dict]:
    return ({(0, 0): Fraction(c)} if c else {}), {}


def _r_add(a: tuple, b: tuple) -> tuple[dict, dict]:
    return d_add(a[0], b[0]), d_add(a[1], b[1])


def _r_neg(a: tuple) -> tuple[dict, dict]:
    return tuple({mono: -coeff for mono, coeff in part.items()} for part in a)


class _Reference:
    """One evaluation, its products counted against ``WORK_CAP``."""

    def __init__(self) -> None:
        self.work = 0

    def mul(self, a: tuple, b: tuple) -> tuple[dict, dict]:
        (p, q), (r, s) = a, b
        self.work += (len(p) + len(q)) * (len(r) + len(s))
        if self.work > WORK_CAP:
            raise TooCostly
        return d_add(d_mul(p, r), d_mul(d_mul(q, s), _D_SQUARED)), d_add(d_mul(p, s), d_mul(q, r))

    def index(self, node, env: dict, what: str | None = None) -> int:
        """The int value of an index expression; where ``what`` is given, a
        negative one is outside the domain, and a large one past the cap."""
        p, q = self.value(node, env)
        if q or set(p) - {(0, 0)}:
            raise ValueError(f"not an index expression: {node}")
        value = int(p.get((0, 0), 0))
        if what is not None and value < 0:
            raise ValueError(f"negative {what} {value}")
        if what is not None and value > INDEX_CAP:
            raise TooCostly
        return value

    def value(self, node, env: dict) -> tuple[dict, dict]:
        kind = type(node)
        if kind is IntLit:
            return _constant(node.value)
        if kind is VarX:
            return {(1, 0): Fraction(1)}, {}
        if kind is VarY:
            return {(0, 1): Fraction(1)}, {}
        if kind is VarDelta:
            return {}, dict(_ONE)
        if kind is MetaVar:
            return _constant(env[node.name])
        if kind is Neg:
            return _r_neg(self.value(node.operand, env))
        if kind in (Add, Sub, Mul):
            left, right = self.value(node.left, env), self.value(node.right, env)
            if kind is Add:
                return _r_add(left, right)
            return _r_add(left, _r_neg(right)) if kind is Sub else self.mul(left, right)
        if kind is Pow:
            exponent = self.index(node.exponent, env, "exponent")
            base, power = self.value(node.base, env), (dict(_ONE), {})
            for _ in range(exponent):
                power = self.mul(power, base)
            return power
        if kind is Binom:
            upper = self.index(node.upper, env, "binomial index")
            lower = self.index(node.lower, env)
            return _constant(comb(upper, lower) if lower >= 0 else 0)
        if kind is Sum:
            low, high = self.index(node.low, env), self.index(node.high, env)
            if high - low >= INDEX_CAP:
                raise TooCostly
            total: tuple = ({}, {})
            for value in range(low, high + 1):
                total = _r_add(total, self.value(node.body, {**env, node.var: value}))
            return total
        if kind is SeqApp:
            n = self.index(node.index, env, "sequence index")
            if node.args is None:
                a, b = ({(1, 0): Fraction(1)}, {}), ({(0, 1): Fraction(1)}, {})
            else:
                a, b = self.value(node.args[0], env), self.value(node.args[1], env)
            prev, cur = (({}, {}), (dict(_ONE), {})) if node.kind == "F" else (_constant(2), a)
            for _ in range(n):
                prev, cur = cur, _r_add(self.mul(a, cur), self.mul(b, prev))
            return prev
        raise TypeError(f"no reference value for {kind.__name__}")


def evaluate(node, env: dict) -> tuple[dict, dict]:
    """The value (p, q) of p + q*D of an identity-language expression under ``env``.

    A negative sequence index, exponent or binomial upper index raises
    ValueError, as the package's evaluator raises DomainError; an index,
    exponent or sum past ``INDEX_CAP``, or products past ``WORK_CAP`` in
    all, raise :class:`TooCostly`.
    """
    return _Reference().value(node, env)


_PUNCT = set("+-*^()[],=")
_DIGITS = set("0123456789")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_BODY = _NAME_START | _DIGITS


def _unexpected(source: str, i: int) -> ParseError:
    line = source.count("\n", 0, i) + 1
    return ParseError(f"unexpected character {source[i]!r}", line, i - source.rfind("\n", 0, i))


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """The identity language's ``(kind, text, offset)`` tokens, scanned by hand.

    A kind is INT, NAME, EOF or the punctuation mark itself; whitespace is
    whatever ``str.isspace`` says, and any other character is an error.
    """
    tokens = []
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < length and source[j] in _DIGITS:
                j += 1
            tokens.append(("INT", source[i:j], i))
            i = j
            continue
        if ch in _NAME_START:
            j = i
            while j < length and source[j] in _NAME_BODY:
                j += 1
            tokens.append(("NAME", source[i:j], i))
            i = j
            continue
        if ch == ".":
            if i + 1 < length and source[i + 1] == ".":
                tokens.append(("..", "..", i))
                i += 2
                continue
            raise _unexpected(source, i)
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise _unexpected(source, i)
    tokens.append(("EOF", "", length))
    return tokens
