"""Independent oracles used to compute and freeze expected values.

Nothing here touches the package's polynomial type: a polynomial is a bare
dict mapping (x_exp, y_exp) to Fraction, and the recurrences are unrolled
with local helpers only, so comparisons against the package are genuine
cross-checks rather than tautologies.  The reference tokenizer scans the
identity language one character at a time, independently of the package's
regular expression.
"""

from fractions import Fraction

from fibluc import ParseError


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
        out = d_add(out, {(i + p, j + q): ca * cb for (p, q), cb in b.items()})
    return out


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
