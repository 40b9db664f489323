"""Generators for the bivariate Fibonacci and Lucas families, the companion
matrices behind them, and the trace/determinant closed form for the (1,2)
entry of 2x2 matrix powers with the binomial expansion of F_{m+1} behind it.

The two families satisfy the same recurrence ``u_m = x*u_{m-1} + y*u_{m-2}``
and differ only in seeds: F starts (0, 1), L starts (2, x).  The generator is
deliberately generic over its arguments so the same code produces classic
polynomials, polynomials composed with other polynomials, extension-ring
values, and plain integer or rational specializations.

:func:`seq` returns every F and L value the package uses.  The generator
pair (x, y) builds each term it is asked for from its binomial coefficients
(:func:`_build`) and keeps the terms read, of both kinds, within a size
bound: past it the highest indices go first, so the lowest indices read stay,
whatever order they came in.  Any other pair keeps, per kind, the terms it
has computed up to that bound: the list u_0 .. u_t while it fits half the
bound, and the last two terms of its latest walk.  A request at or below t
reads the list; a higher one steps on from the walk or from u_t, not from
the seeds.  The 64 pairs used most recently keep theirs, and past a total
size budget the least recently used give up their lists, by a stamp of
each entry's last use; a list read changes only the stamp.  One lock guards
the whole store and a call steps its entry in place while holding it, so
everything here is safe to invoke concurrently, and one long walk holds up
the other threads' calls.

Where every term is a weighted-homogeneous int polynomial, the list of any
other pair fills on Kronecker-packed ints (see :func:`_pack_pair` for which).
With x = p + q*D, the entry keeps the last two terms a + b*D as two ints each
at x -> 1, y -> 2^s, and a step (:func:`_step`) is
a_m = p*a_{m-1} + q*D^2*b_{m-1} + y*a_{m-2} and
b_m = p*b_{m-1} + q*a_{m-1} + y*b_{m-2}: a few int products, shifts and
adds, with q*D^2 the ring's product, taken once per packing, and each new
term unpacked once.  The slot width s holds every coefficient up to about
twice the list's length, as the same step on the 1-norms bounds them (see
:func:`_pack_pair`); past that the entry packs again from the last two list
terms.  The packed pair counts toward the size bound and goes when the list
stops.  Walks and every other pair take the ring step.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count
from math import comb
from typing import Iterator, NamedTuple

from .poly import DISCRIMINANT, ONE, BivarPoly, QuadExtElem, X, Y, ZERO, binary_power
from .poly import _coefficient, _grade, _index, _pack, _poly, _unpack


class SeqKind(Enum):
    FIB = "F"
    LUC = "L"


def _seeds(kind: SeqKind, x_arg) -> tuple:
    """(u_0, u_1): (0, 1) for F and (2, x_arg) for L, in the ring of x_arg."""
    one = x_arg**0
    if kind is SeqKind.FIB:
        return one * 0, one
    if kind is SeqKind.LUC:
        return one * 2, x_arg
    raise ValueError(f"sequence kind must be a SeqKind, got {kind!r}")


def _next_term(x_arg, y_arg, u_prev, u_cur):
    """u_{m+1} from u_{m-1} and u_m: the one step of the recurrence."""
    return x_arg * u_cur + y_arg * u_prev


def seq_terms(kind: SeqKind, x_arg=X, y_arg=Y) -> Iterator:
    """u_0, u_1, ... of u_m = x_arg*u_{m-1} + y_arg*u_{m-2} with seeds by kind.

    Fib seeds are (0, 1), Luc seeds are (2, x_arg).  Arguments may be
    polynomials, extension elements, integers, or Fractions; the terms are
    computed exactly in whatever ring they span.  Each term is computed only
    when it is requested, never one ahead.
    """
    u_prev, u_cur = _seeds(kind, x_arg)
    yield u_prev
    while True:
        yield u_cur
        u_prev, u_cur = u_cur, _next_term(x_arg, y_arg, u_prev, u_cur)


#: Estimated bytes per stored monomial, or per plain number: its dict entry,
#: exponent key and coefficient header, which tracemalloc puts at 120-140 bytes
#: on lists of F_n(x, y) and F_n(2x, y).  The coefficient's bits count on top,
#: at bits / 8, so a list of huge numbers is measured by its digits.
_MONOMIAL_BYTES = 128
#: Estimated bytes each kind keeps for one pair other than (x, y): its list
#: fills half of it, so that of F(1, 1) reaches F_7170 and every list of the
#: ``composed`` grid stays whole.  F(x, y) and L(x, y) keep their lowest
#: indices read within all of it together, F_0 .. F_415 alone (F_0 .. F_640
#: is 16.8 MB): ``eval F 2000`` and ``eval F 100000 --at 1,1`` take max RSS
#: 18.3 and 18.7 MB, against 18.4 and 17.2 MB with the bound at 0.
_TERMS_BYTES = 6 << 20
#: Estimated bytes of the entries of all pairs other than (x, y) together.
#: Past it the least recently used give up their lists but keep their walks:
#: the (16,30) composed grid then takes 4034 steps and 48 MB max RSS, against
#: 3600 and 76 MB without it, and more steps where whole entries go.
_PAIRS_BYTES = 16 << 20
#: Argument pairs other than (x, y) whose entries :func:`seq` keeps; the least
#: recently used goes first.  A catalog grid keeps about 1.5 pairs live per k
#: (the (10,6) grid needs 12, k up to 20 needs 32), so this serves k ranges up
#: to about 40; a wider one cycles through more pairs than this and starts
#: each again from the seeds.
_WALKS_MAX = 64


def _size(value) -> int:
    """Estimated bytes of a term or a packed int.

    ``_MONOMIAL_BYTES`` per monomial or plain number, plus bits / 8.  A
    deferred product (``poly._LazyPoly``) is a :class:`BivarPoly`, measured
    by its terms.
    """
    kind = type(value)
    if kind is int:  # packed ints, and every term at an integral point
        return _MONOMIAL_BYTES + value.bit_length() // 8
    if kind is QuadExtElem:
        return _size(value.a) + _size(value.b)
    numbers = value._terms.values() if isinstance(value, BivarPoly) else (value,)
    try:
        bits = sum(map(int.bit_length, numbers))
    except TypeError:  # a Fraction among them
        bits = sum(q.numerator.bit_length() + q.denominator.bit_length() for q in numbers)
    return _MONOMIAL_BYTES * len(numbers) + bits // 8


def _factor(terms: dict, s: int) -> tuple[int, int]:
    """(c, shift) such that a packed value times the packed polynomial is ``(v * c) << shift``.

    The polynomial packs over its lowest power of y, which the shift puts
    back, so a monomial c * y^j is a small product and a shift, never a
    product of two long ints.
    """
    low = min((j for _, j in terms), default=0)
    return _pack(terms, s, low), s * low


class _Packed(NamedTuple):
    """The last two list terms u_{m-1} = a0 + b0*D and u_m = a1 + b1*D, packed at width s."""

    #: the slot width, and the highest index whose coefficients it holds
    s: int
    cover: int
    #: w, the weight of x_arg (each term outweighs the one before by w), and
    #: that of u_0's base part (F_1 = 1 and L_0 = 2 weigh 0)
    weight: int
    weight_0: int
    #: whether the terms are QuadExtElem values
    quad: bool
    #: p, q, q*D^2 and y_arg as :func:`_factor` gives them at width s
    factors: tuple
    a0: int
    b0: int
    a1: int
    b1: int
    #: estimated bytes of the four ints, by :func:`_size`
    size: int


def _step(factors: tuple, a0: int, b0: int, a1: int, b1: int) -> tuple[int, int]:
    """(a2, b2) with a2 + b2*D = x_arg*(a1 + b1*D) + y_arg*(a0 + b0*D) on packed ints.

    ``factors`` are p, q, q*D^2 and y_arg for x_arg = p + q*D, each as the
    (c, shift) of :func:`_factor`: the step of the module docstring.  Given
    the factors' 1-norms with shift 0 and each part's largest coefficient, it
    bounds every coefficient of the next term's parts instead.
    """
    (pc, ps), (qc, qs), (dc, ds), (yc, ys) = factors
    a2 = ((a1 * pc) << ps) + ((b1 * dc) << ds) + ((a0 * yc) << ys)
    b2 = ((b1 * pc) << ps) + ((a1 * qc) << qs) + ((b0 * yc) << ys)
    return a2, b2


def _pack_pair(kind: SeqKind, x_arg, y_arg, u_prev, u_cur, m: int) -> _Packed | None:
    """u_{m-1} and u_m packed at a width that holds every coefficient up to u_{2m+16}.

    None where the list takes the ring step.  It fills packed where, with
    x_arg = p + q*D (q = 0 for a :class:`BivarPoly`), the matrix
    [[p, 1], [y_arg, x*q]] has a grading (see :func:`_grading`): every part
    is an int polynomial, p and x*q weigh one w (a zero fits any), and y_arg
    weighs 2w.  D weighs 1, so x_arg weighs w and every term is
    weighted-homogeneous, which x -> 1, y -> 2^s packs part by part into
    ints without loss.  :func:`_step`, run from the two terms' largest
    coefficients to u_{2m+16} on the 1-norms, bounds every coefficient, and
    the width is the one :func:`_width` gives that bound, as in
    :func:`_packed_run`.
    """
    quad = type(x_arg) is QuadExtElem
    p, q = (x_arg.a, x_arg.b) if quad else (x_arg, ZERO)
    grading = _grading((p, ONE, y_arg, X * q))
    if grading is None:
        return None
    w = grading[0]
    terms = p._terms, q._terms, (q * DISCRIMINANT)._terms, y_arg._terms
    norms = [(sum(map(abs, part.values())), 0) for part in terms]
    parts = [part._terms for u in (u_prev, u_cur) for part in ((u.a, u.b) if quad else (u, ZERO))]
    a0, b0, a1, b1 = (max(map(abs, part.values()), default=0) for part in parts)
    top = max(a0, b0, a1, b1)
    cover = 2 * m + 16
    for _ in range(cover - m):
        a0, b0, (a1, b1) = a1, b1, _step(norms, a0, b0, a1, b1)
        top = max(top, a1, b1)
    s = _width(top)
    ints = [_pack(part, s) for part in parts]
    factors = tuple(_factor(part, s) for part in terms)
    weight_0 = -w if kind is SeqKind.FIB else 0
    return _Packed(s, cover, w, weight_0, quad, factors, *ints, sum(map(_size, ints)))


def _build(kind: SeqKind, m: int) -> BivarPoly:
    """F_m(x, y), or L_m(x, y) for m >= 1, from its binomial coefficients.

    F_m = sum_j C(m-1-j, j) x^(m-1-2j) y^j and L_m = sum_j (m/(m-j))
    C(m-j, j) x^(m-2j) y^j.  With t = m - 1 for F and t = m for L, the
    coefficient of x^(t-2j) y^j is the one before times (t-2j+2)(t-2j+1) /
    (j(m-j)), an exact division: no ring product runs, and every coefficient
    is an int, as in the ring step's terms.  The term comes graded (see
    ``poly._graded``): weight t, lowest y-exponent 0, and the exact bit
    length of its largest coefficient, all of them positive.
    """
    if not isinstance(kind, SeqKind):
        raise ValueError(f"sequence kind must be a SeqKind, got {kind!r}")
    top = m - 1 if kind is SeqKind.FIB else m
    terms, c = {}, 1
    for j in range(top // 2 + 1):
        if j:
            c = c * (top - 2 * j + 2) * (top - 2 * j + 1) // (j * (m - j))
        terms[top - 2 * j, j] = c
    term = _poly(terms)
    term._memo = (None, 0, top, 0, max(terms.values()).bit_length(), len(terms)) if terms else None
    return term


def _packed_next_term(packed: _Packed, m: int):
    """u_m from the packed u_{m-2} and u_{m-1}, its size, and the packed pair of u_{m-1} and u_m.

    The step of :func:`_next_term` on ints, by :func:`_step`.  u_m is
    unpacked once, with the ring step's value and int coefficients; a zero
    part is not unpacked.  Its size and the pair's are :func:`_size`'s,
    taken on the dicts just unpacked and on the four ints.
    """
    s, cover, w, weight_0, quad, factors, a0, b0, a1, b1, _ = packed
    a2, b2 = _step(factors, a0, b0, a1, b1)
    weight = weight_0 + m * w
    parts, size = [], 0
    for c, part_weight in [(a2, weight), (b2, weight - 1)] if quad else [(a2, weight)]:
        terms = _unpack(c, s, part_weight) if c else {}
        size += _MONOMIAL_BYTES * len(terms) + sum(map(int.bit_length, terms.values())) // 8
        parts.append(_poly(terms))
    term = parts[0]
    if quad:
        term = QuadExtElem.__new__(QuadExtElem)
        term._a, term._b = parts
    ints = a1, b1, a2, b2
    ints_size = 4 * _MONOMIAL_BYTES + sum([c.bit_length() // 8 for c in ints])
    return term, size, _Packed(s, cover, w, weight_0, quad, factors, *ints, ints_size)


class _Terms:
    """The terms one kind keeps for one pair other than (x, y), within ``_TERMS_BYTES``.

    ``terms`` is u_0 .. u_t, every term computed while the list fits half
    the bound (``size``, by :func:`_size`).  ``walk`` is None until the list
    stops, then (m, u_{m-1}, u_m) for the last index stepped to past t.
    While the list grows, ``packed`` holds u_{t-1} and u_t as
    :func:`_pack_pair` packs them, counted in ``size``, for a pair whose
    list fills on packed ints, and is None for one that takes the ring
    step; it goes when the list stops, and walks take the ring step.
    ``used`` stamps its last use.
    :func:`seq` steps an entry in place under its lock.  The list only gains
    whole terms and the walk and packed pair are set once per term, so a
    step that raises leaves every field correct.
    """

    __slots__ = ("terms", "size", "walk", "packed", "used")

    def __init__(self, kind: SeqKind, x_arg, y_arg) -> None:
        self.used = next(_uses)
        self.terms = list(_seeds(kind, x_arg))
        self.walk = None
        self.packed = _pack_pair(kind, x_arg, y_arg, *self.terms, 1)
        self.size = sum(map(_size, self.terms)) + (self.packed.size if self.packed else 0)

    def term(self, kind: SeqKind, n: int, x_arg, y_arg):
        """u_n: a list read at or below t, else a step on from the walk or u_t."""
        terms = self.terms
        while self.walk is None and len(terms) <= n:
            m = len(terms)
            packed = self.packed
            if packed is None:
                u_next = _next_term(x_arg, y_arg, terms[-2], terms[-1])
                u_size = _size(u_next)
            else:
                if packed.cover < m:
                    packed = _pack_pair(kind, x_arg, y_arg, terms[-2], terms[-1], m - 1)
                u_next, u_size, packed = _packed_next_term(packed, m)
            kept = self.size - (self.packed.size if self.packed else 0)
            size = kept + u_size + (packed.size if packed else 0)
            if 2 * size > _TERMS_BYTES:
                self.size = kept
                self.packed = None
                self.walk = (m, terms[-1], u_next)
                break
            terms.append(u_next)
            self.size = size
            self.packed = packed
        if n < len(terms):
            return terms[n]
        m, u_prev, u_cur = len(terms) - 1, terms[-2], terms[-1]
        if m < self.walk[0] <= n + 1:
            m, u_prev, u_cur = self.walk
        while m < n:
            u_prev, u_cur = u_cur, _next_term(x_arg, y_arg, u_prev, u_cur)
            m += 1
        self.walk = (m, u_prev, u_cur)
        return u_cur if m == n else u_prev

    def drop_terms(self) -> None:
        """Keep the seeds and the walk alone: below the walk, steps start from u_1."""
        terms = self.terms
        if self.walk is None:
            self.walk = (len(terms) - 1, terms[-2], terms[-1])
        self.terms = terms[:2]
        self.packed = None
        self.size = sum(map(_size, self.terms))


def _types(value):
    """The type of value, with the coefficient types of a ring element.

    Equal values can differ here (x with coefficient 1 or Fraction(1)), and
    their terms would differ in the same way.  A deferred product is a
    :class:`BivarPoly` here too.  A plain value must be a coefficient that a
    :class:`BivarPoly` takes, or it raises that class's TypeError.
    """
    kind = type(value)
    if kind is QuadExtElem:
        return kind, _types(value.a), _types(value.b)
    if isinstance(value, BivarPoly):
        return BivarPoly, frozenset(map(type, value._terms.values()))
    _coefficient(value)
    return kind


_lock = threading.Lock()
# (kind, n) -> u_n(x, y), for the seeds and the lowest indices read within _TERMS_BYTES
_built = {(kind, m): u for kind in SeqKind for m, u in enumerate(_seeds(kind, X))}
# the sum of the sizes of the terms in _built
_built_size = sum(map(_size, _built.values()))
# (kind, _types(x_arg), x_arg, _types(y_arg), y_arg) -> _Terms
_pairs: dict = {}
# the stamps of _Terms.used
_uses = count()
# the sum of the sizes of the entries in _pairs
_pairs_size = 0


def seq(kind: SeqKind, n: int, x_arg=X, y_arg=Y):
    """n-th term of :func:`seq_terms`: every F and L value comes from here.

    The values and coefficient types are those of :func:`seq_terms`.  The
    generator pair itself (``x_arg is X and y_arg is Y``) reads ``_built``;
    a term missing there is built by :func:`_build` and kept.  While
    ``_built`` is over ``_TERMS_BYTES``, its term of highest index goes (of
    F_m and L_m, the later kept), though never a seed (``_build(LUC, 0)``
    would give 1), so a term too large to keep is returned and dropped at
    once.  Every read of a kept term returns one object.
    ``seq(FIB, 2000)`` builds F_2000 alone.  A kind that is not a
    :class:`SeqKind` or an index that is not a nonnegative int raises
    ValueError, and leaves the store as it was.

    Any other pair has a :class:`_Terms` entry per kind, as the module
    docstring describes, keyed by the kind and the argument pair with their
    types and coefficient types, so only arguments that compute alike share
    one, and the arguments must be hashable.  A plain argument that is not
    an int or a Fraction raises :class:`BivarPoly`'s coefficient TypeError,
    and leaves the store as it was.  A call hashes its key once;
    a list read only stamps the entry, as every call leaves the store within
    its bounds.  Past ``_WALKS_MAX`` pairs the lowest stamp goes, and past
    ``_PAIRS_BYTES`` in all the lowest stamps give up their lists; such a
    pair steps from the seeds again below its walk.  Each call steps its
    entry in place under the store's one lock, so two callers of one pair
    walk it once.
    """
    global _built_size, _pairs_size
    _index(n, "sequence index")
    with _lock:
        if x_arg is X and y_arg is Y:
            term = _built.get((kind, n))
            if term is None:
                term = _built[kind, n] = _build(kind, n)
                _built_size += _size(term)
                # past the seeds, u_0 and u_1 of each kind: they hold the lowest
                # indices, so the highest-index drop reaches them last
                while _built_size > _TERMS_BYTES and len(_built) > 2 * len(SeqKind):
                    _built_size -= _size(_built.pop(max(reversed(_built), key=lambda key: key[1])))
            return term
        key = (kind, _types(x_arg), x_arg, _types(y_arg), y_arg)
        entry = _pairs.get(key)
        if entry is None:
            entry = _pairs[key] = _Terms(kind, x_arg, y_arg)
        else:
            entry.used = next(_uses)
            if n < len(entry.terms):
                return entry.terms[n]
            _pairs_size -= entry.size
        try:
            return entry.term(kind, n, x_arg, y_arg)
        finally:
            _pairs_size += entry.size
            if len(_pairs) > _WALKS_MAX:
                oldest = min(_pairs.items(), key=lambda item: item[1].used)[0]
                _pairs_size -= _pairs.pop(oldest).size
            if _pairs_size > _PAIRS_BYTES:
                for oldest in sorted(_pairs.values(), key=lambda entry: entry.used):
                    if _pairs_size <= _PAIRS_BYTES:
                        break
                    # one down to its seeds and a walk has nothing to give up
                    if oldest.walk is None or len(oldest.terms) > 2:
                        _pairs_size -= oldest.size
                        oldest.drop_terms()
                        _pairs_size += oldest.size


def fib(n: int, x_arg=X, y_arg=Y):
    return seq(SeqKind.FIB, n, x_arg, y_arg)


def luc(n: int, x_arg=X, y_arg=Y):
    return seq(SeqKind.LUC, n, x_arg, y_arg)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0.

    An index that is not an int, or a negative n, raises ValueError.
    """
    _index(n, "binomial upper index")
    if not isinstance(k, int):
        raise ValueError(f"binomial lower index must be an integer, got {k!r}")
    return comb(n, k) if k >= 0 else 0


@dataclass(frozen=True)
class PolyMatrix2:
    """2x2 matrix over a commutative ring of duck-typed entries."""

    e11: object
    e12: object
    e21: object
    e22: object

    def __mul__(self, other):
        if isinstance(other, PolyMatrix2):
            return PolyMatrix2(
                self.e11 * other.e11 + self.e12 * other.e21,
                self.e11 * other.e12 + self.e12 * other.e22,
                self.e21 * other.e11 + self.e22 * other.e21,
                self.e21 * other.e12 + self.e22 * other.e22,
            )
        # anything else is a scalar acting entrywise
        return PolyMatrix2(self.e11 * other, self.e12 * other, self.e21 * other, self.e22 * other)

    __rmul__ = __mul__

    def __add__(self, other: object) -> PolyMatrix2:
        if not isinstance(other, PolyMatrix2):
            return NotImplemented
        return PolyMatrix2(
            self.e11 + other.e11,
            self.e12 + other.e12,
            self.e21 + other.e21,
            self.e22 + other.e22,
        )

    def trace(self):
        return self.e11 + self.e22

    def det(self):
        return self.e11 * self.e22 - self.e12 * self.e21

    def identity_like(self) -> PolyMatrix2:
        """Identity matrix over the same ring as this matrix's entries."""
        one = self.e11**0
        zero = one * 0
        return PolyMatrix2(one, zero, zero, one)

    def __str__(self) -> str:
        return f"[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"


def _grading(entries: tuple) -> tuple[int, int] | None:
    """(w, d) such that the entries e11, e12, e21, e22 weigh w, w + d, w - d, w, or None.

    Every entry must be a :class:`BivarPoly` with int coefficients whose
    terms x^i y^j all have one weight i + 2j (see :func:`poly._grade`); a
    zero entry fits any weight.  Products keep such a grading: the entries
    of m^n weigh nw, nw + d, nw - d and nw.
    """
    weights = []
    for entry in entries:
        if not isinstance(entry, BivarPoly):
            return None
        grade = _grade(entry._terms) if entry else (None,)
        if grade is None:
            return None
        weights.append(grade[0])
    w11, w12, w21, w22 = weights
    twice = {2 * w for w in (w11, w22) if w is not None}
    if w12 is not None and w21 is not None:
        twice.add(w12 + w21)
    if len(twice) > 1 or any(t % 2 for t in twice):
        return None
    # with a zero diagonal and at most one other entry, m^2 is zero and any w fits
    w = twice.pop() // 2 if twice else 0
    if w12 is not None:
        return w, w12 - w
    return w, (w - w21 if w21 is not None else 0)


def _width(*bounds: int) -> int:
    """The slot width of coefficients bounded by ``bounds`` in magnitude.

    One bit more than the largest bound, for the sign, and at least 2, the
    narrowest width that :func:`poly._unpack` takes (where every bound is 0).
    """
    return max(*bounds, 1).bit_length() + 1


def _packed_run(run, values: tuple, weights: tuple) -> list[BivarPoly]:
    """The polynomials of the ints ``run(s, *packs)`` gives, unpacked at ``weights``.

    Each value is an int polynomial of one weight, and ``run`` takes the
    width s and one int per value and returns one int per weight.  It must
    compute a polynomial in its ints and in y, which it takes as shifts by
    s, with nonnegative constants, whose results have the weights given.
    Packing (x -> 1, y -> 2^s, see :func:`poly._pack`) is a ring
    homomorphism, so on the values' packed ints it gives the results'
    images, and at s = 0 on the values' coefficient 1-norms a bound on every
    coefficient of the results.  s is the width :func:`_width` gives those
    bounds, so each coefficient fits its signed slot and unpacks exactly, as
    an int.
    """
    norms = [sum(map(abs, value._terms.values())) for value in values]
    s = _width(*run(0, *norms))
    packed = run(s, *[_pack(value._terms, s) for value in values])
    return [_poly(_unpack(c, s, weight)) for c, weight in zip(packed, weights)]


def matrix_pow(m: PolyMatrix2, n: int) -> PolyMatrix2:
    """m**n; n = 0 gives the identity.

    Where m has a grading (see :func:`_grading`) and n >= 2, the 2x2 matrix
    of the entries' packed ints is raised to the n-th power by binary
    squaring, and the entries of m^n, weighing nw, nw + d, nw - d and nw,
    are unpacked from it (see :func:`_packed_run`: the matrix of the
    entries' 1-norms raised alike bounds every coefficient).  The result
    has binary squaring's terms and int coefficients.  Every other matrix
    (extension-ring, Fraction or int entries, no grading) is raised by
    binary squaring in its own ring.
    """
    entries = (m.e11, m.e12, m.e21, m.e22)
    grading = _grading(entries) if isinstance(n, int) and n >= 2 else None
    if grading is None:
        return binary_power(m, n, m.identity_like())
    w, d = grading

    def run(s, *ints):
        # n >= 2, so binary_power never returns its identity argument
        power = binary_power(PolyMatrix2(*ints), n, None)
        return power.e11, power.e12, power.e21, power.e22

    return PolyMatrix2(*_packed_run(run, entries, (n * w, n * w + d, n * w - d, n * w)))


def matrix_A() -> PolyMatrix2:
    """Companion matrix [[x, 1], [y, 0]] of the recurrence."""
    return PolyMatrix2(X, ONE, Y, ZERO)


def matrix_B() -> PolyMatrix2:
    """[[x^2+2y, x], [xy, 2y]], which equals 2y*I + x*A."""
    return PolyMatrix2(X * X + 2 * Y, X, X * Y, 2 * Y)


def matrix_BA() -> PolyMatrix2:
    return matrix_B() * matrix_A()


def binomial_sum(m: int, a, b):
    """sum_{k=0..m//2} C(m-k, k) * a^(m//2-k) * b^k: the binomial expansion of F_{m+1}.

    ``a^(m%2) * binomial_sum(m, a*a, b)`` is F_{m+1}(a, b); the catalog's
    closed forms and :func:`power_entry_factor` are all instances.  The sum
    runs by Horner's rule in ``a`` with a running power of ``b``
    (:func:`_binomial_horner`), and it lives in the ring of ``a**0 * b**0``.

    Where ``a`` and ``b`` are int polynomials of one weight w (the diagonal
    matrix of the two has a grading, see :func:`_grading`; a zero fits any
    weight), every term of the sum weighs w*(m//2), so the sum runs on
    packed ints (see :func:`_packed_run`: every C(m-k, k) is nonnegative,
    so the same sum of the 1-norms of ``a`` and ``b`` bounds every
    coefficient).  The result has the ring loop's terms and int
    coefficients.  Every other pair (extension-ring, Fraction or int values,
    or two weights) takes the ring loop, one product with ``a`` and one
    with ``b`` per term.  An index that is not a nonnegative int raises
    ValueError.
    """
    _index(m, "binomial sum index")
    grading = _grading((a, ZERO, ZERO, b))
    if grading is None:
        return _binomial_horner(m, a, b)
    weight = grading[0] * (m // 2)
    (total,) = _packed_run(lambda s, *ints: (_binomial_horner(m, *ints),), (a, b), (weight,))
    return total


def _binomial_horner(m: int, a, b):
    """The sum of :func:`binomial_sum` by Horner's rule, in the ring of ``a**0 * b**0``."""
    total = b_power = a**0 * b**0
    for k in range(1, m // 2 + 1):
        b_power = b_power * b
        total = total * a + binomial(m - k, k) * b_power
    return total


def power_entry_factor(trace_value, det_value, m: int):
    """Closed form sum_{k=0..m//2} C(m-k, k) * trace^(m-2k) * (-det)^k.

    For any 2x2 matrix M over a commutative ring, the (1,2) entry of M^n
    equals ``e12(M) * power_entry_factor(tr M, det M, n - 1)`` for n >= 1:
    the factor is the generalized Fibonacci term of the characteristic
    polynomial, expanded as an explicit binomial sum.
    """
    total = binomial_sum(m, trace_value * trace_value, -det_value)
    return total * trace_value if m % 2 else total


_HALF = Fraction(1, 2)

#: Root (x + D)/2 of t^2 = x*t + y in the extension ring.
ALPHA = QuadExtElem(X * _HALF, ONE * _HALF)
#: Conjugate root (x - D)/2.
BETA = ALPHA.conjugate()


def alpha_power(n: int) -> QuadExtElem:
    """alpha^n written on the (L, F) basis: (L_n + D*F_n) / 2."""
    return QuadExtElem(luc(n) * _HALF, fib(n) * _HALF)


def beta_power(n: int) -> QuadExtElem:
    """beta^n written on the (L, F) basis: (L_n - D*F_n) / 2."""
    return alpha_power(n).conjugate()
