"""Exact sparse bivariate polynomials over the rationals, and the quadratic
extension ring adjoining a formal square root of x^2 + 4y.

A polynomial maps exponent pairs ``(i, j)`` (for ``x^i * y^j``) to nonzero
coefficients, each an ``int``, or a :class:`fractions.Fraction` where a
rational was supplied; equal ints and Fractions compare and hash alike.
Zero coefficients are never stored, so two polynomials are equal exactly
when their term mappings coincide, and ``==`` decides polynomial identity.
Large products of weighted-homogeneous integer polynomials (every term has
the same weight ``i + 2*j``, as in F_n and L_n) are computed with one
integer multiply (Kronecker packing); results are unchanged.  Operands
that the substituted arguments of the identities make often skip the
general loop as well: a sum with a zero operand is the other operand, a
product with an operand of at most one term is one pass over the other's
terms, and an extension element ``a + b*D`` times a base-ring value ``p`` is
the two products ``a*p`` and ``b*p``.  Values and coefficient types are
those of the general loop.

:class:`QuadExtElem` represents ``a + b*D`` with ``D^2 = x^2 + 4y``.  The
element ``D`` plays the role of the root difference of the characteristic
equation ``t^2 = x*t + y``, which lets root powers and square-root-valued
substitution arguments be manipulated without leaving exact arithmetic.

All values are immutable, so an operation may return one of its operands
(``p + 0`` is ``p``, and so is ``p ** 1``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Monomial = tuple[int, int]

_Coeff = Union[int, Fraction]


def _coefficient(value: _Coeff) -> _Coeff:
    if isinstance(value, (int, Fraction)):
        return int(value) if isinstance(value, bool) else value
    raise TypeError(f"not a rational coefficient: {value!r}")


class _Ring:
    """Subtraction for both ring value types: addition of the negation.

    The other operators stay in each class's own ``__dict__``, where
    ``bench/tracer.py`` reads and wraps them.
    """

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return other + (-self)


class BivarPoly(_Ring):
    """Sparse bivariate polynomial in x and y with rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, _Coeff] | None = None) -> None:
        clean: dict[Monomial, _Coeff] = {}
        if terms:
            for (i, j), raw in terms.items():
                if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                    raise ValueError(f"exponents must be nonnegative integers, got ({i}, {j})")
                coeff = _coefficient(raw)
                if coeff:
                    clean[(i, j)] = coeff
        self._terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, value: _Coeff) -> BivarPoly:
        return cls({(0, 0): value})

    # -- inspection -------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, _Coeff]:
        """Copy of the term mapping; the polynomial itself stays immutable."""
        return dict(self._terms)

    # -- ring structure ---------------------------------------------------

    @staticmethod
    def _coerce(other: object) -> BivarPoly | None:
        if isinstance(other, BivarPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return BivarPoly.const(other)
        return None

    def __add__(self, other: object) -> BivarPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # adding zero hands back the other operand: values are never mutated
        if not rhs._terms:
            return self
        if not self._terms:
            return rhs
        out = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            total = out.get(mono, 0) + coeff
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
        result = BivarPoly.__new__(BivarPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> BivarPoly:
        result = BivarPoly.__new__(BivarPoly)
        result._terms = {mono: -coeff for mono, coeff in self._terms.items()}
        return result

    def __mul__(self, other: object) -> BivarPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._terms, rhs._terms
        few, many = (a, b) if len(a) <= len(b) else (b, a)
        if len(few) <= 1:
            # zero or one term: each product has a monomial of its own, and
            # a product of nonzero rationals is nonzero
            out = {}
            for (i, j), ca in few.items():
                for (p, q), cb in many.items():
                    out[(i + p, j + q)] = ca * cb
        elif (
            len(few) < _PACK_MIN_TERMS
            or len(a) * len(b) < _PACK_MIN_PAIRS
            or (out := _packed_product(a, b)) is None
        ):
            out = {}
            for (i, j), ca in a.items():
                for (p, q), cb in b.items():
                    mono = (i + p, j + q)
                    total = out.get(mono, 0) + ca * cb
                    if total:
                        out[mono] = total
                    else:
                        out.pop(mono, None)
        result = BivarPoly.__new__(BivarPoly)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> BivarPoly:
        if len(self._terms) == 1 and isinstance(exponent, int) and exponent >= 0:
            # single monomial: power it directly instead of squaring
            ((i, j), coeff), = self._terms.items()
            return BivarPoly({(i * exponent, j * exponent): coeff**exponent})
        return binary_power(self, exponent, ONE)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        # constants compare equal to their number, so they must hash like it
        if not self._terms or self._terms.keys() == {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, x_value, y_value):
        """Image under the ring homomorphism x -> x_value, y -> y_value.

        The arguments may be polynomials, extension elements, or plain
        rationals; the result lives in whatever ring they generate, also for
        the zero polynomial.
        """
        x_powers = _power_table(x_value, max((i for i, _ in self._terms), default=0))
        y_powers = _power_table(y_value, max((j for _, j in self._terms), default=0))
        total = x_powers[0] * y_powers[0] * 0
        for (i, j), coeff in self._terms.items():
            total = total + x_powers[i] * y_powers[j] * coeff
        return total

    def eval_at(self, x0: _Coeff, y0: _Coeff) -> Fraction:
        """Exact rational value at the point (x0, y0)."""
        return self.substitute(Fraction(x0), Fraction(y0))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        """Deterministic rendering; equal polynomials produce identical strings.

        Term order is x-exponent descending, then y-exponent descending, so
        that e.g. ``x - y^2`` puts the x term first.  Unit coefficients and
        unit exponents are elided; rationals print as ``p/q``.
        """
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for mono, coeff in sorted(self._terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1])):
            negative = coeff < 0
            body = _term_text(mono, -coeff if negative else coeff)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"BivarPoly({self})"


#: Fewest terms in each operand, and fewest term pairs, for which
#: ``BivarPoly.__mul__`` tries one packed integer product instead of the dict
#: loop.  Against one or two terms the dict loop is already linear in the
#: longer operand and costs less per term than packing it.
_PACK_MIN_TERMS = 3
_PACK_MIN_PAIRS = 64


def _packed_product(
    a: Mapping[Monomial, _Coeff], b: Mapping[Monomial, _Coeff]
) -> dict[Monomial, int] | None:
    """Term dict of a*b by Kronecker substitution, or None where it does not apply.

    Both operands must be nonempty.  It applies when every coefficient is an
    ``int`` and each operand is weighted-homogeneous: all its terms have one
    weight ``i + 2*j``.  A term is then fixed by its y-exponent, so each
    operand packs into the int ``sum(c << s*(j - j_min))`` and the digits of
    the one product are the coefficients of a*b.  An output coefficient is a
    sum of at most ``min(len(a), len(b))`` products, so the slot width ``s``
    holds it with its sign.
    """
    shapes = []
    for terms in (a, b):
        i, low = next(iter(terms))
        weight = i + 2 * low
        for (i, j), c in terms.items():
            if i + 2 * j != weight or type(c) is not int:
                return None
            if j < low:
                low = j
        shapes.append((weight, low, max(map(abs, terms.values())).bit_length()))
    (wa, ja, top_a), (wb, jb, top_b) = shapes
    s = top_a + top_b + min(len(a), len(b)).bit_length() + 1
    packed = sum(c << s * (j - ja) for (_, j), c in a.items()) * sum(
        c << s * (j - jb) for (_, j), c in b.items()
    )
    mask, half = (1 << s) - 1, 1 << (s - 1)
    weight, j = wa + wb, ja + jb
    out = {}
    while packed:
        digit = packed & mask
        packed >>= s
        if digit >= half:  # a negative digit borrows one from the next slot
            digit -= 1 << s
            packed += 1
        if digit:
            out[(weight - 2 * j, j)] = digit
        j += 1
    return out


def binary_power(base, exponent: int, one):
    """base**exponent by binary squaring, for any value with ``*``.

    ``one`` is the multiplicative identity of base's ring, returned for
    exponent 0 only: any other power starts from its first factor, so no
    product is taken with ``one`` and ``base**1`` is ``base``.
    """
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one if result is None else result


def _power_table(value, top: int) -> list:
    powers = [value**0]
    for _ in range(top):
        powers.append(powers[-1] * value)
    return powers


X = BivarPoly({(1, 0): 1})
Y = BivarPoly({(0, 1): 1})
ZERO = BivarPoly()
ONE = BivarPoly.const(1)

#: Discriminant of t^2 = x*t + y; the square of the adjoined element D.
DISCRIMINANT = BivarPoly({(2, 0): 1, (0, 1): 4})


class QuadExtElem(_Ring):
    """Element a + b*D of Q[x, y][D] / (D^2 - (x^2 + 4y)).

    Multiplication reduces D^2 to the discriminant:
    ``(a + bD)(c + dD) = (ac + bd*(x^2+4y)) + (ad + bc)D``.
    Elements with zero D part embed the base polynomial ring, and compare
    equal to the corresponding :class:`BivarPoly`.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: BivarPoly | _Coeff = ZERO, b: BivarPoly | _Coeff = ZERO) -> None:
        a_poly = BivarPoly._coerce(a)
        b_poly = BivarPoly._coerce(b)
        if a_poly is None or b_poly is None:
            raise TypeError("components must be polynomials or rationals")
        self._a = a_poly
        self._b = b_poly

    @property
    def a(self) -> BivarPoly:
        return self._a

    @property
    def b(self) -> BivarPoly:
        return self._b

    def conjugate(self) -> QuadExtElem:
        return QuadExtElem(self._a, -self._b)

    @staticmethod
    def _coerce(other: object) -> QuadExtElem | None:
        if isinstance(other, QuadExtElem):
            return other
        base = BivarPoly._coerce(other)
        if base is not None:
            return QuadExtElem(base)
        return None

    def __add__(self, other: object) -> QuadExtElem:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadExtElem(self._a + rhs._a, self._b + rhs._b)

    __radd__ = __add__

    def __neg__(self) -> QuadExtElem:
        return QuadExtElem(-self._a, -self._b)

    def __mul__(self, other: object) -> QuadExtElem:
        if isinstance(other, QuadExtElem):
            a, b, c, d = self._a, self._b, other._a, other._b
            return QuadExtElem(a * c + b * d * DISCRIMINANT, a * d + b * c)
        base = BivarPoly._coerce(other)
        if base is None:
            return NotImplemented
        # a base-ring factor p scales each part: (a + bD)p = ap + (bp)D
        return QuadExtElem(self._a * base, self._b * base)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> QuadExtElem:
        return binary_power(self, exponent, QuadExtElem(ONE))

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._a == rhs._a and self._b == rhs._b

    def __hash__(self) -> int:
        if not self._b:
            return hash(self._a)
        return hash((self._a, self._b))

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __str__(self) -> str:
        """``(a) + (b)*D``, with the D part shown even when it is zero.

        Equal elements render identically, but an element equal to a
        polynomial does not render like it: ``QuadExtElem(X)`` is ``(x) + (0)*D``.
        """
        return f"({self._a}) + ({self._b})*D"

    def __repr__(self) -> str:
        return f"QuadExtElem({self._a}, {self._b})"


#: The adjoined square root of x^2 + 4y.
DELTA = QuadExtElem(ZERO, ONE)

#: Values every generator and identity evaluator works over.
RingValue = Union[BivarPoly, QuadExtElem]


def _term_text(mono: Monomial, magnitude: _Coeff) -> str:
    i, j = mono
    factors: list[str] = []
    if magnitude != 1 or (i == 0 and j == 0):
        factors.append(str(magnitude))
    if i:
        factors.append("x" if i == 1 else f"x^{i}")
    if j:
        factors.append("y" if j == 1 else f"y^{j}")
    return "*".join(factors)


def canonical_text(value) -> str:
    """Deterministic rendering of a ring value or rational: its ``str``.

    Equal values of one type produce identical strings.  An extension
    element always shows its D part, so ``QuadExtElem(X)`` renders as
    ``(x) + (0)*D`` though it equals ``X``, which renders as ``x``.
    """
    if not isinstance(value, (BivarPoly, QuadExtElem, int, Fraction)):
        raise TypeError(f"cannot render {value!r}")
    return str(value)
