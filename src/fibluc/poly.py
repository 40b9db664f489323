"""Exact sparse bivariate polynomials over the rationals, and the quadratic
extension ring adjoining a formal square root of x^2 + 4y.

A polynomial maps exponent pairs ``(i, j)`` (for ``x^i * y^j``) to nonzero
coefficients, each an ``int``, or a :class:`fractions.Fraction` where a
rational was supplied; equal ints and Fractions compare and hash alike.
Zero coefficients are never stored, so two polynomials are equal exactly
when their term mappings coincide, and ``==`` decides polynomial identity.
Large products of weighted-homogeneous integer polynomials (every term has
the same weight ``i + 2*j``, as in F_n and L_n) are computed with one
integer multiply (Kronecker packing); results are unchanged.  Such a product
stays packed until its terms are read: products, sums, negations and ``==``
of such values, and ``==`` with a plain value of one weight, run on the
packed ints where the bounds allow, and the first read of the terms unpacks
it once (see :class:`_LazyPoly`).  Each plain value is graded for packing
once, at its first use.  A square,
one operand times itself (as binary squaring and repeated reads of one
stored term give), packs that operand once and squares the int.  Operands
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
(``p + 0`` is ``p``, and so are ``p ** 1`` and ``p * ONE``).
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


def _index(value, what: str) -> int:
    """``value``, an index or exponent: a nonnegative int, or ValueError naming ``what``."""
    if not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


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

    # ``_image`` is set on a deferred product alone (see :class:`_LazyPoly`),
    # ``_memo`` on a plain value once :func:`_graded` has graded it
    __slots__ = ("_terms", "_image", "_memo")

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
        # inline, not through _poly: a call here cost +0.1 us on a 1.5 us small product
        result = BivarPoly.__new__(BivarPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> BivarPoly:
        return _poly({mono: -coeff for mono, coeff in self._terms.items()})

    def __mul__(self, other: object) -> BivarPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs is ONE:
            return self
        if self is ONE:
            return rhs
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
            len(few) >= _PACK_MIN_TERMS
            and len(a) * len(b) >= _PACK_MIN_PAIRS
            and (product := _packed_product(self, rhs)) is not None
        ):
            return product
        else:
            out = {}
            for (i, j), ca in a.items():
                for (p, q), cb in b.items():
                    mono = (i + p, j + q)
                    total = out.get(mono, 0) + ca * cb
                    if total:
                        out[mono] = total
                    else:
                        out.pop(mono, None)
        # inline, not through _poly: a call here cost +0.1 us on a 1.5 us small product
        result = BivarPoly.__new__(BivarPoly)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> BivarPoly:
        if len(self._terms) == 1 and isinstance(exponent, int) and exponent >= 0:
            # single monomial: power it directly instead of squaring
            ((i, j), coeff), = self._terms.items()
            return _poly({(i * exponent, j * exponent): coeff**exponent})
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

    def __reduce__(self):
        # pickle and copy rebuild a plain polynomial: a deferred product unpacks
        return BivarPoly, (self._terms,)

    # -- substitution and evaluation ---------------------------------------

    def substitute(self, x_value, y_value):
        """Image under the ring homomorphism x -> x_value, y -> y_value.

        The arguments may be polynomials, extension elements, or plain
        rationals; the result lives in whatever ring they generate, also for
        the zero polynomial.
        """
        x_powers = _grow_powers(x_value, max((i for i, _ in self._terms), default=0))
        y_powers = _grow_powers(y_value, max((j for _, j in self._terms), default=0))
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


def _poly(terms: dict[Monomial, _Coeff]) -> BivarPoly:
    """The polynomial of a term dict of nonzero coefficients that nothing else holds, unchecked."""
    value = BivarPoly.__new__(BivarPoly)
    value._terms = terms
    return value


#: Fewest terms in each operand, and fewest term pairs, for which
#: ``BivarPoly.__mul__`` tries one packed integer product instead of the dict
#: loop.  Against one or two terms the dict loop is already linear in the
#: longer operand and costs less per term than packing it.
_PACK_MIN_TERMS = 3
_PACK_MIN_PAIRS = 64

#: A packed product's width is its bound plus 1 plus ``_LAZY_SPARE`` bits,
#: rounded up to a multiple of ``_LAZY_RUNG``: the products of one side of an
#: identity, whose bounds differ by a few bits, then usually share one width,
#: and the spare bits hold what the scalings and sums that follow add
#: (``L*L - (x^2+4y)*F^2`` adds 6), so they too stay on the ints.
_LAZY_SPARE = 8
_LAZY_RUNG = 32


def _grade(terms: Mapping[Monomial, _Coeff]) -> tuple[int, int, int] | None:
    """(weight, low, bits) of a nonempty weighted-homogeneous int term mapping, else None.

    Every term x^i y^j has the one weight ``i + 2*j``, ``low`` is the lowest
    y-exponent, and every coefficient lies below 2^bits in magnitude.
    """
    i, low = next(iter(terms))
    weight = i + 2 * low
    for (i, j), c in terms.items():
        if i + 2 * j != weight or type(c) is not int:
            return None
        if j < low:
            low = j
    return weight, low, max(map(abs, terms.values())).bit_length()


def _graded(value: BivarPoly) -> tuple | None:
    """(packed, s, weight, low, bits, count) of a nonzero int polynomial of one weight, else None.

    A deferred value gives its image and counts its slots, from ``low`` to
    ``weight // 2``; a plain one gives no packed int, width 0, its
    :func:`_grade` and its number of terms, graded at its first use alone:
    the result, None too, stays in its ``_memo`` slot.  Values are
    immutable, so a racing thread writes the same tuple, and a pickle or
    copy starts without it.  ``sequences._build`` sets it as it builds.
    """
    image = value._image if type(value) is _LazyPoly else None
    if image is not None:
        return (*image, image[2] // 2 - image[3] + 1)
    try:
        return value._memo
    except AttributeError:  # not graded yet
        terms = value._terms
        grade = _grade(terms) if terms else None
        value._memo = graded = None if grade is None else (None, 0, *grade, len(terms))
        return graded


def _packed_product(a: BivarPoly, b: BivarPoly) -> BivarPoly | None:
    """a*b by Kronecker substitution, deferred, or None where it does not apply.

    It applies when each operand, plain or deferred, is a nonzero
    weighted-homogeneous int polynomial (see :func:`_graded`).  A term is
    then fixed by its y-exponent, so each operand packs into the int
    ``sum(c << s*(j - low))`` and the digits of the one product are the
    coefficients of a*b.  An output coefficient is a sum of at most
    ``min(count_a, count_b)`` products, so it lies below 2^bits with bits
    the operands' bounds plus the bit length of that count, and a slot of
    width ``bits + 1`` holds it with its sign.  The product is taken at the
    width of a deferred operand where that exceeds bits, on the operand's
    own int, else at the rounded width set out above, and returned
    deferred.  A square (``a is b``) packs its operand once and squares the
    int.
    """
    shape_a = _graded(a)
    if shape_a is None:
        return None
    shape_b = shape_a if a is b else _graded(b)
    if shape_b is None:
        return None
    packed_a, s_a, wa, ja, bits_a, count_a = shape_a
    packed_b, s_b, wb, jb, bits_b, count_b = shape_b
    bits = bits_a + bits_b + min(count_a, count_b).bit_length()
    s = s_a if bits < s_a else s_b
    if bits >= s:
        s = _LAZY_RUNG * ((bits + _LAZY_SPARE) // _LAZY_RUNG + 1)
    if s != s_a:
        packed_a = _pack(a._terms, s, ja)
    if a is b:
        # one int object twice: CPython squares it (F_126's packed int: 38 us, against 59 us)
        packed_b = packed_a
    elif s != s_b:
        packed_b = _pack(b._terms, s, jb)
    return _lazy((packed_a * packed_b, s, wa + wb, ja + jb, bits))


class _LazyPoly(BivarPoly):
    """A product kept as its Kronecker image until its terms are read.

    ``_image`` is ``(packed, s, weight, low, bits)``: the polynomial of one
    weight whose coefficient of y^j sits in slot ``j - low`` of ``packed`` at
    width ``s`` (see :func:`_pack`), every coefficient below 2^bits in
    magnitude, and ``bits < s``.  ``_terms`` stays unset, so the first read
    of it, by any method of the base class, reaches :meth:`__getattr__`,
    which unpacks the image, frees it and makes the value a plain
    :class:`BivarPoly`.  A product with an int polynomial of one weight, or
    with another deferred value, is :func:`_packed_product`'s, which stays
    on this value's int where its width holds the result's bound.  A sum,
    and ``==``, of two values deferred at one width and one weight run on
    the ints where the bound allows, and so does ``==`` with a plain int
    polynomial of one weight: another weight, or a coefficient past this
    value's bound, is unequal, and else that value packs at this width.
    Anything else unpacks and takes the
    base class's method, so values, coefficient types
    and hashes are those of the eager product.  Being a subclass that
    overrides them, its reflected operators run first in ``plain * value``,
    ``plain + value`` and ``plain == value``.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name != "_terms":
            raise AttributeError(name)
        image = self._image
        if image is None:  # another thread unpacked it since this one looked
            return self._terms
        packed, s, weight, low, _ = image
        terms = self._terms = _unpack(packed, s, weight, low)
        self._image = None
        self.__class__ = BivarPoly
        return terms

    def __mul__(self, other: object) -> BivarPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        product = _packed_product(self, rhs)
        return BivarPoly.__mul__(self, rhs) if product is None else product

    def __rmul__(self, other: object) -> BivarPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        product = _packed_product(self, rhs)
        # the operands in the eager order: the dict loop's order of accumulation
        # decides the coefficient types of a mixed int/Fraction product
        return BivarPoly.__mul__(rhs, self) if product is None else product

    def __add__(self, other: object) -> BivarPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        pair = _aligned(self, rhs)
        if pair is None or pair[5] + 1 >= pair[2]:
            return BivarPoly.__add__(self, rhs)
        a, b, s, weight, low, bits = pair
        return _lazy((a + b, s, weight, low, bits + 1))

    __radd__ = __add__

    def __neg__(self) -> BivarPoly:
        image = self._image
        if image is None:
            return BivarPoly.__neg__(self)
        packed, s, weight, low, bits = image
        return _lazy((-packed, s, weight, low, bits))

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        pair = _aligned(self, rhs)
        if pair is not None:
            # each coefficient fits its signed slot, so equal ints are equal terms
            return pair[0] == pair[1]
        image = self._image
        graded = _graded(rhs) if image is not None and type(rhs) is BivarPoly else None
        if graded is None:
            return BivarPoly.__eq__(self, rhs)
        packed, s, weight, low, bits = image
        if graded[2] != weight or graded[4] > bits:
            return False
        # below 2^bits, the plain coefficients fit the slots too
        base = min(low, graded[3])
        return packed << s * (low - base) == _pack(rhs._terms, s, base)

    __hash__ = BivarPoly.__hash__


def _lazy(image: tuple) -> BivarPoly:
    """The deferred value of ``image``, as :class:`_LazyPoly` describes it."""
    value = _LazyPoly.__new__(_LazyPoly)
    value._image = image
    return value


def _aligned(a: BivarPoly, b: BivarPoly) -> tuple | None:
    """The packed ints of a and b over one lowest y-exponent, with s, weight, that
    exponent and the larger bound, where both are deferred at one width and one
    weight; else None."""
    if type(a) is not _LazyPoly or type(b) is not _LazyPoly:
        return None
    image_a, image_b = a._image, b._image
    if image_a is None or image_b is None or image_a[1:3] != image_b[1:3]:
        return None
    packed_a, s, weight, low_a, bits_a = image_a
    packed_b, _, _, low_b, bits_b = image_b
    low = min(low_a, low_b)
    return (
        packed_a << s * (low_a - low),
        packed_b << s * (low_b - low),
        s,
        weight,
        low,
        max(bits_a, bits_b),
    )


def _pack(terms: Mapping[Monomial, int], s: int, low: int = 0) -> int:
    """A weighted-homogeneous int polynomial at x -> 1, y -> 2^s, over y^low.

    One term of each y-exponent j: its coefficient sits in slot ``j - low``,
    ``sum(c << s*(j - low))``.  The map respects sums and products, so packed
    values add and multiply as the polynomials do.
    """
    return sum(c << s * (j - low) for (_, j), c in terms.items())


#: Slots :func:`_unpack` reads from one cut of a longer packed int.  Reading a
#: slot shifts the rest of the int, so a long int is cut first and each shift
#: is at most this many slots long.  The packed list fills of composed
#: arguments unpack long terms: on a shared 2-core x86-64 VM under Python 3.11,
#: without cuts the (40,10) grid of EQ24-EQ27 took 1.28-1.42 s, against
#: 0.90-1.13 s with them, and the (16,30) grid of the eight composed-argument
#: cases 6.7 s, against 4.3-5.2 s.
_UNPACK_SLOTS = 16


def _unpack(packed: int, s: int, weight: int, low: int = 0) -> dict[Monomial, int]:
    """The term dict of weight ``weight`` that :func:`_pack` gives ``packed`` at width s.

    Each slot holds one coefficient with its sign, so every coefficient must
    lie in [-2^(s-1), 2^(s-1)).  ``digit | 0`` stores each coefficient in an
    int of its own length: the one ``&`` makes is as long as the mask, which
    took up to 17% more memory than the ring product's terms where s is wide.
    A width below 2, where every 1 digit would borrow forever, and a nonzero
    slot past y^(weight // 2), which a coefficient too wide for its slot
    carries into, raise ValueError.
    """
    if s < 2:
        raise ValueError(f"slot width must be at least 2, got {s}")
    mask, half, full = (1 << s) - 1, 1 << (s - 1), 1 << s
    cut = _UNPACK_SLOTS * s
    j = low
    out = {}
    while packed:
        if packed.bit_length() > cut:
            chunk, packed, end = packed & ((1 << cut) - 1), packed >> cut, j + _UNPACK_SLOTS
        else:
            chunk, packed, end = packed, 0, None
        while chunk and j != end:
            digit = chunk & mask
            chunk >>= s
            if digit >= half:  # a negative digit borrows one from the next slot
                digit -= full
                chunk += 1
            if digit:
                out[(weight - 2 * j, j)] = digit | 0
            j += 1
        # what the cut's top digit borrows from the slots above it, 0 or 1
        packed += chunk
        j = end
    # slots are read in order, so the last term has the highest y-exponent
    if out and next(reversed(out))[1] > weight // 2:
        raise ValueError(f"a coefficient overflows its slot of width {s}")
    return out


def binary_power(base, exponent: int, one):
    """base**exponent by binary squaring, for any value with ``*``.

    ``one`` is the multiplicative identity of base's ring, returned for
    exponent 0 only: any other power starts from its first factor, so no
    product is taken with ``one`` and ``base**1`` is ``base``.
    """
    _index(exponent, "exponent")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one if result is None else result


def _grow_powers(value, top: int, powers: list | None = None) -> list:
    """``[value^0, value, ...]`` through value^top (value^1 at least), by one
    product per power: ``powers``, such a list, grown in place, or a new one."""
    powers = [value**0, value] if powers is None else powers
    while len(powers) <= top:
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

    def __reduce__(self):
        # plain parts, also for a shallow copy, which would share a deferred one
        return QuadExtElem, (BivarPoly(self._a._terms), BivarPoly(self._b._terms))

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
