"""Exact scalar arithmetic: rationals, quadratic surds, certified signs.

Two kinds of scalars appear in arrangements:

* plain rationals, represented by ``fractions.Fraction``;
* elements ``a + b*sqrt(d)`` of a real quadratic extension, represented by
  :class:`QuadExt`.  The components may themselves be :class:`QuadExt`
  values, which yields radical towers (used internally by the chain
  construction); ordinary arrangements stay at level one with a square-free
  integer radicand.

A :class:`QuadExt` of a tower of height h stores one tuple of 2^h Python
ints and one positive denominator: its coordinates on the products of the
levels' square roots, each radicand cleared to integer coordinates first
(see ``_Field``).  Ring operations recurse on the halves of these tuples
with integer arithmetic only and take one gcd per result; ``a``, ``b`` and
``rad`` are read off on demand, and ``Fraction`` leaves appear only where
a caller asks for them or text is printed.

All equality and sign decisions are exact.  Signs and root comparisons
first try integer fixed-point bounds ``lo <= x*2^bits <= hi``
(:func:`_bounds`, memoised per element and precision) along one precision
schedule, N, 2N, 4N, ... bits up to ``MAX_PRECISION_BITS``
(:func:`_precision_schedule`, N = ``TRIAREA_PRECISION_BITS``); a sign the
bounds leave open past the schedule comes from the algebraic test.
:func:`interval_of` wraps the same bounds as a :class:`CertifiedInterval`,
a pair of dyadic bounds that never guesses: a comparison the bounds cannot
settle is reported as undecided rather than rounded.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, isqrt
from operator import add, mul, neg, sub
from typing import Optional, Tuple, Union

Rat = Union[int, Fraction]
Scalar = Union[Fraction, "QuadExt"]

# interval fast-path width; override with TRIAREA_PRECISION_BITS
DEFAULT_PRECISION_BITS = max(8, int(os.environ.get("TRIAREA_PRECISION_BITS", "64")))
# the last precision of the schedule
MAX_PRECISION_BITS = 65536


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def is_rational(x: object) -> bool:
    return isinstance(x, (int, Fraction))


def float_ratio(n: Scalar, d: Scalar) -> float:
    """A float near n/d, for d >= 0: Python's correctly rounded ``n / d`` on
    ints, and on the midpoints of the fixed-point enclosures (_bounds) of
    other scalars, saturating to an infinity of n's sign where that raises
    (a quotient past the float range, or d = 0)."""
    if type(n) is not int or type(d) is not int:
        n, d = sum(_bounds(n, DEFAULT_PRECISION_BITS)), sum(_bounds(d, DEFAULT_PRECISION_BITS))
    try:
        return n / d
    except (OverflowError, ZeroDivisionError):
        return inf if n >= 0 else -inf


@dataclass(frozen=True)
class CertifiedInterval:
    """Dyadic bounds with ``lower <= true value <= upper``."""

    lower: Fraction
    upper: Fraction
    precision_bits: int = DEFAULT_PRECISION_BITS

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("interval bounds out of order")

    def sign_or_none(self) -> Optional[int]:
        """Certified sign, or None when the bounds straddle zero."""
        if self.lower > 0:
            return 1
        if self.upper < 0:
            return -1
        if self.lower == 0 and self.upper == 0:
            return 0
        return None

    def compare(self, other: "CertifiedInterval") -> Optional[int]:
        """-1 or +1 for disjoint intervals, 0 for two equal points, None
        when undecided."""
        if self.upper < other.lower:
            return -1
        if other.upper < self.lower:
            return 1
        if self.lower == self.upper == other.lower == other.upper:
            return 0
        return None


class _Field:
    """One level F = K(sqrt(rad)) of a radical tower over its base K.

    Elements of a tower of height h are stored on the 2^h products of
    s_k = sqrt(rho_k), one square root per level, where rho_k = rad_k * e_k^2
    is the level's radicand cleared to integer coordinates by its
    denominator e_k.  Products of integer coordinates then stay integers:
    s_k^2 = rho_k.  Fields are shared: every element of one level points to
    the object made once for its radicand (see _field_of).
    """

    __slots__ = ("rad", "below", "height", "size", "e", "rhos", "scales", "_m_memo", "_r_memo", "_rad_key", "_rad_text")

    def __init__(self, rad: Scalar, below: Optional["_Field"]) -> None:
        self.rad = rad
        self.below = below
        if below is None:
            self.e = rad.denominator
            self.height = 1
            self.rhos = (rad.numerator * rad.denominator,)
            self.scales = (1, self.e)
        else:
            self.e = rad._d
            self.height = below.height + 1
            self.rhos = below.rhos + (_scale(rad._t, rad._d),)
            # sqrt(rad_h) = s_h / e_h: coordinate i carries the e_k of the
            # levels whose square root its basis product contains
            self.scales = below.scales + _scale(below.scales, self.e)
        self.size = 1 << self.height
        self._m_memo: dict = {}
        self._r_memo: dict = {}
        self._rad_key = self._rad_text = None

    def monomials(self, bits: int) -> Tuple[tuple, tuple]:
        """Integers lo[i] <= m_i * 2^bits <= hi[i] for the basis products
        m_i, in coordinate order; all are positive."""
        got = self._m_memo.get(bits)
        if got is None:
            sl, sh = _sqrt_bounds(self.rad, bits)
            sl, sh = sl * self.e, sh * self.e
            if self.below is None:
                lo, hi = (1 << bits, sl), (1 << bits, sh)
            else:
                lo, hi = self.below.monomials(bits)
                lo += tuple([v * sl >> bits for v in lo])
                hi += tuple([-(-v * sh >> bits) for v in hi])
            got = self._m_memo[bits] = (lo, hi)
        return got

    def residues(self, p: int) -> Optional[tuple]:
        """The basis products m_i mod a prime p = 3 (mod 4), in coordinate
        order, under s_k -> phi(rho_k)^((p+1)/4): a ring homomorphism phi
        into F_p when every phi(rho_k) is a square or 0; else None."""
        got = self._r_memo.get(p)
        if got is None:
            low = (1,) if self.below is None else self.below.residues(p)
            if low is None:
                return None
            rho = self.rhos[-1]
            x = (rho if self.below is None else sum(map(mul, rho, low))) % p
            r = pow(x, (p + 1) >> 2, p)
            if r * r % p != x:
                return None
            got = self._r_memo[p] = low + tuple([v * r % p for v in low])
        return got

    def rad_key(self):
        if self._rad_key is None:
            r = self.rad
            self._rad_key = _value_key(r._t, r._d, r._f) if isinstance(r, QuadExt) else (r.numerator, r.denominator)
        return self._rad_key

    def rad_text(self) -> str:
        if self._rad_text is None:
            self._rad_text = format_scalar(self.rad)
        return self._rad_text


@lru_cache(maxsize=64)
def _rational_field(rad: Fraction) -> _Field:
    return _Field(rad, None)


def _field_of(rad: Scalar) -> _Field:
    """The field obtained by adjoining sqrt(rad) to the field of rad."""
    if isinstance(rad, QuadExt):
        f = getattr(rad, "_above", None)
        if f is None:
            f = rad._above = _Field(rad, rad._f)
        return f
    return _rational_field(_frac(rad))


def _same_field(f: _Field, g: _Field) -> bool:
    """Do f and g have structurally equal radicands at every level?  Only
    then do their coordinates mean the same values."""
    while f is not g:
        if f.height != g.height:
            return False
        r, s = f.rad, g.rad
        if f.below is None:
            return r == s
        if r._d != s._d or r._t != s._t:
            return False
        f, g = f.below, g.below
    return True


# -- integer coordinates ---------------------------------------------------
#
# An element of a height-h field is t/d: d a positive int and t a tuple of
# 2^h ints, its coordinates on the products of the s_k.  The first half of
# t is the part a in the field below, the second half the part b of
# a + b*s_h, and so on down; a value of a lower level has a zero second
# half, and a rational has t[0] only.  Each value has one (t, d) once
# gcd(d, *t) = 1, so equality is tuple equality.  The functions below take
# rhos, the cleared radicands of the levels (rhos[0] an int, rhos[k] the
# coordinates of rho_(k+1)), and the height h of their arguments.


def _scale(t: tuple, k: int) -> tuple:
    return tuple([v * k for v in t])


def _add(x: tuple, y: tuple) -> tuple:
    return tuple(map(add, x, y))


def _sub(x: tuple, y: tuple) -> tuple:
    return tuple(map(sub, x, y))


def _mul(x: tuple, y: tuple, rhos: tuple, h: int) -> tuple:
    if h == 1:
        a, b = x
        c, d = y
        return (a * c + b * d * rhos[0], a * d + b * c)
    n = len(x) >> 1
    h -= 1
    a, b, c, d = x[:n], x[n:], y[:n], y[n:]
    # (a + b s)(c + d s) = (ac + bd rho) + (ad + bc) s, skipping zero halves
    if not any(b):
        if not any(d):
            return _mul(a, c, rhos, h) + b
        return _mul(a, c, rhos, h) + _mul(a, d, rhos, h)
    if not any(d):
        return _mul(a, c, rhos, h) + _mul(b, c, rhos, h)
    first = _add(_mul(a, c, rhos, h), _mul(_mul(b, d, rhos, h), rhos[h], rhos, h))
    return first + _add(_mul(a, d, rhos, h), _mul(b, c, rhos, h))


def _inverse(t: tuple, rhos: tuple, h: int) -> Tuple[tuple, int]:
    """(u, m) with 1/t = u/m, m a positive int: multiply by the conjugate,
    then invert the norm, which lies one level down."""
    if not h:
        v = t[0]
        if not v:
            raise ZeroDivisionError("division by zero in a quadratic extension")
        return ((1,), v) if v > 0 else ((-1,), -v)
    n = len(t) >> 1
    a, b = t[:n], t[n:]
    if not any(b):
        u, m = _inverse(a, rhos, h - 1)
        return u + b, m
    if h == 1:
        u, m = _inverse((a[0] * a[0] - b[0] * b[0] * rhos[0],), rhos, 0)
        return (a[0] * u[0], -b[0] * u[0]), m
    h -= 1
    u, m = _inverse(_sub(_mul(a, a, rhos, h), _mul(_mul(b, b, rhos, h), rhos[h], rhos, h)), rhos, h)
    return _mul(a, u, rhos, h) + tuple(map(neg, _mul(b, u, rhos, h))), m


def _make(t: tuple, d: int, f: _Field) -> "QuadExt":
    x = object.__new__(QuadExt)
    x._t, x._d, x._f = t, d, f
    x._sign_memo = x._bounds_memo = None
    return x


def _reduced(t: tuple, d: int, f: _Field) -> "QuadExt":
    """The element t/d of f, with the common factor of t and d taken out."""
    if d != 1:
        g = gcd(d, *t)
        if g != 1:
            t, d = tuple([v // g for v in t]), d // g
    return _make(t, d, f)


def _peeled(t: tuple, d: int, f: _Field) -> Tuple[tuple, int, Optional[_Field]]:
    """t/d reduced, with the zero second halves (zero tower layers) taken
    off; the field comes back None when the value is rational."""
    g = gcd(d, *t)
    if g != 1:
        t, d = tuple([v // g for v in t]), d // g
    n = len(t) >> 1
    while n and not any(t[n:]):
        t, f, n = t[:n], f.below, n >> 1
    return t, d, f


def _value_key(t: tuple, d: int, f: _Field):
    """A key of the value t/d that all its representations share: (n, d)
    for a rational, else the keys of a, b and the radicand."""
    t, d, f = _peeled(t, d, f)
    if f is None:
        return t[0], d
    n = len(t) >> 1
    return (_value_key(t[:n], d, f.below), _value_key(_scale(t[n:], f.e), d, f.below), f.rad_key())


def _element(t: tuple, d: int, f: Optional[_Field]) -> Scalar:
    """t/d as a Fraction when f is None (the rationals), else in f."""
    if f is None:
        return Fraction(t[0], d)
    return _reduced(t, d, f)


def _below(x, f: Optional[_Field]) -> Optional[Tuple[tuple, int]]:
    """The subfield fast path: (coordinates, den) of x in field f (None:
    the rationals) when x is rational or an element of a field of f's
    tower, its coordinates padded with zeros; None otherwise."""
    if isinstance(x, QuadExt):
        g = x._f
        if g is f:
            return x._t, x._d
        if f is None or g.height > f.height:
            return None
        size = f.size
        while f.height > g.height:
            f = f.below
        if not _same_field(f, g):
            return None
        return x._t + (0,) * (size - g.size), x._d
    size = 1 if f is None else f.size
    if type(x) is int:
        return (x,) + (0,) * (size - 1), 1
    if isinstance(x, Fraction):
        return (x.numerator,) + (0,) * (size - 1), x.denominator
    return None


def residue(x: Scalar, f: Optional[_Field], p: int) -> Optional[int]:
    """phi(x) in F_p for x rational or in a field of f's tower (f None: the
    rationals), phi the homomorphism of f.residues(p); None when x lies
    outside that tower or p divides its denominator."""
    got = _below(x, f)
    if got is None or not got[1] % p:
        return None
    t, d = got
    return sum(map(mul, t, (1,) if f is None else f.residues(p))) * pow(d, -1, p) % p


class QuadExt:
    """Exact element ``a + b*sqrt(rad)`` of a quadratic extension.

    ``a``, ``b`` and ``rad`` live in the base field: plain ``Fraction``
    values at level one, or ``QuadExt`` values one level down in a radical
    tower.  ``rad`` must be positive and must not be a square in the base
    field (callers building towers check this with :func:`sqrt_exact`).

    An element is stored as integer coordinates over one positive
    denominator (see _Field for the basis); ``a`` and ``b`` are read off
    them.  Arithmetic with a rational, or with an element of a field lower
    in the same tower, pads that operand's coordinates with zeros; only
    operands from another representation of the field go through lifting.
    """

    __slots__ = ("_t", "_d", "_f", "_sign_memo", "_bounds_memo", "_above", "_hash")

    def __init__(self, a, b, rad) -> None:
        f = _field_of(rad)
        below = f.below
        (ta, da), (tb, db) = (self._component(v, below, f.rad) for v in (a, b))
        # a + b*sqrt(rad) = ta/da + tb*s/(db*e)
        db *= f.e
        d = da * db // gcd(da, db)
        x = _reduced(_scale(ta, d // da) + _scale(tb, d // db), d, f)
        self._t, self._d, self._f = x._t, x._d, f
        self._sign_memo = self._bounds_memo = None

    @staticmethod
    def _component(v, below: Optional[_Field], rad: Scalar) -> Tuple[tuple, int]:
        if below is None:
            v = _peel(v)
            if isinstance(v, QuadExt):
                raise ValueError("component outside the base field")
            return _below(v, None)
        got = _below(v, below)
        if got is None:
            v = lift_to(v, rad)
            got = v._t, v._d
        return got

    @property
    def rad(self) -> Scalar:
        return self._f.rad

    @property
    def height(self) -> int:
        """Number of square roots along the radicand chain."""
        return self._f.height

    @property
    def a(self) -> Scalar:
        t = self._t
        return _element(t[: len(t) >> 1], self._d, self._f.below)

    @property
    def b(self) -> Scalar:
        t = self._t
        return _element(_scale(t[len(t) >> 1 :], self._f.e), self._d, self._f.below)

    # -- helpers -------------------------------------------------------

    def _coerce(self, other: "QuadExt"):
        if isinstance(self.rad, Fraction) and isinstance(other.rad, Fraction):
            raise ValueError("mixed radicands in quadratic arithmetic")
        try:
            # Tower case: embed an element of a subfield.
            return lift_to(other, self)
        except ValueError:
            return NotImplemented

    def conjugate(self) -> "QuadExt":
        t = self._t
        n = len(t) >> 1
        return _make(t[:n] + tuple(map(neg, t[n:])), self._d, self._f)

    def _operands(self, other):
        """(field, x coordinates, x den, y coordinates, y den) with x = self
        and y = other in one field; None when other is not a scalar of a
        compatible field.  Raises ValueError for two different level-one
        radicands."""
        f = self._f
        got = _below(other, f)
        if got is not None:
            return f, self._t, self._d, got[0], got[1]
        if not isinstance(other, QuadExt):
            return None
        got = _below(self, other._f)
        if got is not None:
            return other._f, got[0], got[1], other._t, other._d
        # another representation of a common field: lift one side
        o = self._coerce(other)
        if o is not NotImplemented:
            return o._f, self._t, self._d, o._t, o._d
        s = other._coerce(self)
        if s is not NotImplemented:
            return s._f, s._t, s._d, other._t, other._d
        return None

    # -- ring operations ----------------------------------------------

    def _linear(self, other, op):
        p = self._operands(other)
        if p is None:
            return NotImplemented
        f, x, dx, y, dy = p
        if dx == dy:
            return _reduced(op(x, y), dx, f)
        d = dx * dy // gcd(dx, dy)
        return _reduced(op(_scale(x, d // dx), _scale(y, d // dy)), d, f)

    def __add__(self, other):
        return self._linear(other, _add)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return _make(tuple(map(neg, self._t)), self._d, self._f)

    def __sub__(self, other):
        return self._linear(other, _sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QuadExt) and isinstance(other, (int, Fraction)):
            return _reduced(_scale(self._t, other.numerator), self._d * other.denominator, self._f)
        p = self._operands(other)
        if p is None:
            return NotImplemented
        f, x, dx, y, dy = p
        return _reduced(_mul(x, y, f.rhos, f.height), dx * dy, f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QuadExt) and isinstance(other, (int, Fraction)):
            n, q = other.numerator, other.denominator
            if not n:
                raise ZeroDivisionError("division by zero in a quadratic extension")
            return _reduced(_scale(self._t, q if n > 0 else -q), self._d * abs(n), self._f)
        p = self._operands(other)
        return NotImplemented if p is None else _quotient(*p)

    def __rtruediv__(self, other):
        p = self._operands(other)
        if p is None:
            return NotImplemented
        f, y, dy, x, dx = p
        return _quotient(f, x, dx, y, dy)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _one_like(self)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadExt):
            if other._f is self._f:
                return self._d == other._d and self._t == other._t
        elif isinstance(other, int):
            other = Fraction(other)
        elif not isinstance(other, Fraction):
            return NotImplemented
        x, y = _peel(self), _peel(other)
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            return x == y
        if isinstance(x, QuadExt) and isinstance(y, QuadExt):
            if _same_field(x._f, y._f):
                return x._d == y._d and x._t == y._t
            if rad_equal(x.rad, y.rad):
                return x.a == y.a and x.b == y.b
        return False

    def __ne__(self, other) -> bool:
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            # by value, so that equal values in other representations of the
            # field hash alike, and a rational value like its Fraction
            key = _value_key(self._t, self._d, self._f)
            h = self._hash = hash(Fraction(*key) if type(key[0]) is int else key)
        return h

    def sign(self) -> int:
        if self._sign_memo is None:
            self._sign_memo = _quadext_sign(self)
        return self._sign_memo

    def __lt__(self, other):
        return exact_sign(self - other) < 0

    def __le__(self, other):
        return exact_sign(self - other) <= 0

    def __gt__(self, other):
        return exact_sign(self - other) > 0

    def __ge__(self, other):
        return exact_sign(self - other) >= 0

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return any(self._t)

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.rad!r})"

    def __str__(self) -> str:
        return format_scalar(self)

    def __float__(self) -> float:
        lo, hi = _bounds(self, 80)
        return (lo + hi) / (1 << 81)


def _quotient(f: _Field, x: tuple, dx: int, y: tuple, dy: int) -> QuadExt:
    """(x/dx) / (y/dy) in field f."""
    u, n = _inverse(y, f.rhos, f.height)
    return _reduced(_scale(_mul(x, u, f.rhos, f.height), dy), dx * n, f)


def _zero_like(template: Scalar) -> Scalar:
    return _lift_like(Fraction(0), template)


def _one_like(template: Scalar) -> Scalar:
    return _lift_like(Fraction(1), template)


def _lift_like(x: Fraction, template: Scalar) -> Scalar:
    """Embed the rational x into the field the template lives in."""
    if isinstance(template, Fraction):
        return x
    return _make((x.numerator,) + (0,) * (template._f.size - 1), x.denominator, template._f)


def lift_to(x: Scalar, template: Scalar) -> Scalar:
    """Embed x (possibly from a subfield) into the field of template."""
    if isinstance(template, Fraction):
        if not isinstance(x, Fraction):
            raise ValueError("cannot lower a surd into the rationals")
        return x
    got = _below(x, template._f)
    if got is not None:
        return _make(got[0], got[1], template._f)
    if rad_equal(x.rad, template.rad):
        return QuadExt(lift_to(x.a, template.a), lift_to(x.b, template.a), template.rad)
    return QuadExt(lift_to(x, template.a), _zero_like(template.a), template.rad)


def field_join(x: Scalar, y: Scalar) -> Tuple[Scalar, Scalar]:
    """Lift two scalars into one radical tower, extending it if needed.

    Serialization collapses zero tower layers, so re-parsing a canonical
    form can pair elements of sibling extensions (say sqrt(r1) terms with
    sqrt(r2) terms over a common base); neither embeds in the other and a
    joint level must be adjoined.  Raises ValueError when even the
    radicands share no common field.
    """
    try:
        return x, lift_to(y, x)
    except ValueError:
        pass
    try:
        return lift_to(x, y), y
    except ValueError:
        pass
    assert isinstance(x, QuadExt) and isinstance(y, QuadExt)
    new_rad = lift_to(y.rad, x)
    lifted_x = QuadExt(x, _zero_like(x), new_rad)
    lifted_y = QuadExt(lift_to(y.a, x), lift_to(y.b, x), new_rad)
    return lifted_x, lifted_y


def _leaf_numerators(x: Scalar) -> Tuple[tuple, int]:
    """The rationals of x's a/b tree at every level (its leaves), as
    numerators over one shared denominator."""
    if isinstance(x, Fraction):
        return (x.numerator,), x.denominator
    return tuple(map(mul, x._t, x._f.scales)), x._d


def _is_zero(x: Scalar) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    return not any(x._t)


def _peel(x: Scalar) -> Scalar:
    """Strip tower layers whose surd component is zero."""
    if not isinstance(x, QuadExt):
        return x
    t, d, f = _peeled(x._t, x._d, x._f)
    if f is x._f:
        return x
    return _element(t, d, f)


def _same_scalar(x: Scalar, y: Scalar) -> bool:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    if isinstance(x, QuadExt) and isinstance(y, QuadExt):
        return _same_field(x._f, y._f) and x._d == y._d and x._t == y._t
    return False


def rad_equal(x: Scalar, y: Scalar) -> bool:
    """Value equality of two radicands across tower representations.

    A radicand lifted into a deeper tower gains zero surd layers; peeling
    them restores the canonical form, after which ordinary equality (itself
    peel-robust componentwise) decides.
    """
    x, y = _peel(x), _peel(y)
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    return isinstance(x, QuadExt) and isinstance(y, QuadExt) and x == y


def exact_sign(x: Scalar) -> int:
    """Exact sign (-1, 0, +1) of any scalar."""
    if isinstance(x, QuadExt):
        return x.sign()
    if isinstance(x, int):
        return (x > 0) - (x < 0)
    return (x.numerator > 0) - (x.numerator < 0)


def _quadext_sign(x: QuadExt) -> int:
    # Fixed-point bounds along the precision schedule decide a nonzero value
    # cheaply even deep in a tower; the algebraic test is the fallback for a
    # value closer to zero than the last precision can tell.
    if not any(x._t):
        return 0
    sign = _bounds_sign(x)
    if sign is not None:
        return sign
    sa = exact_sign(x.a)
    sb = exact_sign(x.b)
    if sb == 0:
        return sa
    if sa == 0:
        return sb
    if sa == sb:
        return sa
    t = exact_sign(x.a * x.a - x.b * x.b * x.rad)
    return t * sa


def _precision_schedule():
    """The precisions of every certified decision: N, 2N, 4N, ... bits
    (N = DEFAULT_PRECISION_BITS), ending at the first that reaches
    MAX_PRECISION_BITS."""
    bits = DEFAULT_PRECISION_BITS
    while True:
        yield bits
        if bits >= MAX_PRECISION_BITS:
            return
        bits *= 2


def _bounds_sign(x: Scalar) -> Optional[int]:
    """-1 or +1 when the fixed-point bounds of x exclude 0 at some precision
    of the schedule; None when they never do (as for x = 0)."""
    for bits in _precision_schedule():
        lo, hi = _bounds(x, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    return None


def _bounds_order(x: Scalar, y: Scalar) -> Optional[int]:
    """-1 or +1 when the fixed-point bounds of x and y separate at some
    precision of the schedule; None when they never do (as for x = y)."""
    for bits in _precision_schedule():
        x_lo, x_hi = _bounds(x, bits)
        y_lo, y_hi = _bounds(y, bits)
        if x_hi < y_lo:
            return -1
        if y_hi < x_lo:
            return 1
    return None


def interval_of(x: Scalar, bits: int = DEFAULT_PRECISION_BITS) -> CertifiedInterval:
    """Certified enclosure of any scalar at the requested precision."""
    lo, hi = _bounds(x, bits)
    return CertifiedInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits), bits)


def _bounds(x: Scalar, bits: int) -> Tuple[int, int]:
    """Integers lo, hi with lo <= x * 2^bits <= hi.

    A tower element encloses its integer coordinates and divides by its
    denominator once; each element keeps its bounds per precision.
    """
    if not isinstance(x, QuadExt):
        n, d = (x, 1) if isinstance(x, int) else (x.numerator, x.denominator)
        return (n << bits) // d, -((-n << bits) // d)
    memo = x._bounds_memo
    if memo is None:
        memo = x._bounds_memo = {}
    got = memo.get(bits)
    if got is None:
        lo, hi = _coordinate_bounds(x._t, x._f, bits)
        d = x._d
        got = memo[bits] = (lo // d, -(-hi // d))
    return got


def _coordinate_bounds(t: tuple, f: _Field, bits: int) -> Tuple[int, int]:
    """Integers lo, hi with lo <= v * 2^bits <= hi, v the value of the
    coordinates t in field f."""
    lo = hi = 0
    for v, ml, mh in zip(t, *f.monomials(bits)):
        if v > 0:
            lo += v * ml
            hi += v * mh
        elif v:
            lo += v * mh
            hi += v * ml
    return lo, hi


def _sqrt_bounds(r: Scalar, bits: int) -> Tuple[int, int]:
    """Integers lo, hi with lo <= sqrt(r) * 2^bits <= hi, for a radicand r > 0."""
    if not isinstance(r, QuadExt):
        return _rational_sqrt_bounds(r.numerator, r.denominator, bits)
    lo, hi = _bounds(r, bits)
    return _isqrt_bounds(max(lo, 0) << bits, hi << bits)


@lru_cache(maxsize=256)
def _rational_sqrt_bounds(n: int, d: int, bits: int) -> Tuple[int, int]:
    return _isqrt_bounds((n << 2 * bits) // d, -((-n << 2 * bits) // d))


def _isqrt_bounds(lo: int, hi: int) -> Tuple[int, int]:
    """isqrt(lo) <= sqrt(t) <= the returned upper end, for lo <= t <= hi."""
    top = isqrt(hi)
    return isqrt(lo), top if top * top == hi else top + 1


def _product_bounds(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    """Integers enclosing u*v, for lo <= u <= hi and lo <= v <= hi given by
    x and y."""
    p = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(p), max(p)


def sqrt_exact(x: Scalar) -> Optional[Scalar]:
    """Square root of x inside its own field, or None if there is none."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        if x < 0:
            return None
        pn, pd = isqrt(x.numerator), isqrt(x.denominator)
        if pn * pn == x.numerator and pd * pd == x.denominator:
            return Fraction(pn, pd)
        return None
    if exact_sign(x) < 0:
        return None
    a, b, d = x.a, x.b, x.rad
    if _is_zero(b):
        r = sqrt_exact(a)
        if r is not None:
            return QuadExt(r, _zero_like(a), d)
        t = sqrt_exact(a / d)
        if t is not None:
            return QuadExt(_zero_like(a), t, d)
        return None
    n = sqrt_exact(a * a - b * b * d)
    if n is None:
        return None
    for half in ((a + n) / 2, (a - n) / 2):
        if exact_sign(half) < 0:
            continue
        p = sqrt_exact(half)
        if p is None or _is_zero(p):
            continue
        q = b / (p * 2)
        cand = QuadExt(p, q, d)
        if cand * cand == x:
            return abs(cand)
    return None


def scalar_floor(x: Scalar) -> int:
    """Exact floor of any scalar."""
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    m = _bounds(x, DEFAULT_PRECISION_BITS)[0] >> DEFAULT_PRECISION_BITS
    while exact_sign(x - (m + 1)) >= 0:
        m += 1
    while exact_sign(x - m) < 0:
        m -= 1
    return m


# -- parsing and printing ---------------------------------------------------

class ScalarSyntaxError(ValueError):
    pass


def format_scalar(x: Scalar) -> str:
    """Canonical text form, parseable by :func:`parse_scalar`.

    Zero tower layers are peeled first so that every value has exactly one
    spelling regardless of which field it was computed in.
    """
    if not isinstance(x, QuadExt):
        return str(x)
    return _format(x._t, x._d, x._f)


def _format(t: tuple, d: int, f: _Field) -> str:
    t, d, f = _peeled(t, d, f)
    if f is None:
        return _ratio_text(t[0], d)
    if f.below is None:  # level one: p/q+r/s*sqrt(d)
        a, b = t[0], t[1] * f.e
        if a:
            head = _ratio_text(a, d) + ("+" if b >= 0 else "-")
        else:
            head = "-" if b < 0 else ""
        return f"{head}{_ratio_text(abs(b), d)}*sqrt({f.rad_text()})"
    n = len(t) >> 1
    return (
        f"({_format(t[:n], d, f.below)})+({_format(_scale(t[n:], f.e), d, f.below)})"
        f"*sqrt({f.rad_text()})"
    )


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) without building the Fraction."""
    g = gcd(n, d)
    return f"{n // g}" if g == d else f"{n // g}/{d // g}"


class _Parser:
    """Recursive-descent parser for scalar expressions.

    Grammar: expr := ['+'|'-'] term (('+'|'-') term)* ;
    term := factor (('*'|'/') factor)* ;
    factor := INT | INT '/' INT | 'sqrt' '(' expr ')' | '(' expr ')'.
    """

    def __init__(self, text: str) -> None:
        self.text = "".join(text.split())
        self.pos = 0

    def fail(self, why: str):
        raise ScalarSyntaxError(f"{why} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Scalar:
        v = self.expr()
        if self.pos != len(self.text):
            self.fail("trailing input")
        return v

    def expr(self) -> Scalar:
        neg = False
        if self.peek() in ("+", "-"):
            neg = self.peek() == "-"
            self.pos += 1
        v = self.term()
        if neg:
            v = -v
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            t = self.term()
            v = self._apply(op, v, t)
        return v

    def term(self) -> Scalar:
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            f = self.factor()
            v = self._apply(op, v, f)
        return v

    _OPS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }

    def _apply(self, op: str, v: Scalar, w: Scalar) -> Scalar:
        if op == "/" and w == 0:
            self.fail("division by zero")
        # operands from sibling extensions (a collapsed tower's printed
        # form) need a joint field before the arithmetic goes through
        try:
            return self._OPS[op](v, w)
        except (TypeError, ValueError):
            pass
        try:
            v, w = field_join(v, w)
        except ValueError:
            self.fail("radicands do not share a common field")
        return self._OPS[op](v, w)

    def factor(self) -> Scalar:
        if self.text.startswith("sqrt(", self.pos):
            self.pos += 5
            inner = self.expr()
            self.expect(")")
            r = sqrt_exact(inner)
            if r is not None:
                return r
            if exact_sign(inner) <= 0:
                self.fail("sqrt of a non-positive value")
            if isinstance(inner, Fraction):
                return QuadExt(Fraction(0), Fraction(1), inner)
            return QuadExt(_zero_like(inner), _one_like(inner), inner)
        if self.peek() == "(":
            self.pos += 1
            v = self.expr()
            self.expect(")")
            return v
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number")
        return Fraction(int(self.text[start : self.pos]))


def parse_scalar(text: str) -> Scalar:
    """Parse `p/q`, `p/q+r/s*sqrt(d)` or nested radical expressions.

    Whitespace-tolerant; mixed terms are combined exactly, so any
    arithmetic rearrangement of the canonical form parses to the same
    value.
    """
    return _Parser(text).parse()


def scalar_radicand(x: Scalar) -> Optional[Scalar]:
    """The radicand of a quadratic scalar, None for plain rationals."""
    return None if isinstance(x, Fraction) else x.rad
