"""Exact scalar arithmetic: rationals, quadratic surds, certified intervals.

Three kinds of scalars appear in arrangements:

* plain rationals, represented by ``fractions.Fraction``;
* elements ``a + b*sqrt(d)`` of a real quadratic extension, represented by
  :class:`QuadExt`.  The components may themselves be :class:`QuadExt`
  values, which yields radical towers (used internally by the chain
  construction); ordinary arrangements stay at level one with a square-free
  integer radicand;
* :class:`CertifiedInterval`, a pair of dyadic rational bounds guaranteed to
  enclose the true value.  Intervals never guess: a comparison that the
  bounds cannot settle is reported as undecided rather than rounded.

All equality and sign decisions are exact.  Intervals serve as a fast path
for sign tests deep in a tower, with the algebraic fallback always available:
:func:`interval_of` encloses a scalar in integer fixed-point bounds
``lo/2^bits <= x <= hi/2^bits``, memoised per node and precision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional, Tuple, Union

Rat = Union[int, Fraction]
Scalar = Union[Fraction, "QuadExt"]

# interval fast-path width; override with TRIAREA_PRECISION_BITS
DEFAULT_PRECISION_BITS = max(8, int(os.environ.get("TRIAREA_PRECISION_BITS", "64")))


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def is_rational(x: object) -> bool:
    return isinstance(x, (int, Fraction))


def _dyadic_floor(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def _dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


@dataclass(frozen=True)
class CertifiedInterval:
    """Dyadic bounds with ``lower <= true value <= upper``."""

    lower: Fraction
    upper: Fraction
    precision_bits: int = DEFAULT_PRECISION_BITS

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("interval bounds out of order")

    def round_out(self, bits: int) -> "CertifiedInterval":
        return CertifiedInterval(
            _dyadic_floor(self.lower, bits), _dyadic_ceil(self.upper, bits), bits
        )

    def __add__(self, other: "CertifiedInterval") -> "CertifiedInterval":
        bits = min(self.precision_bits, other.precision_bits)
        return CertifiedInterval(
            self.lower + other.lower, self.upper + other.upper, bits
        ).round_out(bits)

    def __neg__(self) -> "CertifiedInterval":
        return CertifiedInterval(-self.upper, -self.lower, self.precision_bits)

    def __sub__(self, other: "CertifiedInterval") -> "CertifiedInterval":
        return self + (-other)

    def sqrt(self) -> "CertifiedInterval":
        if self.lower < 0:
            raise ValueError("sqrt of interval reaching below zero")
        bits = self.precision_bits
        lo = _rational_sqrt_bounds(self.lower.numerator, self.lower.denominator, bits)[0]
        hi = _rational_sqrt_bounds(self.upper.numerator, self.upper.denominator, bits)[1]
        return CertifiedInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits), bits)

    def contains_zero(self) -> bool:
        return self.lower <= 0 <= self.upper

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
        """-1, 0, +1 when certifiable, None when undecided."""
        return (self - other).sign_or_none()

    def midpoint_float(self) -> float:
        return float((self.lower + self.upper) / 2)


class QuadExt:
    """Exact element ``a + b*sqrt(rad)`` of a quadratic extension.

    ``a``, ``b`` and ``rad`` live in the base field: plain ``Fraction``
    values at level one, or ``QuadExt`` values one level down in a radical
    tower.  ``rad`` must be positive and must not be a square in the base
    field (callers building towers check this with :func:`sqrt_exact`).
    Representation is unique, so equality and hashing are componentwise.

    Arithmetic with a rational, or with an element of the components' field
    (a lower tower height), works on ``a`` and ``b`` directly; only operands
    from the same level or a collapsed representation go through lifting.
    """

    __slots__ = ("a", "b", "rad", "height", "_sign_memo", "_bounds_memo", "_sqrt_memo")

    def __init__(self, a, b, rad) -> None:
        self.a = _frac(a) if isinstance(a, int) else a
        self.b = _frac(b) if isinstance(b, int) else b
        self.rad = _frac(rad) if isinstance(rad, int) else rad
        # number of square roots along the radicand chain
        self.height = rad.height + 1 if isinstance(rad, QuadExt) else 1
        self._sign_memo: Optional[int] = None
        self._bounds_memo = self._sqrt_memo = None

    # -- helpers -------------------------------------------------------

    def _below(self, other) -> bool:
        """Is other a rational or an element of the field of a and b?"""
        if not isinstance(other, QuadExt):
            return isinstance(other, (int, Fraction))
        return (
            other.height < self.height
            and isinstance(self.a, QuadExt)
            and other.rad is not self.rad
            and not rad_equal(other.rad, self.rad)
        )

    def _coerce(self, other: "QuadExt"):
        if other.rad is self.rad or _same_scalar(other.rad, self.rad):
            return other
        if isinstance(self.rad, Fraction) and isinstance(other.rad, Fraction):
            raise ValueError("mixed radicands in quadratic arithmetic")
        try:
            # Tower case: embed an element of a subfield.
            return lift_to(other, self)
        except ValueError:
            return NotImplemented

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.rad)

    def _pair(self, other):
        """Both operands in a common field, lifting one side if needed; None
        when other is not a scalar of a compatible field."""
        if not isinstance(other, QuadExt):
            return None
        o = self._coerce(other)
        if o is not NotImplemented:
            return self, o
        s = other._coerce(self)
        if s is not NotImplemented:
            return s, other
        return None

    # -- ring operations ----------------------------------------------

    # Each operation first tries the subfield fast path in both directions
    # (_below), which gives the same tree as lifting the lower operand would.

    def __add__(self, other):
        if self._below(other):
            return QuadExt(self.a + other, self.b, self.rad)
        if isinstance(other, QuadExt) and other._below(self):
            return QuadExt(self + other.a, other.b, other.rad)
        p = self._pair(other)
        if p is None:
            return NotImplemented
        x, y = p
        return QuadExt(x.a + y.a, x.b + y.b, x.rad)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.rad)

    def __sub__(self, other):
        if self._below(other):
            return QuadExt(self.a - other, self.b, self.rad)
        if isinstance(other, QuadExt) and other._below(self):
            return QuadExt(self - other.a, -other.b, other.rad)
        p = self._pair(other)
        if p is None:
            return NotImplemented
        x, y = p
        return QuadExt(x.a - y.a, x.b - y.b, x.rad)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._below(other):
            return QuadExt(self.a * other, self.b * other, self.rad)
        if isinstance(other, QuadExt) and other._below(self):
            return QuadExt(self * other.a, self * other.b, other.rad)
        p = self._pair(other)
        if p is None:
            return NotImplemented
        x, y = p
        return QuadExt(
            x.a * y.a + x.b * y.b * x.rad,
            x.a * y.b + x.b * y.a,
            x.rad,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self._below(other):
            return QuadExt(self.a / other, self.b / other, self.rad)
        if isinstance(other, QuadExt) and other._below(self):
            return _divide_below(self, other)
        p = self._pair(other)
        if p is None:
            return NotImplemented
        x, y = p
        norm = y.a * y.a - y.b * y.b * y.rad
        return QuadExt(
            (x.a * y.a - x.b * y.b * x.rad) / norm,
            (x.b * y.a - x.a * y.b) / norm,
            x.rad,
        )

    def __rtruediv__(self, other):
        return _divide_below(other, self) if self._below(other) else NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadExt(_lift_like(Fraction(1), self.a), _zero_like(self.a), self.rad)
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
        if not (is_rational(other) or isinstance(other, QuadExt)):
            return NotImplemented
        x, y = _peel(self), _peel(_frac(other) if isinstance(other, int) else other)
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            return x == y
        if (
            isinstance(x, QuadExt)
            and isinstance(y, QuadExt)
            and rad_equal(x.rad, y.rad)
        ):
            return x.a == y.a and x.b == y.b
        return False

    def __ne__(self, other) -> bool:
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def __hash__(self) -> int:
        if _is_zero(self.b):
            return hash(self.a)
        return hash((self.a, self.b, _rad_key(self.rad)))

    def sign(self) -> int:
        if self._sign_memo is None:
            self._sign_memo = _quadext_sign(self)
        return self._sign_memo

    def __lt__(self, other):
        d = self - other
        return exact_sign(d) < 0

    def __le__(self, other):
        return exact_sign(self - other) <= 0

    def __gt__(self, other):
        return exact_sign(self - other) > 0

    def __ge__(self, other):
        return exact_sign(self - other) >= 0

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return not (_is_zero(self.a) and _is_zero(self.b))

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.rad!r})"

    def __str__(self) -> str:
        return format_scalar(self)

    def __float__(self) -> float:
        return interval_of(self, 80).midpoint_float()


def _divide_below(x: Scalar, y: QuadExt) -> QuadExt:
    """x / y for x rational or in the field of y's components."""
    norm = y.a * y.a - y.b * y.b * y.rad
    return QuadExt(x * y.a / norm, -(x * y.b) / norm, y.rad)


def _zero_like(template: Scalar) -> Scalar:
    if isinstance(template, Fraction):
        return Fraction(0)
    return QuadExt(_zero_like(template.a), _zero_like(template.a), template.rad)


def _one_like(template: Scalar) -> Scalar:
    if isinstance(template, Fraction):
        return Fraction(1)
    return QuadExt(_lift_like(Fraction(1), template.a), _zero_like(template.a), template.rad)


def _lift_like(x: Fraction, template: Scalar) -> Scalar:
    """Embed the rational x into the field the template lives in."""
    if isinstance(template, Fraction):
        return x
    return QuadExt(_lift_like(x, template.a), _zero_like(template.a), template.rad)


def lift_to(x: Scalar, template: Scalar) -> Scalar:
    """Embed x (possibly from a subfield) into the field of template."""
    if isinstance(template, Fraction):
        if not isinstance(x, Fraction):
            raise ValueError("cannot lower a surd into the rationals")
        return x
    if isinstance(x, QuadExt) and rad_equal(x.rad, template.rad):
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


def _is_zero(x: Scalar) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    return _is_zero(x.a) and _is_zero(x.b)


def _peel(x: Scalar) -> Scalar:
    """Strip tower layers whose surd component is zero."""
    while isinstance(x, QuadExt) and _is_zero(x.b):
        x = x.a
    return x


def _same_scalar(x: Scalar, y: Scalar) -> bool:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    if isinstance(x, QuadExt) and isinstance(y, QuadExt):
        return (
            _same_scalar(x.rad, y.rad)
            and _same_scalar(x.a, y.a)
            and _same_scalar(x.b, y.b)
        )
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


def _rad_key(rad: Scalar):
    rad = _peel(rad)
    if isinstance(rad, Fraction):
        return rad
    return (_rad_key(rad.rad), rad.a, rad.b)


def exact_sign(x: Scalar) -> int:
    """Exact sign (-1, 0, +1) of any scalar."""
    if isinstance(x, Fraction):
        return (x.numerator > 0) - (x.numerator < 0)
    if isinstance(x, int):
        return (x > 0) - (x < 0)
    return x.sign()


def _quadext_sign(x: QuadExt) -> int:
    # Interval fast path: decides every nonzero value at some precision,
    # cheap for the common case deep in a tower.
    for bits in (DEFAULT_PRECISION_BITS, 3 * DEFAULT_PRECISION_BITS):
        s = interval_of(x, bits).sign_or_none()
        if s is not None:
            return s
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


def interval_of(x: Scalar, bits: int = DEFAULT_PRECISION_BITS) -> CertifiedInterval:
    """Certified enclosure of any scalar at the requested precision."""
    lo, hi = _bounds(x, bits)
    return CertifiedInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits), bits)


def _bounds(x: Scalar, bits: int) -> Tuple[int, int]:
    """Integers lo, hi with lo <= x * 2^bits <= hi.

    Each tower node keeps its bounds per precision: nodes are immutable, so
    a radicand shared by many elements is enclosed once.
    """
    if not isinstance(x, QuadExt):
        n, d = (x, 1) if isinstance(x, int) else (x.numerator, x.denominator)
        return (n << bits) // d, -((-n << bits) // d)
    memo = x._bounds_memo
    if memo is None:
        memo = x._bounds_memo = {}
    got = memo.get(bits)
    if got is None:
        al, ah = _bounds(x.a, bits)
        bl, bh = _bounds(x.b, bits)
        sl, sh = _sqrt_bounds(x.rad, bits)
        ends = (bl * sl, bl * sh, bh * sl, bh * sh)
        got = memo[bits] = (al + (min(ends) >> bits), ah - (-max(ends) >> bits))
    return got


def _sqrt_bounds(r: Scalar, bits: int) -> Tuple[int, int]:
    """Integers lo, hi with lo <= sqrt(r) * 2^bits <= hi, for a radicand r > 0."""
    if not isinstance(r, QuadExt):
        return _rational_sqrt_bounds(r.numerator, r.denominator, bits)
    memo = r._sqrt_memo
    if memo is None:
        memo = r._sqrt_memo = {}
    got = memo.get(bits)
    if got is None:
        lo, hi = _bounds(r, bits)
        got = memo[bits] = _isqrt_bounds(max(lo, 0) << bits, hi << bits)
    return got


@lru_cache(maxsize=256)
def _rational_sqrt_bounds(n: int, d: int, bits: int) -> Tuple[int, int]:
    return _isqrt_bounds((n << 2 * bits) // d, -((-n << 2 * bits) // d))


def _isqrt_bounds(lo: int, hi: int) -> Tuple[int, int]:
    """isqrt(lo) <= sqrt(t) <= the returned upper end, for lo <= t <= hi."""
    top = isqrt(hi)
    return isqrt(lo), top if top * top == hi else top + 1


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
    iv = interval_of(x, DEFAULT_PRECISION_BITS)
    m = iv.lower.numerator // iv.lower.denominator
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
    x = _peel(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x.a, Fraction):  # level one: p/q+r/s*sqrt(d)
        if x.a == 0:
            head = "-" if x.b < 0 else ""
        else:
            head = f"{x.a}+" if x.b >= 0 else f"{x.a}-"
        return f"{head}{abs(x.b)}*sqrt({format_scalar(x.rad)})"
    return (
        f"({format_scalar(x.a)})+({format_scalar(x.b)})"
        f"*sqrt({format_scalar(x.rad)})"
    )


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
