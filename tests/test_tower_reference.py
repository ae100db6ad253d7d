"""Differential tests: QuadExt (integer coordinates over one denominator)
against a small reference tower with Fraction leaves, on towers of height
1-3, zero-padded lifts and the sibling fields that field_join adjoins."""

import math
from fractions import Fraction as F

import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triarea.scalars import (
    QuadExt,
    _bounds,
    exact_sign,
    field_join,
    format_scalar,
    lift_to,
    parse_scalar,
    scalar_floor,
    sqrt_exact,
)


class Ref:
    """a + b*sqrt(rad): a and b Fractions or Refs one level down, rad too."""

    __slots__ = ("a", "b", "rad")

    def __init__(self, a, b, rad):
        self.a, self.b, self.rad = a, b, rad


def r_eq(x, y):
    if isinstance(x, F):
        return isinstance(y, F) and x == y
    return isinstance(y, Ref) and r_eq(x.a, y.a) and r_eq(x.b, y.b) and r_eq(x.rad, y.rad)


def r_add(x, y):
    return x + y if isinstance(x, F) else Ref(r_add(x.a, y.a), r_add(x.b, y.b), x.rad)


def r_neg(x):
    return -x if isinstance(x, F) else Ref(r_neg(x.a), r_neg(x.b), x.rad)


def r_sub(x, y):
    return r_add(x, r_neg(y))


def r_mul(x, y):
    if isinstance(x, F):
        return x * y
    return Ref(
        r_add(r_mul(x.a, y.a), r_mul(r_mul(x.b, y.b), x.rad)),
        r_add(r_mul(x.a, y.b), r_mul(x.b, y.a)),
        x.rad,
    )


def r_inv(x):
    if isinstance(x, F):
        return 1 / x
    n = r_inv(r_sub(r_mul(x.a, x.a), r_mul(r_mul(x.b, x.b), x.rad)))
    return Ref(r_mul(x.a, n), r_neg(r_mul(x.b, n)), x.rad)


def r_zero(x):
    return F(0) if isinstance(x, F) else Ref(r_zero(x.a), r_zero(x.a), x.rad)


def r_is_zero(x):
    return x == 0 if isinstance(x, F) else r_is_zero(x.a) and r_is_zero(x.b)


def r_sign(x):
    """The algebraic sign test, with no intervals."""
    if isinstance(x, F):
        return (x > 0) - (x < 0)
    sa, sb = r_sign(x.a), r_sign(x.b)
    if sb == 0 or sa == sb:
        return sa if sa else sb
    if sa == 0:
        return sb
    return r_sign(r_sub(r_mul(x.a, x.a), r_mul(r_mul(x.b, x.b), x.rad))) * sa


def r_lift(x, template):
    """x (a Fraction or an element of a tower level) padded with zero surd
    parts up to the level of template."""
    if isinstance(template, F) or r_same_level(x, template):
        return x
    return Ref(r_lift(x, template.a), r_zero(template.a), template.rad)


def r_same_level(x, y):
    if isinstance(x, F) or isinstance(y, F):
        return isinstance(x, F) and isinstance(y, F)
    return r_eq(x.rad, y.rad)


def r_value(x):
    if isinstance(x, F):
        return mpmath.mpf(x.numerator) / x.denominator
    return r_value(x.a) + r_value(x.b) * mpmath.sqrt(r_value(x.rad))


def to_quad(x):
    return x if isinstance(x, F) else QuadExt(to_quad(x.a), to_quad(x.b), to_quad(x.rad))


def from_quad(q, level):
    """The reference element read off q's public a, b and rad."""
    if level == 0:
        assert isinstance(q, F)
        return q
    assert isinstance(q, QuadExt) and q.height == level
    assert isinstance(q.a, F) == isinstance(q.b, F) == isinstance(q.rad, F) == (level == 1)
    return Ref(from_quad(q.a, level - 1), from_quad(q.b, level - 1), from_quad(q.rad, level - 1))


def level_of(x):
    return 0 if isinstance(x, F) else 1 + level_of(x.rad)


# sqrt 5, then sqrt(1 + sqrt 5), then sqrt(1/2 + sqrt(1 + sqrt 5))
RADS = [F(5)]
RADS.append(Ref(F(1), F(1), RADS[0]))
RADS.append(Ref(Ref(F(1, 2), F(0), RADS[0]), Ref(F(1), F(0), RADS[0]), RADS[1]))

leaves = st.fractions(min_value=-40, max_value=40, max_denominator=9)


def refs(level):
    if level == 0:
        return leaves
    below = refs(level - 1)
    return st.builds(Ref, below, below, st.just(RADS[level - 1]))


@st.composite
def ref_pairs(draw):
    """(x, y): x at level 1-3; y at a level at most x's, possibly drawn
    lower and zero-padded up to x's level with lift_to."""
    h = draw(st.integers(1, 3))
    x = draw(refs(h))
    y = draw(refs(draw(st.integers(0, h))))
    return x, y


def check(q, ref):
    assert r_eq(from_quad(q, level_of(ref)), ref)


@settings(max_examples=120, deadline=None)
@given(ref_pairs())
def test_ring_operations_match_the_reference(pair):
    x, y = pair
    qx, qy = to_quad(x), to_quad(y)
    ly = r_lift(y, x)
    check(qx + qy, r_add(x, ly))
    check(qy + qx, r_add(x, ly))
    check(qx - qy, r_sub(x, ly))
    check(qy - qx, r_sub(ly, x))
    check(qx * qy, r_mul(x, ly))
    check(qy * qx, r_mul(x, ly))
    check(-qx, r_neg(x))
    if not r_is_zero(y):
        check(qx / qy, r_mul(x, r_inv(ly)))
    if not r_is_zero(x):
        check(qy / qx, r_mul(ly, r_inv(x)))
        check(qx ** 3, r_mul(x, r_mul(x, x)))
    check(qx ** 0, r_lift(F(1), x))


@st.composite
def lift_pairs(draw):
    """(x, y): x at level 2 or 3, y at a lower level of at least 1, so that
    lift_to pads y with zero surd parts up to x's level."""
    h = draw(st.integers(2, 3))
    x = draw(refs(h))
    y = draw(refs(draw(st.integers(1, h - 1))))
    return x, y


@settings(max_examples=120, deadline=None)
@given(lift_pairs())
def test_zero_padded_lifts_keep_value_hash_and_types(pair):
    x, y = pair
    qx, qy = to_quad(x), to_quad(y)
    lifted = lift_to(qy, qx)
    check(lifted, r_lift(y, x))
    assert isinstance(lifted.a, QuadExt) and lifted.rad is qx.rad
    assert lifted == qy and qy == lifted and hash(lifted) == hash(qy)
    assert format_scalar(lifted) == format_scalar(qy)
    assert (lifted - qy) == 0 and not (lifted - qy)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(refs))
def test_sign_floor_sqrt_and_text_match_the_reference(x):
    q = to_quad(x)
    assert exact_sign(q) == r_sign(x)
    with mpmath.workdps(120):
        v = r_value(x)
        for bits in (4, 8, 64):
            lo, hi = _bounds(q, bits)
            assert lo <= v * 2**bits <= hi
        m = int(mpmath.floor(v))
    # the reference floor: settle the float guess with the algebraic sign
    lift_m = lambda k: r_lift(F(k), x)  # noqa: E731
    while r_sign(r_sub(x, lift_m(m))) < 0:
        m -= 1
    while r_sign(r_sub(x, lift_m(m + 1))) >= 0:
        m += 1
    assert scalar_floor(q) == m
    square = q * q
    root = sqrt_exact(square)
    assert root is not None and exact_sign(root) >= 0 and root * root == square
    assert root == (q if r_sign(x) >= 0 else -q)
    back = parse_scalar(format_scalar(q))
    assert back == q and hash(back) == hash(q)


def unit(level):
    """sqrt of the level's radicand, an element of that level."""
    rad = RADS[level - 1]
    return Ref(r_lift(F(0), rad), r_lift(F(1), rad), rad)


@settings(max_examples=80, deadline=None)
@given(leaves, st.integers(1, 3))
def test_rational_values_hash_like_their_fraction(value, level):
    # a value whose surd layers are all zero, at any level of the tower
    q = lift_to(value, to_quad(unit(level)))
    assert isinstance(q, QuadExt) and q.height == level
    check(q, r_lift(value, unit(level)))
    assert q == value and hash(q) == hash(value)
    assert exact_sign(q) == (value > 0) - (value < 0) and scalar_floor(q) == math.floor(value)


SIBLING_RADS = [Ref(F(1), F(1), F(5)), Ref(F(2), F(1), F(5))]  # 1 + sqrt 5, 2 + sqrt 5


@settings(max_examples=80, deadline=None)
@given(refs(1), refs(1), refs(1), refs(1))
def test_field_join_of_sibling_fields(a1, b1, a2, b2):
    # u in Q(sqrt 5)(sqrt(1 + sqrt 5)) and v in Q(sqrt 5)(sqrt(2 + sqrt 5)):
    # neither field holds the other, so the join adjoins a level
    u = to_quad(Ref(a1, b1, SIBLING_RADS[0]))
    v = to_quad(Ref(a2, b2, SIBLING_RADS[1]))
    assume(u.b and v.b)
    x, y = field_join(u, v)
    assert x.rad is y.rad and x.height == y.height == 3
    assert x == u and y == v and hash(x) == hash(u) and hash(y) == hash(v)
    with mpmath.workdps(60):
        uv = mpmath.mpf(float(u)) * mpmath.mpf(float(v))
        assert mpmath.almosteq(mpmath.mpf(float(x * y)), uv, rel_eps=1e-12)
    assert (x + y) - y == u and (x * y) / y == u
    for z in (x, y, x * y, x - y):
        back = parse_scalar(format_scalar(z))
        assert back == z and hash(back) == hash(z)
