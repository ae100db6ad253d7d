"""Exact scalar arithmetic: quadratic extensions, certified intervals,
parsing and printing."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triarea.scalars as scalars
from triarea.scalars import (
    CertifiedInterval,
    QuadExt,
    ScalarSyntaxError,
    exact_sign,
    field_join,
    format_scalar,
    interval_of,
    lift_to,
    parse_scalar,
    rad_equal,
    scalar_floor,
    scalar_radicand,
    sqrt_exact,
)


def q5(a, b):
    return QuadExt(F(a), F(b), F(5))


def as_float(x):
    if isinstance(x, F):
        return float(x)
    return float(x.a) + float(x.b) * math.sqrt(float(as_float(x.rad)))


rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 13])


@st.composite
def quadext_values(draw):
    return QuadExt(draw(rationals), draw(rationals), F(draw(radicands)))


class TestQuadExtArithmetic:
    def test_examples(self):
        x = q5(1, 1)
        y = q5(2, -1)
        assert x + y == q5(3, 0) == F(3)
        assert x * y == q5(-3, 1)
        assert x - x == 0
        assert (x * y) / y == x
        assert x ** 2 == q5(6, 2)
        assert -x == q5(-1, -1)

    def test_rational_collapse_hash(self):
        assert q5(F(1, 2), 0) == F(1, 2)
        assert hash(q5(F(1, 2), 0)) == hash(F(1, 2))

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            QuadExt(F(1), F(1), F(5)) + QuadExt(F(1), F(1), F(7))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q5(1, 1) / q5(0, 0)

    @given(quadext_values(), quadext_values())
    def test_float_agreement_add_mul(self, x, y):
        if x.rad != y.rad:
            return
        for op in (lambda u, v: u + v, lambda u, v: u * v, lambda u, v: u - v):
            got = as_float(op(x, y))
            want = op(as_float(x), as_float(y))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(quadext_values())
    def test_field_axioms(self, x):
        zero = QuadExt(F(0), F(0), x.rad)
        one = QuadExt(F(1), F(0), x.rad)
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        if x != zero:
            assert x * (one / x) == one

    def test_conjugate_norm_is_rational(self):
        x = q5(3, 2)
        n = x * x.conjugate()
        assert n == F(9 - 4 * 5)

    def test_tower_arithmetic(self):
        # t = sqrt(1 + sqrt(5)) lives one level above Q(sqrt 5)
        base = q5(1, 1)
        t = QuadExt(q5(0, 0), q5(1, 0), base)
        assert exact_sign(t * t - base) == 0
        lifted = t + q5(2, 0)
        assert exact_sign((lifted - t) - F(2)) == 0


class TestSign:
    def test_derived_example(self):
        # 9/4 - sqrt(5): squares compare as 81/16 vs 80/16
        assert exact_sign(q5(F(9, 4), -1)) == 1
        assert exact_sign(q5(F(9, 4), 1)) == 1
        assert exact_sign(q5(F(-9, 4), 1)) == -1
        assert exact_sign(q5(2, -1)) == -1

    def test_zero(self):
        assert exact_sign(q5(0, 0)) == 0
        assert exact_sign(F(0)) == 0

    @given(quadext_values())
    def test_sign_matches_float(self, x):
        f = as_float(x)
        if abs(f) > 1e-6:
            assert exact_sign(x) == (1 if f > 0 else -1)

    @given(quadext_values(), quadext_values())
    def test_comparisons_are_total(self, x, y):
        if x.rad != y.rad:
            return
        assert (x < y) + (x == y) + (x > y) == 1


    def test_precision_env_sets_first_sign_attempt(self):
        code = (
            "from fractions import Fraction as F\n"
            "import triarea.scalars as s\n"
            "bits, bounds = [], s._bounds\n"
            "def recording(x, b):\n"
            "    bits.append(b)\n"
            "    return bounds(x, b)\n"
            "s._bounds = recording\n"
            "s.exact_sign(s.QuadExt(F(9, 4), F(-1), F(5)))\n"
            "print(bits[0])\n"
        )
        env = dict(os.environ, TRIAREA_PRECISION_BITS="8")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.stdout.strip() == "8", out.stderr


class TestPrecisionSchedule:
    def test_starts_at_n_and_doubles_up_to_the_cap(self, monkeypatch):
        n = scalars.DEFAULT_PRECISION_BITS
        got = list(scalars._precision_schedule())
        assert got[0] == n
        assert all(b == 2 * a for a, b in zip(got, got[1:]))
        assert got[-2] < scalars.MAX_PRECISION_BITS <= got[-1]
        monkeypatch.setattr(scalars, "DEFAULT_PRECISION_BITS", 8)
        assert list(scalars._precision_schedule()) == [8 << k for k in range(14)]  # 8 .. 65536

    def test_sign_encloses_only_its_own_value(self, monkeypatch):
        # a sign reads lo > 0 and hi < 0 of the value's own bounds: no
        # enclosure of 0 is built to compare it against
        calls, bounds = [], scalars._bounds

        def recording(x, bits):
            calls.append(x)
            return bounds(x, bits)

        monkeypatch.setattr(scalars, "_bounds", recording)
        x = QuadExt(F(9, 4), F(-1), F(5))  # 9/4 - sqrt 5, about 0.014
        assert exact_sign(x) == 1
        assert calls and all(c is x for c in calls)

    def test_equal_values_stay_undecided(self):
        # one value in two representations: bounds never separate them
        root5 = QuadExt(F(0), F(1), F(5))
        lifted = lift_to(root5, QuadExt(F(0), F(1), TOWER_RADS[1]))
        assert lifted.height == 2 and lifted == root5
        assert scalars._bounds_order(root5, lifted) is None
        assert scalars._bounds_order(F(1, 3), QuadExt(F(1, 3), F(0), F(5))) is None
        assert scalars._bounds_order(root5, F(9, 4)) == -1

    def test_sign_past_the_cap_comes_from_the_algebraic_test(self, monkeypatch):
        # p - q*sqrt 2 for Pell pairs (p, q) with p^2 - 2q^2 = +-1 lies
        # within 1/(2q^2) of zero and has the sign of p^2 - 2q^2
        p, q = 1, 1
        while q < 1 << 40:
            p, q = p + 2 * q, p + q
        monkeypatch.setattr(scalars, "DEFAULT_PRECISION_BITS", 32)
        monkeypatch.setattr(scalars, "MAX_PRECISION_BITS", 64)
        signs, sign = [], scalars._bounds_sign

        def recording(x):
            signs.append(sign(x))
            return signs[-1]

        monkeypatch.setattr(scalars, "_bounds_sign", recording)
        for p, q in ((p, q), (p + 2 * q, p + q)):
            x = QuadExt(F(p), F(-q), F(2))
            assert exact_sign(x) == exact_sign(F(p * p - 2 * q * q)) != 0
        assert signs == [None, None]


# a three-level tower over Q: sqrt 5, then sqrt(1 + sqrt 5), then
# sqrt(2 + sqrt(1 + sqrt 5)); every element of one level shares its radicand
TOWER_RADS = [F(5)]
TOWER_RADS.append(QuadExt(F(1), F(1), TOWER_RADS[0]))
TOWER_RADS.append(QuadExt(QuadExt(F(2), F(0), TOWER_RADS[0]), QuadExt(F(1), F(0), TOWER_RADS[0]), TOWER_RADS[1]))

small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def tower_values(level):
    """Elements of the tower's given level (0 is Q)."""
    if level == 0:
        return small_rationals
    below = tower_values(level - 1)
    return st.builds(QuadExt, below, below, st.just(TOWER_RADS[level - 1]))


@st.composite
def tower_pairs(draw):
    """(x, y): x at level 1-3, y a rational, an int or an element below x."""
    level = draw(st.integers(1, 3))
    x = draw(tower_values(level))
    y = draw(st.one_of(st.integers(-9, 9), tower_values(draw(st.integers(0, level - 1)))))
    return x, y


def mp_value(x):
    """x to 300 digits with mpmath, independent of interval_of."""
    if isinstance(x, (int, F)):
        return mpmath.mpf(F(x).numerator) / F(x).denominator
    return mp_value(x.a) + mp_value(x.b) * mpmath.sqrt(mp_value(x.rad))


class TestSubfieldFastPath:
    """Arithmetic with a rational or a lower tower level works on the
    components directly; it must build the very tree that lifting the lower
    operand into the higher field builds."""

    @settings(max_examples=150, deadline=None)
    @given(tower_pairs())
    def test_matches_lifted_arithmetic(self, pair):
        x, y = pair
        lifted = lift_to(F(y) if isinstance(y, int) else y, x)
        assert lifted.rad is x.rad  # so the lifted side takes the same-level path
        cases = [
            (x + y, x + lifted), (y + x, lifted + x),
            (x - y, x - lifted), (y - x, lifted - x),
            (x * y, x * lifted), (y * x, lifted * x),
        ]
        if y != 0:
            cases.append((x / y, x / lifted))
        if x != 0:
            cases.append((y / x, lifted / x))
        for fast, slow in cases:
            assert isinstance(fast, QuadExt)
            assert repr(fast) == repr(slow)
            assert hash(fast) == hash(slow)
            assert fast == slow

    def test_height_counts_the_radicand_chain(self):
        assert [QuadExt(F(0), F(1), r).height for r in TOWER_RADS] == [1, 2, 3]


class TestIntervals:
    def test_sign_or_none(self):
        a = CertifiedInterval(F(-1), F(-1, 2))
        b = CertifiedInterval(F(1, 2), F(1))
        c = CertifiedInterval(F(-1), F(1))
        assert a.sign_or_none() == -1
        assert b.sign_or_none() == 1
        assert c.sign_or_none() is None

    def test_compare_none_on_overlap(self):
        a = CertifiedInterval(F(0), F(2))
        b = CertifiedInterval(F(1), F(3))
        assert a.compare(b) is None
        assert CertifiedInterval(F(0), F(1)).compare(CertifiedInterval(F(2), F(3))) == -1
        assert CertifiedInterval(F(2), F(3)).compare(CertifiedInterval(F(0), F(1))) == 1
        assert CertifiedInterval(F(1), F(2)).compare(CertifiedInterval(F(2), F(3))) is None
        assert CertifiedInterval(F(1), F(1)).compare(CertifiedInterval(F(1), F(1))) == 0

    @given(quadext_values(), st.sampled_from([32, 64, 128]))
    def test_interval_contains_value(self, x, bits):
        iv = interval_of(x, bits)
        f = as_float(x)
        assert float(iv.lower) - 1e-6 <= f <= float(iv.upper) + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3).flatmap(tower_values), st.sampled_from([8, 64, 192]))
    def test_tower_interval_encloses_high_precision_value(self, x, bits):
        iv = interval_of(x, bits)
        assert iv.precision_bits == bits
        with mpmath.workdps(300):
            v = mp_value(x)
            lo = mpmath.mpf(iv.lower.numerator) / iv.lower.denominator
            hi = mpmath.mpf(iv.upper.numerator) / iv.upper.denominator
            assert lo <= v <= hi
        # the bounds are dyadic at the requested precision
        assert (iv.lower * 2**bits).denominator == (iv.upper * 2**bits).denominator == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(tower_values))
    def test_memo_is_per_precision(self, x):
        # ask in both orders: a memoised enclosure at one precision must
        # never answer for another
        wide, fine = 8, 192
        first = [interval_of(x, b) for b in (wide, fine)]
        again = [interval_of(x, b) for b in (fine, wide)][::-1]
        assert first == again
        assert sorted(x._bounds_memo) == [wide, fine]
        assert first[1].upper - first[1].lower <= first[0].upper - first[0].lower
        for iv, b in zip(first, (wide, fine)):
            assert iv.precision_bits == b
            assert (iv.lower * 2**b).denominator == 1

    @given(quadext_values())
    def test_refinement_narrows(self, x):
        w1 = interval_of(x, 32)
        w2 = interval_of(x, 128)
        assert w2.upper - w2.lower <= w1.upper - w1.lower


class TestSqrtExact:
    def test_rational_squares(self):
        assert sqrt_exact(F(9, 4)) == F(3, 2)
        assert sqrt_exact(F(2)) is None
        assert sqrt_exact(F(0)) == 0

    def test_quadext_square(self):
        x = q5(3, 1)  # (3 + sqrt5)^2 = 14 + 6 sqrt5
        assert sqrt_exact(q5(14, 6)) == x
        assert sqrt_exact(q5(1, 1)) is None

    def test_negative(self):
        assert sqrt_exact(F(-4)) is None
        assert sqrt_exact(q5(-14, -6)) is None

    @given(quadext_values())
    def test_square_then_root(self, x):
        if exact_sign(x) < 0:
            x = -x
        r = sqrt_exact(x * x)
        assert r == x


class TestFloor:
    def test_precision_env_sets_first_floor_attempt(self):
        code = (
            "from fractions import Fraction as F\n"
            "import triarea.scalars as s\n"
            "bits, bounds = [], s._bounds\n"
            "def recording(x, b):\n"
            "    bits.append(b)\n"
            "    return bounds(x, b)\n"
            "s._bounds = recording\n"
            "print(s.scalar_floor(s.QuadExt(F(1, 3), F(7), F(2))), bits[0])\n"
        )
        env = dict(os.environ, TRIAREA_PRECISION_BITS="8")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.stdout.split() == ["10", "8"], out.stderr

    def test_examples(self):
        assert scalar_floor(F(7, 3)) == 2
        assert scalar_floor(F(-7, 3)) == -3
        assert scalar_floor(q5(0, 1)) == 2
        assert scalar_floor(q5(0, -1)) == -3
        assert scalar_floor(q5(2, 0)) == 2

    @given(quadext_values())
    def test_floor_brackets(self, x):
        k = scalar_floor(x)
        assert exact_sign(x - F(k)) >= 0
        assert exact_sign(x - F(k + 1)) < 0


class TestParseFormat:
    def test_format_examples(self):
        assert format_scalar(F(3, 4)) == "3/4"
        assert format_scalar(F(-2)) == "-2"
        assert format_scalar(q5(F(9, 4), -1)) == "9/4-1*sqrt(5)"
        assert format_scalar(q5(0, 1)) == "1*sqrt(5)"
        assert format_scalar(q5(0, -2)) == "-2*sqrt(5)"

    def test_parse_examples(self):
        assert parse_scalar("3/4") == F(3, 4)
        assert parse_scalar("9/4-1*sqrt(5)") == q5(F(9, 4), -1)
        assert parse_scalar("sqrt(5)") == q5(0, 1)
        assert parse_scalar("-sqrt(5)/2") == q5(0, F(-1, 2))
        assert parse_scalar("2*sqrt(5)*sqrt(5)") == F(10)

    def test_parse_collapses_perfect_square(self):
        assert parse_scalar("sqrt(9/4)") == F(3, 2)

    def test_parse_tower(self):
        t = parse_scalar("sqrt(1+sqrt(5))")
        assert isinstance(t, QuadExt)
        assert exact_sign(t * t - q5(1, 1)) == 0

    def test_syntax_errors(self):
        for bad in ["", "1 +", "sqrt(", "3//4", "1..5", "x", "sqrt(-1)"]:
            with pytest.raises(ScalarSyntaxError):
                parse_scalar(bad)

    def test_division_by_zero_is_a_syntax_error(self):
        for bad in ["1/0", "0/0", "1/(1-1)", "sqrt(2)/(sqrt(3)-sqrt(3))"]:
            with pytest.raises(ScalarSyntaxError, match="division by zero"):
                parse_scalar(bad)

    @given(quadext_values())
    def test_round_trip(self, x):
        assert parse_scalar(format_scalar(x)) == x

    @given(rationals)
    def test_round_trip_rational(self, x):
        assert parse_scalar(format_scalar(x)) == x

    def test_no_spaces_in_output(self):
        assert " " not in format_scalar(q5(F(-1, 3), F(7, 2)))


class TestRadicand:
    def test_values(self):
        assert scalar_radicand(F(2)) is None
        assert scalar_radicand(q5(1, 1)) == F(5)
        assert scalar_radicand(q5(1, 0)) == F(5)


class TestCollapsedTowers:
    """Printing peels zero tower layers, so re-parsed values can land in a
    shallower or sibling representation of the same field.  Equality,
    hashing and arithmetic must not notice the difference."""

    def tower_root(self):
        return parse_scalar("sqrt(1+sqrt(5))")

    def test_rad_equal_peels(self):
        padded = QuadExt(F(5), F(0), F(2))  # 5 + 0*sqrt(2)
        assert rad_equal(padded, F(5))
        assert rad_equal(F(5), padded)
        assert not rad_equal(F(5), F(7))

    def test_lifted_value_equal_and_hash(self):
        lifted = lift_to(q5(0, 1), self.tower_root())
        assert isinstance(lifted.a, QuadExt)  # genuinely zero-padded
        assert lifted == q5(0, 1)
        assert q5(0, 1) == lifted
        assert hash(lifted) == hash(q5(0, 1))

    def test_format_peels_zero_layers(self):
        lifted = lift_to(q5(0, 1), self.tower_root())
        assert format_scalar(lifted) == "1*sqrt(5)"
        assert format_scalar(lift_to(F(3, 4), self.tower_root())) == "3/4"

    def test_lift_accepts_collapsed_radicand(self):
        # the template's base radicand arrives in printed (peeled) form
        deep = self.tower_root()
        assert lift_to(q5(0, 1), deep) * lift_to(q5(0, 1), deep) == F(5)

    def test_parse_joins_sibling_roots(self):
        s = parse_scalar("sqrt(2)+sqrt(3)")
        # minimal polynomial of sqrt(2)+sqrt(3)
        assert exact_sign(s * s * s * s - 10 * (s * s) + 1) == 0

    def test_parse_joins_deep_siblings(self):
        s = parse_scalar("sqrt(5)*sqrt(1+sqrt(5))+sqrt(1/2+sqrt(5))")
        iv = interval_of(s, 64)
        r5 = math.sqrt(5)
        v = r5 * math.sqrt(1 + r5) + math.sqrt(0.5 + r5)
        assert float(iv.lower) <= v <= float(iv.upper)

    def test_parse_rejects_disjoint_fields(self):
        with pytest.raises(ScalarSyntaxError):
            parse_scalar("sqrt(2)+sqrt(1+sqrt(3))")

    def test_field_join_adjoins_new_level(self):
        x, y = field_join(q5(0, 1), parse_scalar("sqrt(1+sqrt(5))"))
        assert exact_sign(x * x - 5) == 0
        assert exact_sign(y * y - q5(1, 1)) == 0

    def test_round_trip_through_tower(self):
        lifted = lift_to(q5(F(2, 3), F(-7, 5)), self.tower_root())
        text = format_scalar(lifted)
        back = parse_scalar(text)
        assert back == lifted
        assert format_scalar(back) == text
