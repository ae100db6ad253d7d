"""Conic tests: exact linear algebra, dual tangency, equal-area conics,
general-position validation."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest

from triarea.arrangement import Arrangement, Line, intersect, triple_area
from triarea.chain import max_chain
from triarea.conics import (
    QUADRANT_SIGNS,
    DualConic,
    UNIT_CIRCLE_DUAL,
    det_exact,
    equal_area_conic,
    five_tangent_conic,
    kernel_vector,
    rank_exact,
    six_tangent_test,
    tangent,
    triangle_quadrant,
    validate_general_position,
)
from triarea.constructions import random_arrangement, random_general_position
from triarea.scalars import QuadExt, exact_sign

from test_census import CASES


def frac_det3(m):
    """Cofactor expansion, independent of the library's elimination."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_det_exact_matches_cofactors():
    rng = random.Random(0)
    for _ in range(25):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)] for _ in range(3)]
        assert det_exact(m) == frac_det3(m)


def test_det_exact_quadext():
    r5 = QuadExt(Fraction(0), Fraction(1), Fraction(5))
    m = [
        [r5, Fraction(1), Fraction(0)],
        [Fraction(1), r5, Fraction(1)],
        [Fraction(0), Fraction(1), r5],
    ]
    # det = r5^3 - 2*r5 = 5*r5 - 2*r5 = 3*r5
    assert exact_sign(det_exact(m) - 3 * r5) == 0


def test_rank_and_kernel():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]
    assert rank_exact(rows) == 2
    v = kernel_vector(rows, 3)
    assert v is not None
    for row in rows:
        s = sum(a * b for a, b in zip(row, v))
        assert exact_sign(s) == 0


def test_unit_circle_tangency():
    # x = 1 and y = -1 touch the unit circle; x = 2 and x + y = 0 do not
    assert tangent(Line(1, 0, -1), UNIT_CIRCLE_DUAL)
    assert tangent(Line(0, 1, 1), UNIT_CIRCLE_DUAL)
    assert not tangent(Line(1, 0, -2), UNIT_CIRCLE_DUAL)
    assert not tangent(Line(1, 1, 0), UNIT_CIRCLE_DUAL)


def test_five_tangent_conic_degenerate_free():
    rng = random.Random(7)
    for _ in range(10):
        arr = random_arrangement(5, seed=rng.randint(0, 10**6))
        conic = five_tangent_conic(list(arr.lines))
        for line in arr.lines:
            assert tangent(line, conic)


def test_six_concurrent_tangent():
    # six lines through one point are all tangent to the degenerate dual
    # conic concentrated at that point
    lines = [Line(1, k, 0) for k in range(5)] + [Line(0, 1, 0)]
    assert six_tangent_test(lines)


def test_six_parabola_tangents():
    # lines x + t*y - t^2 = 0 are the tangent family of a parabola
    lines = [Line(1, t, -t * t) for t in range(6)]
    assert six_tangent_test(lines)


def test_six_random_not_tangent():
    rng = random.Random(3)
    hits = 0
    for _ in range(20):
        arr = random_arrangement(6, seed=rng.randint(0, 10**6))
        if six_tangent_test(list(arr.lines)):
            hits += 1
    assert hits == 0


def test_hexagon_incircle_tangency():
    # regular hexagon sides touch the incircle; field Q(sqrt 3)
    r3 = QuadExt(Fraction(0), Fraction(1), Fraction(3))
    half = Fraction(1, 2)
    lines = [
        Line(Fraction(0), Fraction(1), -r3 / 2),
        Line(Fraction(0), Fraction(1), r3 / 2),
        Line(r3 * half, half, -r3 / 2),
        Line(r3 * half, half, r3 / 2),
        Line(r3 * half, -half, -r3 / 2),
        Line(r3 * half, -half, r3 / 2),
    ]
    assert six_tangent_test(lines)


def test_equal_area_conic_quadrants():
    l1 = Line(Fraction(0), Fraction(1), Fraction(0))  # x-axis
    l2 = Line(Fraction(1), Fraction(0), Fraction(0))  # y-axis
    lam = Fraction(2)
    for quadrant in (1, 2, 3, 4):
        conic = equal_area_conic(l1, l2, quadrant, lam)
        # tangent lines cut triangles of area lam with the two axes
        for g in _tangent_probes(conic):
            q = triangle_quadrant(l1, l2, g)
            if q != quadrant:
                continue
            area, status = triple_area(l1, l2, g)
            assert status == "proper"
            assert exact_sign(area - lam) == 0


def _tangent_probes(conic):
    """A few rational lines tangent to the conic, found by brute force."""
    out = []
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                if (a, b, c) == (0, 0, 0) or (a == 0 and b == 0):
                    continue
                line = Line(Fraction(a), Fraction(b), Fraction(c))
                if tangent(line, conic):
                    out.append(line)
    return out


def test_validate_general_position_flags():
    good = random_general_position(8, seed=1)
    rep = validate_general_position(good)
    assert rep.passed
    assert rep.exhaustive

    bad = Arrangement(
        [Line(1, 0, 0), Line(1, 0, -1), Line(0, 1, 0), Line(1, 1, -3)]
    )
    rep2 = validate_general_position(bad)
    assert not rep2.passed
    assert rep2.parallel_pairs == [(0, 1)]


def test_validate_sampling_deterministic():
    arr = random_general_position(14, seed=5)
    r1 = validate_general_position(arr, exhaustive_cap=100, samples=200, seed=9)
    r2 = validate_general_position(arr, exhaustive_cap=100, samples=200, seed=9)
    assert not r1.exhaustive
    assert r1.six_checked == r2.six_checked
    assert r1.passed == r2.passed


def test_per_pair_area_count_bound_in_general_position():
    """In validated general position, at most 20 triangles share one area
    with a fixed line pair (5 per quadrant by conic tangency)."""
    arr = random_general_position(10, seed=2)
    assert validate_general_position(arr).passed
    lines = list(arr.lines)
    for i, j in combinations(range(6), 2):
        by_area = {}
        for k in range(arr.n):
            if k in (i, j):
                continue
            area, status = triple_area(lines[i], lines[j], lines[k])
            if status != "proper":
                continue
            by_area.setdefault(area, []).append(k)
        for area, ks in by_area.items():
            assert len(ks) <= 20
            per_quadrant = {}
            for k in ks:
                q = triangle_quadrant(lines[i], lines[j], lines[k])
                per_quadrant[q] = per_quadrant.get(q, 0) + 1
            assert all(v <= 5 for v in per_quadrant.values())


def _concurrent_by_intersection(arr):
    """Concurrent triples as found before the sign predicates: the third
    line through the intersection point of the first two."""
    out = []
    for i, j, k in combinations(range(arr.n), 3):
        p = intersect(arr.lines[i], arr.lines[j])
        if p is None or intersect(arr.lines[i], arr.lines[k]) is None or intersect(arr.lines[j], arr.lines[k]) is None:
            continue
        if exact_sign(arr.lines[k].evaluate(p)) == 0:
            out.append((i, j, k))
    return out


def _quadrant_by_intersection(l1, l2, g):
    """triangle_quadrant from the vertices l2 ^ g and l1 ^ g."""
    v1, v2 = intersect(l2, g), intersect(l1, g)
    if v1 is None or v2 is None:
        return None
    signs = (exact_sign(l1.evaluate(v1)), exact_sign(l2.evaluate(v2)))
    return None if 0 in signs else {s: q for q, s in QUADRANT_SIGNS.items()}[signs]


_chain_one = cache(lambda: max_chain(1))


@pytest.mark.parametrize(
    "build", [*(lambda a=a: a for a in CASES), _chain_one, lambda: Arrangement(_chain_one().lines[:7])],
    ids=[*(f"n{a.n}-{a.field_name()}" for a in CASES), "max_chain1", "max_chain1-first7"],
)
def test_sign_predicates_match_intersection_points(build):
    arr = build()
    assert arr.concurrent_triples() == _concurrent_by_intersection(arr)
    lines = arr.lines if arr.n <= 12 else arr.lines[::2]
    for l1, l2, g in permutations(lines, 3):
        assert triangle_quadrant(l1, l2, g) == _quadrant_by_intersection(l1, l2, g)
