"""Census tests against an independent brute-force oracle."""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triarea.arrangement import AffineMap, Arrangement, Line, intersect
from triarea.census import (
    PARALLEL_ID,
    UNIT_AREA,
    AreaCensus,
    census,
    facial_triangle_count,
    facial_triangles,
    per_line_counts,
    select_backend,
    triples_with_area,
    unit_count_by_frame_identity,
)
from triarea.chain import max_chain
from triarea.constructions import (
    hexgrid,
    pentagon,
    random_arrangement,
    st_extremal,
    trigrid,
)
from triarea.scalars import QuadExt, exact_sign, format_scalar


def oracle_census(arr):
    """O(n^3) shoelace census straight from the definition."""
    areas = {}
    concurrent = parallel = 0
    for l1, l2, l3 in combinations(arr.lines, 3):
        p12 = intersect(l1, l2)
        p13 = intersect(l1, l3)
        p23 = intersect(l2, l3)
        if p12 is None or p13 is None or p23 is None:
            parallel += 1
            continue
        (x1, y1), (x2, y2), (x3, y3) = p12, p13, p23
        double = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if exact_sign(double) == 0:
            concurrent += 1
            continue
        area = abs(double) / 2
        areas[area] = areas.get(area, 0) + 1
    return areas, concurrent, parallel


def oracle_facial_triangles(arr):
    """A proper triangle is facial iff no other line separates its vertices."""
    faces = []
    for i, j, k in combinations(range(arr.n), 3):
        l1, l2, l3 = arr.lines[i], arr.lines[j], arr.lines[k]
        verts = [intersect(l1, l2), intersect(l1, l3), intersect(l2, l3)]
        if any(v is None for v in verts):
            continue
        (x1, y1), (x2, y2), (x3, y3) = verts
        double = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        if exact_sign(double) == 0:
            continue
        facial = True
        for m, line in enumerate(arr.lines):
            if m in (i, j, k):
                continue
            signs = {exact_sign(line.evaluate(v)) for v in verts}
            if 1 in signs and -1 in signs:
                facial = False
                break
        if facial:
            faces.append((i, j, k))
    return faces


def oracle_facial_count(arr):
    return len(oracle_facial_triangles(arr))


CASES = [
    hexgrid(7),
    trigrid(9),
    pentagon(),
    random_arrangement(10, seed=2),
    random_arrangement(12, seed=5),
    st_extremal(2)[0],
]


@pytest.mark.parametrize("arr", CASES, ids=lambda a: f"n{a.n}-{a.field_name()}")
def test_census_matches_oracle(arr):
    oracle_areas, oracle_conc, oracle_par = oracle_census(arr)
    cen = census(arr)
    assert cen.concurrent_count == oracle_conc
    assert cen.parallel_count == oracle_par
    assert cen.proper_count == sum(oracle_areas.values())
    assert cen.distinct_count == len(oracle_areas)
    for area, count in oracle_areas.items():
        assert cen.count(area) == count


@pytest.mark.parametrize("arr", CASES, ids=lambda a: f"n{a.n}-{a.field_name()}")
def test_facial_count_matches_oracle(arr):
    assert facial_triangle_count(arr) == oracle_facial_count(arr)


@pytest.mark.parametrize(
    "arr", [a for a in CASES if select_backend(a) != "exact"], ids=lambda a: f"n{a.n}"
)
def test_facial_triangles_kernel_matches_exact(arr):
    assert facial_triangles(arr) == facial_triangles(arr, backend="exact")


def test_facial_triangles_consistent_with_count():
    arr = random_arrangement(11, seed=7)
    tris = facial_triangles(arr)
    assert len(tris) == facial_triangle_count(arr)
    assert len(set(tris)) == len(tris)
    cen = census(arr)
    min_triples = set(triples_with_area(arr, cen.min_area))
    # minimum-area triangles are always facial
    assert min_triples <= set(tris)


def test_census_totals():
    arr = random_arrangement(9, seed=1)
    cen = census(arr)
    n = arr.n
    assert cen.total_triples == n * (n - 1) * (n - 2) // 6
    assert sum(c for _, c in cen.sorted_items()) == cen.proper_count


def test_sorted_items_ascending():
    cen = census(pentagon())
    items = cen.sorted_items()
    for (a1, _), (a2, _) in zip(items, items[1:]):
        assert exact_sign(a2 - a1) > 0


def test_unit_count_and_per_line():
    arr, ell = st_extremal(2)
    cen = census(arr)
    counts = per_line_counts(arr, UNIT_AREA)
    assert len(counts) == arr.n
    # the distinguished line is last and sees at least k^4 unit triangles
    assert counts[-1] >= 16
    total_on_lines = sum(counts)
    assert total_on_lines == 3 * cen.unit_count


def test_unit_count_by_frame_identity_agrees():
    for seed in range(4):
        arr = random_arrangement(8, seed=seed)
        assert unit_count_by_frame_identity(arr) == census(arr).unit_count
    arr, _ = st_extremal(2)
    assert unit_count_by_frame_identity(arr) == census(arr).unit_count


def test_backends_agree():
    arr = random_arrangement(12, seed=9)
    exact = census(arr, backend="exact")
    vec = census(arr, backend="numpy")
    assert exact.area_counts == vec.area_counts
    assert exact.concurrent_count == vec.concurrent_count
    assert exact.parallel_count == vec.parallel_count


def test_select_backend_irrational_falls_back_to_exact():
    assert select_backend(pentagon(), "auto") == "exact"
    with pytest.raises(ValueError):
        census(pentagon(), backend="numpy")


@pytest.mark.parametrize("backend", ["auto", "exact"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_fewer_than_three_lines(n, backend):
    arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0)][:n])
    cen = census(arr, backend=backend)
    assert (cen.n, cen.total_triples, cen.distinct_count) == (n, 0, 0)
    assert cen.sorted_items() == [] and cen.min_area is None
    assert facial_triangles(arr, backend=backend) == []


# (num, den) pairs whose float64 keys tie (2^53 and 2^53 + 1) or misorder
# (the smaller ratio gets the larger key)
FLOAT_KEY_TRAPS = [((2**53, 1), (2**53 + 1, 1)), ((19 * 2**53 + 48, 19), (16 * 2**53 + 43, 16))]


@pytest.mark.parametrize("small, large", FLOAT_KEY_TRAPS)
@pytest.mark.parametrize("flip", [False, True])
def test_class_order_repairs_float_keys(small, large, flip):
    first, second = (large, small) if flip else (small, large)
    cen = AreaCensus(
        4,
        np.array([0, 1, PARALLEL_ID, 1], dtype=np.int32),  # class 1 has two triples
        "numpy",
        num=np.array([first[0], second[0]], dtype=np.int64),
        den=np.array([first[1], second[1]], dtype=np.int64),
    )
    lo, hi = Fraction(*small), Fraction(*large)
    assert lo < hi
    assert (cen.min_area, cen.max_area) == (lo, hi)
    assert cen.sorted_items() == [(lo, 1 + flip), (hi, 2 - flip)]
    assert cen.formatted_items() == [(str(lo), 1 + flip), (str(hi), 2 - flip)]


def test_census_rejects_small():
    arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0)])
    cen = census(arr)
    assert cen.total_triples == 0
    assert cen.proper_count == 0


def _lines(draw, n, ab, c):
    """An arrangement of up to n distinct lines drawn from the strategies."""
    lines = []
    for _ in range(n):
        a, b = draw(ab), draw(ab)
        if a or b:
            lines.append(Line(a, b, draw(c)))
    return Arrangement(dict.fromkeys(lines))


@st.composite
def near_gate_arrangements(draw):
    # the int64 gate needs 48*A^4*C^2 < 2^62 with A = max |a|, |b| and
    # C = max(|c|, A); draw A, then the largest C it allows, and favour the
    # extreme coefficients so that the products reach the bound
    A = draw(st.integers(1, 600))
    C = isqrt((2**62 - 1) // (48 * A**4))
    ab = st.one_of(st.sampled_from([-A, A]), st.integers(-A, A))
    c = st.one_of(st.sampled_from([-C, C, 1 - C, C - 1]), st.integers(-C, C))
    return _lines(draw, draw(st.integers(3, 8)), ab, c)


@st.composite
def small_grids(draw):
    # few directions and offsets: many parallel pairs and concurrent triples
    return _lines(draw, draw(st.integers(3, 12)), st.integers(-2, 2), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(st.one_of(near_gate_arrangements(), small_grids()))
def test_table_builders_agree(arr):
    assume(arr.n >= 3)
    fast = census(arr, backend="numpy")
    exact = census(arr, backend="exact")
    # the int64 table answers these without building its area list
    extremes = ("min_area", "max_area", "min_area_count", "max_area_count")
    assert [getattr(fast, name) for name in extremes] == [getattr(exact, name) for name in extremes]
    absent = (exact.max_area or 0) + 1
    for area in (1, 2, Fraction(1, 2), absent, QuadExt(exact.min_area or 1, 0, 5), QuadExt(1, 1, 5)):
        assert fast.count(area) == exact.count(area)
    assert fast.formatted_items() == exact.formatted_items()
    assert exact.formatted_items() == [(format_scalar(a), c) for a, c in exact.sorted_items()]
    assert fast.areas == exact.areas
    assert fast.sorted_items() == exact.sorted_items()
    assert fast.class_ids.dtype == exact.class_ids.dtype == np.int32
    assert np.array_equal(fast.class_ids, exact.class_ids)
    assert (fast.concurrent_count, fast.parallel_count) == (
        exact.concurrent_count,
        exact.parallel_count,
    )
    area_of = [exact.areas[c] if c >= 0 else None for c in exact.class_ids.tolist()]
    for area in {fast.min_area, fast.max_area, UNIT_AREA} - {None}:
        # reference: walk every triple in lexicographic order
        want = [t for t, a in zip(combinations(range(arr.n), 3), area_of) if a == area]
        line_uses = Counter(chain.from_iterable(want))
        counts = per_line_counts(arr, area, backend="numpy")
        assert counts == per_line_counts(arr, area, backend="exact")
        assert counts == [line_uses[i] for i in range(arr.n)]
        assert list(triples_with_area(arr, area, fast)) == want
        assert list(triples_with_area(arr, area, exact)) == want


@st.composite
def moved_grids(draw):
    # parallel families, and concurrent points in trigrid, with the lines
    # shuffled and translated off the constructions' own order and origin
    grid = draw(st.sampled_from([hexgrid, trigrid]))
    lines = draw(st.permutations(grid(draw(st.integers(3, 16))).lines))
    shift = st.fractions(-5, 5, max_denominator=6)
    return Arrangement(lines).transform(AffineMap.translation(draw(shift), draw(shift)))


_chain_one = cache(lambda: max_chain(1))


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        near_gate_arrangements(),
        moved_grids(),
        st.sampled_from([pentagon, _chain_one]).map(lambda build: build()),
    )
)
def test_facial_triangles_match_oracle(arr):
    want = oracle_facial_triangles(arr)
    assert facial_triangles(arr) == want
    assert facial_triangles(arr, backend="exact") == want
