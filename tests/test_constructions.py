"""Construction tests: grid formulas, pentagon census, incidence family,
scaling, and random generators."""

import hashlib
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from triarea.arrangement import PROPER, Arrangement, Line, intersect, triple_area
from triarea.bounds import hexgrid_facial_formula, kobon_bound, trigrid_facial_formula
from triarea.census import UNIT_AREA, census, facial_triangle_count, per_line_counts
from triarea.constructions import (
    hexgrid,
    param_line,
    pentagon,
    random_arrangement,
    random_general_position,
    scale,
    scale_to_unit_min,
    st_extremal,
    trigrid,
)
from triarea.scalars import QuadExt, exact_sign

# published small-case facial counts, n = 3..12
TABLE_HEX = [1, 2, 3, 6, 7, 10, 13, 16, 19, 24]
TABLE_TRI = [0, 1, 2, 4, 6, 8, 12, 14, 18, 22]


def test_hexgrid_small_table():
    for n, want in zip(range(3, 13), TABLE_HEX):
        assert facial_triangle_count(hexgrid(n)) == want
        assert hexgrid_facial_formula(n) == want


def test_trigrid_small_table():
    for n, want in zip(range(3, 13), TABLE_TRI):
        assert facial_triangle_count(trigrid(n)) == want


def test_trigrid_formula_quirk_at_4():
    # construction and table agree on 1; the closed form gives 0
    assert facial_triangle_count(trigrid(4)) == 1
    assert trigrid_facial_formula(4) == 0
    for n in range(3, 13):
        if n != 4:
            assert trigrid_facial_formula(n) == facial_triangle_count(trigrid(n))


@pytest.mark.parametrize("n", list(range(13, 41, 9)) + [60])
def test_grid_formulas_midrange(n):
    assert facial_triangle_count(hexgrid(n)) == hexgrid_facial_formula(n)
    assert facial_triangle_count(trigrid(n)) == trigrid_facial_formula(n)


@pytest.mark.parametrize("n", [200, 500, 1000])
def test_grid_formulas_at_scale(n):
    for grid, formula in ((hexgrid, hexgrid_facial_formula), (trigrid, trigrid_facial_formula)):
        faces = facial_triangle_count(grid(n))
        assert faces == formula(n)
        assert faces <= kobon_bound(n)


def test_hexgrid_structure():
    arr = hexgrid(10)
    assert arr.n == 10
    assert len(arr.parallel_classes()) == 3
    assert not arr.concurrent_triples()


def test_trigrid_center_concurrency():
    arr = trigrid(9)  # n = 3 mod 6 has three lines through the origin
    assert arr.n == 9
    triples = arr.concurrent_triples()
    assert len(triples) >= 1


def test_pentagon_census():
    arr = pentagon()
    assert arr.n == 5
    assert not arr.has_parallel_pair()
    assert not arr.concurrent_triples()
    cen = census(arr)
    assert cen.proper_count == 10
    assert cen.distinct_count == 2
    small = Fraction(5, 8)
    big = QuadExt(Fraction(5, 4), Fraction(5, 8), Fraction(5))
    assert cen.count(small) == 5
    assert cen.count(big) == 5
    assert exact_sign(cen.max_area - big) == 0


@pytest.mark.parametrize("k,want", [(1, 1), (2, 16), (3, 81)])
def test_st_extremal_unit_bound(k, want):
    arr, ell = st_extremal(k)
    assert arr.lines[-1] == ell
    counts = per_line_counts(arr, UNIT_AREA)
    assert counts[-1] >= want


def test_st_extremal_oracle_small():
    """Unit triangles on ell correspond to curve-point/line incidences."""
    k = 2
    arr, ell = st_extremal(k)
    idx = arr.n - 1
    count = 0
    for i, j in combinations(range(arr.n - 1), 2):
        area, status = triple_area(ell, arr.lines[i], arr.lines[j])
        if status == PROPER and area == 1:
            count += 1
    counts = per_line_counts(arr, UNIT_AREA)
    assert counts[idx] == count


def test_param_line_frame_parameters():
    # param_line(x0, y0) crosses the x-axis at x0 with cotangent y0
    from triarea.arrangement import frame_params, Line

    x0, y0 = Fraction(3), Fraction(7, 2)
    line = param_line(x0, y0)
    assert exact_sign(line.evaluate((x0, Fraction(0)))) == 0
    axis = Line(Fraction(0), Fraction(1), Fraction(0))
    (fp,) = frame_params(axis, [line])
    assert fp.x == x0
    assert fp.y == y0


def test_scale_multiplies_areas():
    arr = random_arrangement(7, seed=4)
    cen = census(arr)
    doubled = scale(arr, 2)
    cen2 = census(doubled)
    assert cen2.count(cen.min_area * 4) == cen.min_area_count
    assert exact_sign(cen2.max_area - cen.max_area * 4) == 0


def test_scale_to_unit_min():
    for seed in (0, 5):
        arr = random_arrangement(8, seed=seed)
        unit = scale_to_unit_min(arr)
        cen = census(unit)
        assert cen.min_area == 1
    arr = scale_to_unit_min(hexgrid(9))
    assert census(arr).min_area == 1


def test_random_arrangement_deterministic():
    a = random_arrangement(9, seed=11)
    b = random_arrangement(9, seed=11)
    assert a == b
    c = random_arrangement(9, seed=12)
    assert a != c


def test_random_general_position_properties():
    arr = random_general_position(12, seed=3)
    assert not arr.has_parallel_pair()
    assert not arr.concurrent_triples()
    cen = census(arr)
    assert cen.parallel_count == 0
    assert cen.concurrent_count == 0


# sha256 of to_text(), recorded with the pairwise Fraction concurrency test
# that the integer vertex arrays replaced; the bounds beyond 2^62 run the
# Python-int path, and the tight ones reject many concurrent candidates
GENERAL_POSITION_SHA256 = [
    ((12, 0), {}, "59bed4b9cb7883702c88fcb0c6445bfad48ddabe793ea5eac5683eff272248a9"),
    ((30, 1), {}, "c139818e926b22c24ee661876d6332f2d8c823aa68c3b2c92cf75eba54b3909d"),
    ((60, 2), {}, "30f14a962cf6a4f40056635ab66426aae2c3d96ddcd94be81b4fe75f8aafe91d"),
    ((100, 0), {}, "f486649c9628af9127d4af1a8edebd2f92a6a12cad679f1e2a20dbf65c72c7fa"),
    ((20, 4), {"coeff_bound": 5, "offset_bound": 6},
     "41c046fa4a815e36c05e1e3d7e6131996e95a1720d3264cbc12859baec44412b"),
    ((25, 7), {"coeff_bound": 10**12, "offset_bound": 10**15},
     "83e27cdc0032a8e7d215a6d2725240837312c85ac67c527a5b7bf69c22e8fdb8"),
    ((40, 3), {"coeff_bound": 2**40, "offset_bound": 3},
     "6de2f183d463a909531f8a485c5df18e500fafface8bde5fe8d65d091c4afaca"),
]


@pytest.mark.parametrize(
    "args,bounds,digest",
    GENERAL_POSITION_SHA256,
    ids=[f"n{n}-seed{seed}" for (n, seed), _, _ in GENERAL_POSITION_SHA256],
)
def test_random_general_position_pinned(args, bounds, digest):
    arr = random_general_position(*args, **bounds)
    assert hashlib.sha256(arr.to_text().encode()).hexdigest() == digest


def test_random_general_position_tight_bounds():
    arr = random_general_position(20, seed=4, coeff_bound=5, offset_bound=6)
    assert not arr.has_parallel_pair()
    assert not arr.concurrent_triples()


def test_scale_to_unit_min_needs_no_census_table(monkeypatch):
    # the minimum area alone is read, so the census builds no table: it runs
    # with memory for one block, short of the table by a byte
    arr = hexgrid(40)
    m = census(arr).min_area
    want = Arrangement([Line(line.a * m, line.b, line.c) for line in arr.lines])
    census_module = sys.modules["triarea.census"]
    triples = comb(40, 3)
    need = 4 * triples + census_module.BLOCK_BYTES_PER_TRIPLE * min(triples, census_module.BLOCK_TRIPLES)
    monkeypatch.setattr(census_module, "available_memory", lambda: need - 1)
    with pytest.raises(census_module.CensusMemoryError):
        census(arr)
    scaled = scale_to_unit_min(arr)
    assert scaled.to_text() == want.to_text()
    assert hashlib.sha256(scaled.to_text().encode()).hexdigest() == \
        "d27035edbea5872dc8917264eed42f93f00a49a845441181a94d79cc692f1ce8"
    assert census(scaled, table=False).min_area == 1
