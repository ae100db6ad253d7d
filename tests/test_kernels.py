"""Integer kernel tests: agreement with the exact census, triple ranks, the
crossing order and the int64 safety gate."""

import importlib
import random
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest

from triarea import _kernels
from triarea.arrangement import CONCURRENT, PROPER, Arrangement, Line, area_from_weights
from triarea.census import (
    census,
    facial_triangles,
    ring_coefficients,
    select_backend,
)
from triarea.constructions import hexgrid, random_arrangement, random_general_position, trigrid
from triarea.scalars import QuadExt

from test_census import oracle_facial_triangles

census_module = importlib.import_module("triarea.census")


def _coeffs(arr):
    """The rational coefficient matrix as int64 columns, whether or not it
    passes the int64 gate (astype raises past 2^63)."""
    assert arr.radicand is None
    return ring_coefficients(arr).astype(np.int64)


def test_census_kernels_agree():
    for seed in (0, 3, 11):
        arr = random_arrangement(14, seed=seed)
        coeffs = _coeffs(arr)
        num, den, _, _ = _kernels.census_int64(coeffs)
        assert np.all(np.gcd(num, den) == 1)
        fast, exact = census(arr, backend="numpy"), census(arr, backend="exact")
        assert np.array_equal(fast.class_ids, exact.class_ids)
        assert fast.areas == exact.areas


@pytest.mark.parametrize("n", range(13))
def test_combo_rank_inverts_combo_index_arrays(n):
    cols = _kernels.combo_index_arrays(n)
    every = np.arange(len(cols[0]))
    for perm in permutations(cols):
        assert np.array_equal(_kernels.combo_rank(n, *perm), every)
    if n >= 3:
        # scalar columns give the rank of one triple
        assert int(_kernels.combo_rank(n, n - 1, 0, 1)) == n - 3
        assert int(_kernels.combo_rank(n, n - 1, n - 2, n - 3)) == len(every) - 1


NC = _kernels.NO_CROSSING


def test_crossing_order_repairs_float_ties():
    # inside the int64 gate distinct crossings always get distinct float
    # keys; these coefficients are outside it, so that on y = 0 the crossings
    # x = 2^53 and x = 2^53 + 1 share a float key and the stable sort leaves
    # them in index order, which the exact check must repair (likewise on
    # x + y = 0).  Line i = (a, b, c) puts its crossing (x, y) at a*y - b*x.
    big = 2**53
    arr = Arrangement(
        [Line(0, 1, 0), Line(1, 0, -big), Line(1, 0, -big - 1), Line(1, 1, 0), Line(1, -1, 3)]
    )
    want = [
        [NC, 1, 0, 2, 3],  # -x: -2^53, -2^53 - 1, 0, 3
        [1, NC, NC, 0, 2],  # y: 0, -2^53, 2^53 + 3
        [1, NC, NC, 0, 2],  # y: 0, -2^53 - 1, 2^53 + 4
        [2, 1, 0, NC, 3],  # y - x: 0, -2^54, -2^54 - 2, 3
        [0, 2, 3, 1, NC],  # y + x: -3, 2^54 + 3, 2^54 + 5, 0
    ]
    coeffs = _coeffs(arr)
    assert not _kernels.int64_safe(coeffs)
    faces = oracle_facial_triangles(arr)
    assert facial_triangles(arr, backend="exact") == faces
    for cols in (coeffs, coeffs.astype(object)):
        ranks = _kernels.crossing_ranks(cols)
        assert ranks.tolist() == want
        assert [tuple(f) for f in _kernels.faces_from_ranks(ranks).tolist()] == faces


@pytest.mark.parametrize("arr", [hexgrid(30), trigrid(31), random_arrangement(40, seed=3)], ids=["hex", "tri", "random"])
def test_object_columns_rank_like_int64(arr):
    coeffs = _coeffs(arr)
    assert _kernels.int64_safe(coeffs)
    assert np.array_equal(_kernels.crossing_ranks(ring_coefficients(arr)), _kernels.crossing_ranks(coeffs))


def _count_exact_orders(monkeypatch):
    calls = []
    exact_order = _kernels._exact_order
    monkeypatch.setattr(_kernels, "_exact_order", lambda *row: calls.append(0) or exact_order(*row))
    return calls


def test_tower_crossing_order_reaches_the_exact_sort(monkeypatch):
    # x = 2^53 + sqrt 5 - 2 and x = 2^53 cross x - y = 0 at parameters
    # 2x that round to one float; listed larger first, the stable sort
    # misorders them and only the exact re-sort repairs the row
    big = 2**53
    root5 = QuadExt(Fraction(0), Fraction(1), Fraction(5))
    arr = Arrangement(
        [Line(1, 0, -(big - 2 + root5)), Line(1, 0, -big), Line(0, 1, 0), Line(1, -1, 0), Line(1, 1, -3)]
    )
    assert arr.radicand is not None
    calls = _count_exact_orders(monkeypatch)
    ranks = _kernels.crossing_ranks(ring_coefficients(arr))
    assert calls
    assert ranks[3].tolist() == [3, 2, 0, NC, 1]  # 2x: 2^54 + 2*sqrt 5 - 4, 2^54, 0, 3
    assert facial_triangles(arr) == oracle_facial_triangles(arr)


def test_crossing_keys_past_the_float_range_take_the_exact_sort(monkeypatch):
    # x - y + 3 = 0 meets x = 10^400 at parameter 2x + 3, whose int / int
    # would raise OverflowError; its saturated key is inf, like that of the
    # parallel x - y = 0 listed before it, so only the exact sort ranks it
    # after the crossings at -3 (y = 0) and 0 (x + y = 0)
    big = 10**400
    arr = Arrangement([Line(0, 1, 0), Line(1, -1, 3), Line(1, -1, 0), Line(1, 0, -big), Line(1, 1, 0)])
    assert select_backend(arr) == "exact"
    calls = _count_exact_orders(monkeypatch)
    ranks = _kernels.crossing_ranks(ring_coefficients(arr))
    assert calls
    assert ranks[1].tolist() == [0, NC, NC, 2, 1]
    assert facial_triangles(arr) == oracle_facial_triangles(arr)


def test_status_codes_match_exact():
    arr = hexgrid(8)  # three parallel families
    coeffs = _coeffs(arr)
    _, _, conc, pos = _kernels.census_int64(coeffs)
    cen = census(arr, backend="exact")
    assert len(conc) == cen.concurrent_count
    assert cen.total_triples - len(pos) - len(conc) == cen.parallel_count


def _kernel_reference(coeffs, pairs=None):
    """What census_int64 must return for these pairs (all of them when
    None, else a subset in lexicographic order): the positions of the
    proper triples, their reduced exact areas and the positions of the
    concurrent triples, walking every triple in lexicographic order and
    taking each area from the exact area_from_weights."""
    n = len(coeffs)
    a, b, c = ([Fraction(int(x)) for x in coeffs[:, m]] for m in range(3))

    def w(p, q):
        return a[p] * b[q] - a[q] * b[p]

    chosen = None if pairs is None else set(zip(*(x.tolist() for x in pairs)))
    pos, areas, conc = [], [], []
    at = 0  # the position among the chosen pairs' triples
    for i, j, k in zip(*(x.tolist() for x in _kernels.combo_index_arrays(n))):
        if chosen is not None and (i, j) not in chosen:
            continue
        area, status = area_from_weights(c[i], c[j], c[k], w(i, j), w(i, k), w(j, k))
        if status == PROPER:
            pos.append(at)
            areas.append((area.numerator, area.denominator))
        elif status == CONCURRENT:
            conc.append(at)
        at += 1
    return pos, areas, conc


def _shuffled(lines, seed=0):
    lines = list(lines)
    random.Random(seed).shuffle(lines)
    return Arrangement(lines)


PARALLEL_FREE = random_arrangement(12, seed=4)
# inputs whose direction classes third_lines splits off, in shuffled order:
# three large classes and lines of directions of their own, so that both
# kinds of third line meet in one pair's run; many classes of mixed sizes,
# the small ones left with the rest; one class holding all lines but two
SPLIT_CASES = {
    "three-classes-and-singletons": _shuffled(
        [Line(a, b, c) for a, b in ((1, 0), (0, 1), (1, 1)) for c in range(-3, 4)]
        + [Line(1, s, 2 * s - 1) for s in (2, 3, -2, 5, -3)]
    ),
    "mid-size-classes": _shuffled(random_arrangement(40, seed=3, coeff_bound=3).lines),
    "all-but-two-parallel": _shuffled([Line(1, 2, c) for c in range(10)] + [Line(1, 0, 0), Line(0, 1, 3)]),
}
KERNEL_CASES = {
    "hexgrid8": hexgrid(8),
    "trigrid9": trigrid(9),
    "random": PARALLEL_FREE,
    "all-parallel": Arrangement([Line(1, 1, c) for c in range(6)]),
    "all-concurrent": Arrangement([Line(a, b, 0) for a, b in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))]),
    **SPLIT_CASES,
}


def _assert_kernel_matches(coeffs, pairs=None):
    # with every k > j as third line, and with the third lines by direction
    third = _kernels.third_lines(_kernels.pair_weights(coeffs))
    want_pos, want_areas, want_conc = _kernel_reference(coeffs, pairs)
    for lines in (None, third):
        num, den, conc, pos = _kernels.census_int64(coeffs, pairs, None, lines)
        assert all(x.dtype == np.int64 for x in (num, den, conc, pos))
        assert np.all(np.diff(pos) > 0)
        assert pos.tolist() == want_pos
        assert list(zip(num.tolist(), den.tolist())) == want_areas
        assert conc.tolist() == want_conc
    return len(pos)


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernel_matches_exact_walk(name):
    # every triple, then runs of consecutive pairs starting at each third
    coeffs = _coeffs(KERNEL_CASES[name])
    _assert_kernel_matches(coeffs)
    i, j = np.triu_indices(len(coeffs), k=1)
    for p0 in range(0, len(i), max(1, len(i) // 3)):
        _assert_kernel_matches(coeffs, (i[p0 : p0 + 9], j[p0 : p0 + 9]))


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_directions_match_exact_census_in_small_blocks(name, monkeypatch):
    arr = SPLIT_CASES[name]
    assert _kernels.third_lines(_kernels.pair_weights(_coeffs(arr))) is not None
    exact = census(arr, backend="exact")
    monkeypatch.setattr(census_module, "BLOCK_TRIPLES", 24)
    fast = census(arr, backend="numpy")
    assert np.array_equal(fast.class_ids, exact.class_ids)
    assert (fast.parallel_count, fast.concurrent_count, fast.class_counts) == (
        exact.parallel_count,
        exact.concurrent_count,
        exact.class_counts,
    )
    assert fast.areas == exact.areas


def _census_rows(arr):
    """The rows the census kernel expands over the whole census of arr."""
    rows, runs = [], _kernels._runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_runs", lambda *args: rows.append(int(args[0].sum())) or runs(*args))
        census(arr)
    return sum(rows)


@pytest.mark.parametrize("grid", [hexgrid, trigrid])
def test_grids_expand_only_mixed_direction_triples(grid, monkeypatch):
    # the kagome and the triangular grid of facial-grid's size: 50 lines in
    # each of three directions, in shuffled order; only the 50^3 triples with
    # a line of each direction are expanded, not every triple of a crossing
    # pair as without the split
    arr = _shuffled(grid(150).lines, seed=1)
    coeffs = _coeffs(arr)
    weights = _kernels.pair_weights(coeffs)
    assert np.bincount(np.argmax(weights == 0, axis=1)).max() == 50
    assert _census_rows(arr) == 125_000
    i, j = np.triu_indices(len(coeffs), k=1)
    crossing = int(((len(coeffs) - 1 - j) * (weights[i, j] != 0)).sum())
    monkeypatch.setattr(_kernels, "third_lines", lambda weights: None)
    assert _census_rows(arr) == crossing == 370_576


def test_parallel_free_input_expands_every_triple():
    arr = random_general_position(40, seed=5)
    coeffs = _coeffs(arr)
    assert _kernels.int64_safe(coeffs)
    assert _kernels.third_lines(_kernels.pair_weights(coeffs)) is None
    assert _census_rows(arr) == comb(40, 3)


def test_kernel_on_only_parallel_pairs_and_on_no_parallel_pair():
    # a run made only of parallel pairs has no triple to return
    coeffs = _coeffs(hexgrid(8))
    weights = _kernels.pair_weights(coeffs)
    i, j = np.triu_indices(len(coeffs), k=1)
    parallel = weights[i, j] == 0
    assert parallel.any()
    assert _assert_kernel_matches(coeffs, (i[parallel], j[parallel])) == 0
    assert all(len(x) == 0 for x in _kernels.census_int64(coeffs, (i[parallel], j[parallel])))
    # with no parallel pair nothing is dropped before the determinant, and
    # the positions are the triples' indices where no triple is concurrent
    coeffs = _coeffs(PARALLEL_FREE)
    weights = _kernels.pair_weights(coeffs)
    assert np.count_nonzero(weights) == len(coeffs) * (len(coeffs) - 1)
    assert _assert_kernel_matches(coeffs) + len(_kernels.census_int64(coeffs)[2]) == comb(len(coeffs), 3)


def test_int64_gate_rejects_huge_coefficients():
    huge = np.array(
        [[2**22, 1, 1], [1, 2**22, 3], [5, 7, 2**40]], dtype=np.int64
    )
    assert not _kernels.int64_safe(huge)
    small = np.array([[3, 2, 1], [1, -4, 2], [0, 1, 5]], dtype=np.int64)
    assert _kernels.int64_safe(small)


def test_gate_forces_exact_backend():
    arr = random_arrangement(8, seed=2, coeff_bound=40, offset_bound=400)
    assert select_backend(arr, "auto") == "numpy"
    from triarea.constructions import scale

    blown = scale(arr, 2**45)
    assert select_backend(blown, "auto") == "exact"
    assert census(arr).area_counts != {}


# the largest C with 48*A^4*C^2 < 2^62 at A = 1; the gate's value cannot
# equal 2^62 (3 does not divide it), so C + 1 is the first value past it
GATE_EDGE = 309_962_565


@pytest.mark.parametrize("c", [GATE_EDGE, GATE_EDGE + 1, 2**63, 2**64 + 1])
def test_int64_gate_edge(c):
    # x = 0, y = 0, y = 1, x - y + 1 = 0 and x + y = c: A = 1 and C = c
    arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(0, 1, -1), Line(1, -1, 1), Line(1, 1, -c)])
    inside = 48 * c**2 < 2**62
    assert _kernels.int64_safe(ring_coefficients(arr)) == inside
    exact = census(arr, "exact")
    if inside:
        assert select_backend(arr) == "numpy"
        fast = census(arr)
        assert fast.backend == "numpy"
        assert np.array_equal(fast.class_ids, exact.class_ids)
        assert fast.sorted_items() == exact.sorted_items()
        assert (fast.concurrent_count, fast.parallel_count) == (exact.concurrent_count, exact.parallel_count)
    else:
        # past the gate no int64 cast is made, even where it would overflow
        assert select_backend(arr) == "exact"
        with pytest.raises(ValueError, match="int64-safe"):
            census(arr, "numpy")
        assert census(arr).sorted_items() == exact.sorted_items()
    assert facial_triangles(arr) == facial_triangles(arr, "exact") == oracle_facial_triangles(arr)


def test_select_backend_rejects_unknown_names():
    arr = random_arrangement(6, seed=1)
    for name in ("numba", "fast"):
        with pytest.raises(ValueError, match="unknown backend"):
            select_backend(arr, name)
