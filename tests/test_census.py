"""Census tests against an independent brute-force oracle."""

import importlib
import io
import json
import os
import re
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triarea import _kernels
from triarea.arrangement import AffineMap, Arrangement, Line, intersect
from triarea.census import (
    BLOCK_BYTES_PER_TRIPLE,
    PARALLEL_ID,
    BUFFER_BYTES_PER_CLASS,
    UNIT_AREA,
    AreaCensus,
    CensusMemoryError,
    census,
    facial_triangle_count,
    facial_triangles,
    per_line_counts,
    select_backend,
    triples_with_area,
    unit_count_by_frame_identity,
)
from triarea.chain import max_chain
from triarea.cli import EXIT_OK, _census_json, main
from triarea.constructions import (
    hexgrid,
    pentagon,
    random_arrangement,
    st_extremal,
    trigrid,
)
from triarea.scalars import DEFAULT_PRECISION_BITS, QuadExt, _bounds, exact_sign, format_scalar

census_module = importlib.import_module("triarea.census")


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


def _count_matrix_work(monkeypatch):
    """Counts of coefficient-matrix builds (census._ring_matrix, the one
    builder) and of int64 gate checks."""
    counts = Counter()
    build, gate = census_module._ring_matrix, _kernels.int64_safe
    monkeypatch.setattr(census_module, "_ring_matrix", lambda arr: counts.update(["build"]) or build(arr))
    monkeypatch.setattr(_kernels, "int64_safe", lambda m: counts.update(["gate"]) or gate(m))
    return counts


@pytest.mark.parametrize("backend", ["auto", "numpy", "exact"])
def test_coefficient_matrix_built_once_per_arrangement(monkeypatch, backend):
    # the census, the facial test and the backend check share one matrix
    # and one gate decision; a forced exact backend never asks the gate
    arr = hexgrid(8)
    counts = _count_matrix_work(monkeypatch)
    want = "exact" if backend == "exact" else "numpy"
    assert census(arr, backend).backend == want
    facial_triangles(arr, backend)
    assert select_backend(arr, backend) == want
    assert (counts["build"], counts["gate"]) == (1, 0 if backend == "exact" else 1)


# one input per kind of arrangement, with the int64 gate checks each should see
MATRIX_CASES = {
    "grid": (lambda: hexgrid(12), 1),
    "past_gate": (lambda: random_arrangement(12, seed=1, coeff_bound=10**6, offset_bound=10**7), 1),
    "tower": (lambda: max_chain(1), 0),
}


@pytest.mark.parametrize("argv", [["census", "--facial", "--json"], ["verify", "bounds", "--json"]], ids=" ".join)
@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_one_coefficient_matrix_and_gate_check_per_arrangement(monkeypatch, tmp_path, capsys, argv, case):
    # the census, the facial test and the bound checks share one matrix,
    # whichever module reads it, and towers never reach the gate
    make, gates = MATRIX_CASES[case]
    path = tmp_path / "in.lines"
    path.write_text(make().to_text())
    counts = _count_matrix_work(monkeypatch)
    assert main(argv + [str(path)]) == EXIT_OK
    capsys.readouterr()
    assert (counts["build"], counts["gate"]) == (1, gates)


@pytest.mark.parametrize("arr", [hexgrid(6), pentagon()], ids=["grid", "tower"])
def test_cached_coefficient_matrices_are_read_only(arr):
    ring = census_module.ring_coefficients(arr)
    assert census_module.ring_coefficients(arr) is ring
    cached = [ring]
    if select_backend(arr) == "numpy":
        cached.append(census_module._int64_coefficients(arr))
        assert cached[1] is census_module._int64_coefficients(arr)
        assert cached[1].dtype == np.int64 and np.array_equal(cached[1], ring)
    for m in cached:
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 7
    assert census(arr).backend == select_backend(arr)


@pytest.mark.parametrize("backend", ["auto", "exact"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_fewer_than_three_lines(n, backend):
    arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0)][:n])
    cen = census(arr, backend=backend)
    assert (cen.n, cen.total_triples, cen.distinct_count) == (n, 0, 0)
    assert cen.sorted_items() == [] and cen.min_area is None
    assert facial_triangles(arr, backend=backend) == []


def _area_list(cen):
    """The (area, count) rows that `census --json` writes from this census."""
    areas = json.loads(_census_json({"results": {}}, cen))["results"]["areas"]
    return [(row["area"], row["count"]) for row in areas]


# (num, den) pairs whose float64 keys tie (2^53 and 2^53 + 1) or misorder
# (the smaller ratio gets the larger key)
FLOAT_KEY_TRAPS = [((2**53, 1), (2**53 + 1, 1)), ((19 * 2**53 + 48, 19), (16 * 2**53 + 43, 16))]


@pytest.mark.parametrize("small, large", FLOAT_KEY_TRAPS)
@pytest.mark.parametrize("flip", [False, True])
def test_class_order_repairs_float_keys(small, large, flip):
    first, second = (large, small) if flip else (small, large)
    ids = np.array([0, 1, PARALLEL_ID, 1], dtype=np.int32)  # class 1 has two triples
    cen = AreaCensus(
        4,
        ids,
        "numpy",
        np.bincount(ids - PARALLEL_ID),
        num=np.array([first[0], second[0]], dtype=np.int64),
        den=np.array([first[1], second[1]], dtype=np.int64),
    )
    lo, hi = Fraction(*small), Fraction(*large)
    assert lo < hi
    assert (cen.min_area, cen.max_area) == (lo, hi)
    assert cen.sorted_items() == [(lo, 1 + flip), (hi, 2 - flip)]
    assert _area_list(cen) == [(str(lo), 1 + flip), (str(hi), 2 - flip)]


@pytest.mark.parametrize("flip", [False, True])
def test_tower_class_order_repairs_close_keys(flip):
    # sqrt 5 and the dyadic rational 2^-100 above it: their fixed-point
    # enclosures overlap and their float keys do not order them, so only the
    # exact comparison does; listed larger first, the sort must be redone
    root5 = QuadExt(Fraction(0), Fraction(1), Fraction(5))
    above = QuadExt(Fraction(isqrt(5 << 200) + 1, 1 << 100), Fraction(0), Fraction(5))
    assert root5 < above
    bits = DEFAULT_PRECISION_BITS
    (lo_r, hi_r), (lo_a, hi_a) = _bounds(root5, bits), _bounds(above, bits)
    assert lo_a <= hi_r and lo_r <= hi_a
    assert (lo_a + hi_a) / 2 ** (bits + 1) <= (lo_r + hi_r) / 2 ** (bits + 1)
    first, second = (root5, above) if flip else (above, root5)
    ids = np.array([0, 1, PARALLEL_ID, 1], dtype=np.int32)  # class 1 has two triples
    cen = AreaCensus(4, ids, "exact", np.bincount(ids - PARALLEL_ID), areas=[first, second])
    assert (cen.min_area, cen.max_area) == (root5, above)
    assert cen.sorted_items() == [(root5, 2 - flip), (above, 1 + flip)]
    assert _area_list(cen) == [(format_scalar(root5), 2 - flip), (format_scalar(above), 1 + flip)]


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
    assert _area_list(fast) == _area_list(exact)
    assert _area_list(exact) == [(format_scalar(a), c) for a, c in exact.sorted_items()]
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
        counts = per_line_counts(arr, area, cen=fast)
        assert counts == per_line_counts(arr, area, cen=exact)
        assert counts == [line_uses[i] for i in range(arr.n)]
        assert list(triples_with_area(arr, area, fast)) == want
        assert list(triples_with_area(arr, area, exact)) == want


TABLE_FIELDS = ("class_ids", "num", "den", "class_counts", "concurrent_count", "parallel_count")


def _block_census(arr, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "BLOCK_TRIPLES", block)
        return census(arr, backend="numpy")


def _assert_same_table(got, want, fields=TABLE_FIELDS):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def _assert_blocks_agree(arr, exact=True):
    # blocks of 1, 5 and 64 triples against one block, and the exact builder
    whole = _block_census(arr, comb(arr.n, 3) + 1)
    for block in (1, 5, 64):
        _assert_same_table(_block_census(arr, block), whole)
    if exact:
        ref = census(arr, backend="exact")
        assert np.array_equal(whole.class_ids, ref.class_ids)
        assert whole.areas == ref.areas
        for name in TABLE_FIELDS[3:]:
            assert getattr(whole, name) == getattr(ref, name)


@settings(max_examples=40, deadline=None)
@given(st.one_of(near_gate_arrangements(), small_grids()))
def test_block_builder_matches_exact_and_one_block(arr):
    _assert_blocks_agree(arr)


ALL_PARALLEL = [Line(1, 1, c) for c in range(6)]
ALL_CONCURRENT = [Line(a, b, 0) for a, b in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))]


@pytest.mark.parametrize(
    "lines",
    [[], ALL_PARALLEL[:1], ALL_PARALLEL[:2], [Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 1)], ALL_PARALLEL, ALL_CONCURRENT],
    ids=["n0", "n1", "n2", "n3", "all-parallel", "all-concurrent"],
)
def test_block_builder_small_and_degenerate(lines):
    _assert_blocks_agree(Arrangement(lines))


@pytest.mark.parametrize("grid, n", [(hexgrid, 12), (trigrid, 12), (hexgrid, 40), (trigrid, 45)])
def test_block_builder_on_grids(grid, n):
    _assert_blocks_agree(grid(n), exact=n <= 12)


def _census_json_bytes(arr, block=None, fold=None):
    """`census --json` of the arrangement, in blocks of ``block`` triples
    and with folds of at least ``fold`` waiting classes when given."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(census_module, "BLOCK_TRIPLES", block)
        if fold is not None:
            mp.setattr(census_module, "FOLD_ENTRIES", fold)
            mp.setattr(census_module, "FOLD_RATIO", 1)
        path = os.path.join(tmp, "arr.lines")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(arr.to_text())
        with redirect_stdout(io.StringIO()) as buf:
            assert main(["census", "--json", path]) == EXIT_OK
    return buf.getvalue()


def _assert_handed_order_certified(cen):
    # the class order handed over by the grouping sort, certified, equals
    # the order the same table sorts for itself, and the exact one
    own = AreaCensus(
        cen.n,
        cen.class_ids,
        cen.backend,
        np.array([cen.parallel_count, cen.concurrent_count, *cen.class_counts]),
        num=cen.num,
        den=cen.den,
    )
    assert own._key_order is None
    assert np.array_equal(cen._order, own._order)
    exact = sorted(range(cen.distinct_count), key=lambda c: Fraction(int(cen.num[c]), int(cen.den[c])))
    assert cen._order.tolist() == exact
    assert cen._key_order is None or cen._order is cen._key_order  # no second sort
    assert _area_list(cen) == _area_list(own)


random_arrangements = st.builds(random_arrangement, st.integers(3, 14), seed=st.integers(0, 99))


@settings(max_examples=40, deadline=None)
@given(st.one_of(near_gate_arrangements(), small_grids(), random_arrangements))
def test_handed_class_order_matches_own_sort(arr):
    # with the default blocks (one block here) and with blocks of 24
    # triples, whose classes are merged
    assume(arr.n >= 3)
    whole, blocks = census(arr, backend="numpy"), _block_census(arr, 24)
    for cen in (whole, blocks):
        _assert_handed_order_certified(cen)
    _assert_same_table(blocks, whole)
    assert np.array_equal(blocks._order, whole._order)
    assert _census_json_bytes(arr, 24) == _census_json_bytes(arr)


def _split_census(arr, block, fold, table):
    # blocks of ``block`` triples; with ``fold`` given, folds once the waiting
    # classes reach both the set's and ``fold``, so that folds fall mid-census
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "BLOCK_TRIPLES", block)
        if fold is not None:
            mp.setattr(census_module, "FOLD_ENTRIES", fold)
            mp.setattr(census_module, "FOLD_RATIO", 1)
        return census(arr, backend="numpy", table=table)


def _assert_splits_agree(arr, blocks=(1, 5, 24, 64)):
    # every split of the census into blocks and folds, with and without its
    # table, against one block with its table: every field, the class order
    # and the `census --json` bytes
    whole = _block_census(arr, comb(arr.n, 3) + 1)
    want_json = _census_json_bytes(arr)
    for block in blocks:
        for fold in (None, 0, 3):
            full, free = (_split_census(arr, block, fold, table) for table in (True, False))
            _assert_same_table(full, whole)
            assert free.class_ids is None
            for name in TABLE_FIELDS[1:]:
                assert getattr(free, name) == getattr(whole, name) if name.endswith("count") else \
                    np.array_equal(getattr(free, name), getattr(whole, name)), name
            assert (free.proper_count, free.total_triples) == (whole.proper_count, whole.total_triples)
            assert np.array_equal(full._order, whole._order) and np.array_equal(free._order, whole._order)
            assert _census_json_bytes(arr, block, fold) == want_json


RATIONAL_CASES = [arr for arr in CASES if arr.radicand is None]


@pytest.mark.parametrize("arr", [*RATIONAL_CASES, hexgrid(12), trigrid(12)], ids=lambda a: f"n{a.n}")
def test_table_free_census_and_folds_match_one_block(arr):
    _assert_splits_agree(arr)


@settings(max_examples=30, deadline=None)
@given(st.one_of(near_gate_arrangements(), small_grids()))
def test_table_free_census_and_folds_match_one_block_near_the_gate(arr):
    assume(arr.n >= 3)
    _assert_splits_agree(arr, blocks=(1, 5, 24))


def test_table_free_census_reads_counts_and_refuses_table_reads():
    arr = hexgrid(12)
    full, free = census(arr), census(arr, table=False)
    assert free.class_ids is None and full.class_ids is not None
    assert (free.total_triples, free.proper_count) == (comb(12, 3), sum(full.class_counts))
    assert free.proper_count == full.proper_count == full.total_triples - full.parallel_count - full.concurrent_count
    for read in (lambda: free.triples(free.max_area), lambda: per_line_counts(arr, free.max_area, cen=free),
                 lambda: list(triples_with_area(arr, free.max_area, free)), free.table):
        with pytest.raises(ValueError, match="table=False"):
            read()
    # the exact builder keeps its table: its arithmetic per triple dwarfs it
    assert census(pentagon(), table=False).class_ids is not None


DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)]


@st.composite
def few_direction_arrangements(draw):
    # 2 to 4 directions, each with a line through the origin, so that three
    # directions force concurrent triples; at least 27 lines with the first
    # two parallel, so that with blocks of 24 triples the first block is
    # the pair (0, 1) alone and holds no proper triple
    dirs = draw(st.lists(st.sampled_from(DIRECTIONS), min_size=2, max_size=4, unique=True))
    size = -(-27 // len(dirs))
    lines = []
    for a, b in dirs:
        offsets = draw(st.lists(st.integers(-12, 12).filter(bool), min_size=size - 1, max_size=size + 2, unique=True))
        lines += [Line(a, b, c) for c in [0, *offsets]]
    return Arrangement(lines)


def _census_facial_json(arr, backend):
    """`census --facial --json` of the arrangement with the given backend."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arr.lines")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(arr.to_text())
        with redirect_stdout(io.StringIO()) as buf:
            assert main(["census", "--facial", "--json", "--backend", backend, path]) == EXIT_OK
    return buf.getvalue()


@settings(max_examples=25, deadline=None)
@given(few_direction_arrangements())
def test_blocks_without_proper_triples_match_exact(arr):
    kernel, proper = _kernels.census_int64, []

    def counting(*args):
        out = kernel(*args)
        proper.append(len(out[-1]))
        return out

    exact = census(arr, backend="exact")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census_module, "BLOCK_TRIPLES", 24)
        mp.setattr(_kernels, "census_int64", counting)
        fast = census(arr, backend="numpy")
        assert proper[0] == 0 and sum(proper) == exact.proper_count
        assert fast.class_ids.dtype == np.int32 and np.array_equal(fast.class_ids, exact.class_ids)
        assert (fast.parallel_count, fast.concurrent_count, fast.class_counts) == (
            exact.parallel_count,
            exact.concurrent_count,
            exact.class_counts,
        )
        assert fast.areas == exact.areas
        assert np.array_equal(fast._order, exact._order)
        fast_json = _census_facial_json(arr, "numpy")
    assert fast_json.count('"backend": "numpy"') == 1
    assert fast_json.replace('"backend": "numpy"', '"backend": "exact"') == _census_facial_json(arr, "exact")


@pytest.mark.parametrize("block", [None, 24])
def test_grouping_hands_over_the_class_order(block):
    # random lines never tie on the float keys: the census keeps the order
    # of its last grouping sort and does not sort again
    arr = random_arrangement(14, seed=2)
    cen = census(arr, backend="numpy") if block is None else _block_census(arr, block)
    assert cen._key_order is not None and len(cen._key_order) == cen.distinct_count
    _assert_handed_order_certified(cen)


# classes whose float64 keys tie: 2^53 and 2^53 + 1
TIE, TIE1 = (2**53, 1), (2**53 + 1, 1)


@pytest.mark.parametrize(
    "areas",
    [
        [TIE, TIE1, TIE1, TIE],  # a tie inside each block, and across the two
        [TIE, (5, 1), TIE1, (5, 1)],  # a tie only across the blocks
    ],
)
def test_group_certifies_float_ties(monkeypatch, areas):
    # four lines have four triples; with blocks of two triples they fall in
    # two blocks, and a stand-in kernel gives each triple its area above
    arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 1), Line(1, 2, 5)])

    def kernel(coeffs, pairs, weights, third):
        assert third is None  # no two of the four lines are parallel
        ranks = _kernels.combo_rank(len(coeffs), *_kernels.pair_triples(len(coeffs), pairs[1], *pairs))
        num, den = np.array(areas, dtype=np.int64)[ranks].T
        every = np.ones(len(ranks), dtype=bool)
        return _kernels.CensusRows(np.zeros(1, np.int64), np.array([len(ranks)]), np.arange(len(ranks)),
                                   ~every, every, num.copy(), den.copy())

    monkeypatch.setattr(_kernels, "census_int64", kernel)
    monkeypatch.setattr(census_module, "BLOCK_TRIPLES", 2)
    cen = census(arr, backend="numpy")
    first = list(dict.fromkeys(areas))
    assert cen.class_ids.tolist() == [first.index(a) for a in areas]
    assert list(zip(cen.num.tolist(), cen.den.tolist())) == first
    assert cen.class_counts == [areas.count(a) for a in first]
    # without the table, and with a fold after each block, the same classes
    for fold in (None, 0):
        if fold is not None:
            monkeypatch.setattr(census_module, "FOLD_ENTRIES", fold)
        for table in (True, False):
            other = census(arr, backend="numpy", table=table)
            _assert_same_table(other, cen) if table else _assert_same_table(other, cen, TABLE_FIELDS[1:])
            assert other.sorted_items() == cen.sorted_items()
    ids, firsts, order = census_module._group(*np.array(areas, dtype=np.int64).T)
    assert ids.tolist() == [first.index(a) for a in areas]
    assert firsts.tolist() == [areas.index(a) for a in first]
    # the exact fallback hands over no class order, and the census still
    # orders its classes, by its own sort
    assert order is None and cen._key_order is None
    assert cen.sorted_items() == sorted((Fraction(*a), areas.count(a)) for a in first)


@pytest.mark.parametrize("backend", ["numpy", "exact"])
def test_memory_guard_refuses_before_allocating(monkeypatch, backend):
    # the table at 4 bytes a triple, and on the int64 path one block of
    # C(20,3) = 1140 triples
    arr = hexgrid(20)
    need = 4 * comb(20, 3) + (BLOCK_BYTES_PER_TRIPLE * comb(20, 3) if backend == "numpy" else 0)
    monkeypatch.setattr(census_module, "available_memory", lambda: need - 1)
    monkeypatch.setattr(census_module, "_classify_int64", None)  # never reached
    monkeypatch.setattr(census_module, "_classify_exact", None)
    with pytest.raises(CensusMemoryError, match=f"n=20 .*needs {need} bytes.*only {need - 1} bytes") as exc:
        census(arr, backend=backend)
    assert isinstance(exc.value, ValueError)
    monkeypatch.undo()
    for have in (need, None):  # enough memory, or none readable
        monkeypatch.setattr(census_module, "available_memory", lambda: have)
        assert census(arr, backend=backend).total_triples == comb(20, 3)


def test_memory_guard_counts_the_classes_it_holds(monkeypatch):
    # random lines give nearly every triple its own class: in blocks of 64
    # triples the classes grow by about 60 a block, and with room for the
    # table, one block and 500 classes the census is refused before the
    # block that would outgrow it: a fold of the waiting classes leaves
    # nearly as many
    arr = random_arrangement(20, seed=3)
    monkeypatch.setattr(census_module, "BLOCK_TRIPLES", 64)
    checks = []

    def have():
        checks.append(0)
        return 4 * comb(20, 3) + BLOCK_BYTES_PER_TRIPLE * 64 + 500 * BUFFER_BYTES_PER_CLASS

    monkeypatch.setattr(census_module, "available_memory", have)
    with pytest.raises(CensusMemoryError, match=r"n=20 .*\(up to \d+ class entries at \d+ bytes each after \d+ of 1140 triples\)") as exc:
        census(arr, backend="numpy")
    assert 500 < int(re.search(r"up to (\d+) class entries", str(exc.value))[1]) < 600
    assert len(checks) == 1
    # with room for the classes the census runs, reading the available
    # memory once per census and never per block
    checks.clear()
    monkeypatch.setattr(census_module, "available_memory", lambda: checks.append(0) or 10**9)
    assert census(arr, backend="numpy").distinct_count > 1000
    assert len(checks) == 1


@pytest.mark.parametrize("table", [True, False])
def test_memory_guard_folds_before_it_refuses(monkeypatch, table):
    # hexgrid(20) in blocks of 64 triples: 18 blocks hand over 108 block
    # classes of 9 areas, at most 9 a block.  With room for 20 entries
    # after the table and one block, the census finishes only by folding
    # the waiting classes whenever the next block's would not fit.
    arr = hexgrid(20)
    monkeypatch.setattr(census_module, "BLOCK_TRIPLES", 64)
    want = census(arr, backend="numpy")
    folds, fold = [], census_module._fold
    monkeypatch.setattr(census_module, "_fold", lambda *args: folds.append(args[1]) or fold(*args))
    checks = []

    def have():
        checks.append(0)
        return 4 * comb(20, 3) * table + BLOCK_BYTES_PER_TRIPLE * 64 + 20 * BUFFER_BYTES_PER_CLASS

    monkeypatch.setattr(census_module, "available_memory", have)
    cen = census(arr, backend="numpy", table=table)
    assert len(checks) == 1 and len(folds) > 2 and max(folds) <= 20
    _assert_same_table(cen, want, TABLE_FIELDS if table else TABLE_FIELDS[1:])
    assert np.array_equal(cen._order, want._order)


@pytest.mark.parametrize("arr, backend", [(hexgrid(30), "numpy"), (pentagon(), "exact")], ids=["int64", "objects"])
def test_facial_memory_guard_refuses_before_ranking(monkeypatch, arr, backend):
    # the crossing ranks' n x n arrays at their measured bytes per pair
    need = census_module.FACIAL_BYTES_PER_PAIR[backend == "exact"] * arr.n**2
    want = facial_triangles(arr)
    monkeypatch.setattr(census_module, "available_memory", lambda: need - 1)
    with monkeypatch.context() as mp:
        mp.setattr(_kernels, "crossing_ranks", None)  # never reached
        mp.setattr(_kernels, "facial_int64", None)
        with pytest.raises(CensusMemoryError, match=f"n={arr.n} .*needs {need} bytes .*line pairs.*only {need - 1} bytes"):
            facial_triangles(arr)
    monkeypatch.setattr(census_module, "available_memory", lambda: need)
    assert facial_triangles(arr) == want


def _fake_files(files):
    def fake_open(path, *args, **kwargs):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    return fake_open


@pytest.mark.parametrize(
    "files, want",
    [
        ({}, None),
        ({"/proc/meminfo": "MemTotal: 8000 kB\nMemAvailable: 5000 kB\n"}, 5000 * 1024),
        (
            {
                "/proc/meminfo": "MemAvailable: 5000 kB\n",
                "/proc/self/cgroup": "0::/jobs/one\n",
                "/sys/fs/cgroup/jobs/one/memory.max": "4096000\n",
                "/sys/fs/cgroup/jobs/one/memory.current": "1024000\n",
                "/sys/fs/cgroup/jobs/one/memory.stat": "anon 900000\nfile 124000\n",
            },
            3072000,
        ),
        (
            # at the limit, but mostly file page cache (shmem is not reclaimed)
            {
                "/proc/meminfo": "MemAvailable: 5000000 kB\n",
                "/proc/self/cgroup": "0::/jobs/one\n",
                "/sys/fs/cgroup/jobs/one/memory.max": "4096000\n",
                "/sys/fs/cgroup/jobs/one/memory.current": "4096000\n",
                "/sys/fs/cgroup/jobs/one/memory.stat": (
                    "anon 1000000\nfile 3096000\nshmem 96000\nactive_file 1000000\ninactive_file 2000000\n"
                ),
            },
            3000000,
        ),
        (
            {
                "/proc/meminfo": "MemAvailable: 5000 kB\n",
                "/proc/self/cgroup": "0::/\n",
                "/sys/fs/cgroup/memory.max": "max\n",
            },
            5000 * 1024,
        ),
        (
            {
                "/proc/self/cgroup": "0::/\n",
                "/sys/fs/cgroup/memory.max": "8192\n",
                "/sys/fs/cgroup/memory.current": "4096",
                "/sys/fs/cgroup/memory.stat": "anon 4096\n",
            },
            4096,
        ),
        (
            # cgroup v1: the memory controller's own line and mount
            {
                "/proc/meminfo": "MemAvailable: 5000 kB\n",
                "/proc/self/cgroup": "5:cpu,cpuacct:/other\n4:memory:/jobs/one\n1:name=systemd:/jobs\n",
                "/sys/fs/cgroup/memory/jobs/one/memory.limit_in_bytes": "4096000\n",
                "/sys/fs/cgroup/memory/jobs/one/memory.usage_in_bytes": "1024000\n",
                "/sys/fs/cgroup/memory/jobs/one/memory.stat": "cache 124000\nrss 900000\n",
            },
            3072000,
        ),
        (
            # v1 at the limit, mostly page cache: the hierarchical total_*
            # entries count, the cgroup's own active_file does not
            {
                "/proc/meminfo": "MemAvailable: 5000000 kB\n",
                "/proc/self/cgroup": "3:memory,hugetlb:/\n",
                "/sys/fs/cgroup/memory/memory.limit_in_bytes": "4096000\n",
                "/sys/fs/cgroup/memory/memory.usage_in_bytes": "4096000\n",
                "/sys/fs/cgroup/memory/memory.stat": (
                    "active_file 5\ninactive_file 7\ntotal_rss 1000000\n"
                    "total_active_file 1000000\ntotal_inactive_file 2000000\n"
                ),
            },
            3000000,
        ),
        (
            # v1 with no limit set reports the largest page-aligned count
            {
                "/proc/meminfo": "MemAvailable: 5000 kB\n",
                "/proc/self/cgroup": "4:memory:/\n",
                "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n",
                "/sys/fs/cgroup/memory/memory.usage_in_bytes": "4096\n",
                "/sys/fs/cgroup/memory/memory.stat": "total_rss 4096\n",
            },
            5000 * 1024,
        ),
        (
            # a hybrid host: the v2 line has no memory controller files, v1 does
            {
                "/proc/self/cgroup": "4:memory:/box\n0::/box\n",
                "/sys/fs/cgroup/memory/box/memory.limit_in_bytes": "8192\n",
                "/sys/fs/cgroup/memory/box/memory.usage_in_bytes": "4096",
                "/sys/fs/cgroup/memory/box/memory.stat": "total_rss 4096\n",
            },
            4096,
        ),
        (
            # no memory controller among the v1 lines
            {"/proc/meminfo": "MemAvailable: 5000 kB\n", "/proc/self/cgroup": "5:cpu,cpuacct:/\n"},
            5000 * 1024,
        ),
    ],
    ids=[
        "nothing", "meminfo", "cgroup-limit", "cgroup-page-cache", "cgroup-unlimited", "cgroup-only",
        "cgroup-v1-limit", "cgroup-v1-page-cache", "cgroup-v1-unlimited", "cgroup-hybrid", "cgroup-v1-no-memory",
    ],
)
def test_available_memory_reads_meminfo_and_cgroup(monkeypatch, files, want):
    monkeypatch.setattr(census_module, "open", _fake_files(files), raising=False)
    assert census_module.available_memory() == want


def test_memory_guard_admits_benchmark_sizes(monkeypatch):
    # a 256 MB cgroup at its limit, 200 MB of it file page cache: the
    # benchmark's censuses (the 5-line pentagon, 64 random lines, 150-line
    # grids) still run, with their blocks' class rates
    files = {
        "/proc/meminfo": "MemAvailable: 8000000 kB\n",
        "/proc/self/cgroup": "0::/box\n",
        "/sys/fs/cgroup/box/memory.max": f"{256 << 20}\n",
        "/sys/fs/cgroup/box/memory.current": f"{256 << 20}\n",
        "/sys/fs/cgroup/box/memory.stat": f"anon {56 << 20}\nactive_file {50 << 20}\ninactive_file {150 << 20}\n",
    }
    fake_open = _fake_files(files)
    monkeypatch.setattr(census_module, "open", fake_open, raising=False)
    assert census_module.available_memory() == 200 << 20
    for arr in (pentagon(), random_arrangement(64, seed=1), hexgrid(150), trigrid(150)):
        assert census(arr).total_triples == comb(arr.n, 3)


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
