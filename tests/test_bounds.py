"""Tests for closed-form bounds and the structural invariant checker."""

import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triarea import (
    AffineMap,
    Arrangement,
    BoundsReport,
    CheckResult,
    Line,
    build_gell_graphs,
    census,
    facial_triangles,
    find_cycle,
    formula_bounds,
    hexgrid,
    kobon_bound,
    pentagon,
    per_line_counts,
    random_arrangement,
    random_general_position,
    st_extremal,
    trigrid,
    verify_arrangement,
)
import triarea.bounds as bounds
from triarea.arrangement import frame_params, frame_scale, intersect
from triarea.chain import max_chain
from triarea.scalars import exact_sign

# best possible triangular-face counts for small n, published values
KOBON_TABLE = {
    3: 1, 4: 2, 5: 5, 6: 7, 7: 11, 8: 15, 9: 21, 10: 26,
    11: 33, 12: 39, 13: 47, 15: 65, 17: 85,
}

CHECK_NAMES = [
    "facial_count_within_kobon_bound",
    "min_area_triangles_all_facial",
    "per_line_max_area_within_2n_minus_4",
    "edge_graphs_are_forests",
    "edge_totals_match_census",
    "interior_or_parallel_for_max_area",
    "max_area_same_side_per_line",
]


def test_kobon_bound_table():
    for n, expected in KOBON_TABLE.items():
        assert kobon_bound(n) == expected
    with pytest.raises(ValueError):
        kobon_bound(2)


def test_formula_bounds_fields():
    fb = formula_bounds(10)
    assert fb.n == 10
    assert fb.m_lower_hex == 16
    assert fb.m_lower_tri == 14
    assert fb.m_upper == 26
    assert fb.M_lower == 12
    assert fb.M_upper == Fraction(160, 3)
    assert fb.M_upper_remark == Fraction(30)
    # chain lower bound: one fresh pentagon per five lines
    assert formula_bounds(5).M_lower == 5
    assert formula_bounds(4).M_lower == 1
    assert formula_bounds(15).M_lower == 19
    with pytest.raises(ValueError):
        formula_bounds(2)


def test_bounds_never_cross():
    for n in range(3, 40):
        fb = formula_bounds(n)
        assert max(fb.m_lower_hex, fb.m_lower_tri) <= fb.m_upper
        assert fb.M_lower <= fb.M_upper


def test_find_cycle_forest():
    assert find_cycle([1, 2, 3, 4], [(1, 2), (2, 3)]) is None
    assert find_cycle([], []) is None
    # two components, still a forest
    assert find_cycle([1, 2, 3, 4], [(1, 2), (3, 4)]) is None


def test_find_cycle_positive():
    edges = [(1, 2), (2, 3), (3, 1)]
    cyc = find_cycle([1, 2, 3, 4], edges)
    assert cyc is not None
    assert cyc[0] == cyc[-1]
    assert len(set(cyc)) == len(cyc) - 1 >= 3
    allowed = {frozenset(e) for e in edges}
    for u, v in zip(cyc, cyc[1:]):
        assert frozenset((u, v)) in allowed


def test_find_cycle_parallel_edge():
    # a doubled edge is already a cycle
    assert find_cycle([5, 6], [(5, 6), (6, 5)]) is not None


def test_gell_graph_pentagon():
    arr = pentagon()
    cen = census(arr)
    plc = per_line_counts(arr, cen.max_area)
    for idx in range(arr.n):
        gg = build_gell_graphs(arr, idx)
        assert gg.edge_total == plc[idx] == 3
        assert find_cycle(gg.vertices, gg.e_plus) is None
        assert find_cycle(gg.vertices, gg.e_minus) is None
        assert set(gg.vertices) == set(range(arr.n)) - {idx}


def oracle_gell_graphs(arr, ell_index, area):
    """The frame-parameter route: x and y of every crossing line as exact
    scalars, then s*(x_p - x_q)^2 = 2*area*|y_p - y_q| pair by pair."""
    ell = arr.lines[ell_index]
    keep = [i for i in range(arr.n) if i != ell_index]
    params = frame_params(ell, [arr.lines[i] for i in keep])
    scale = frame_scale(ell)
    e_plus, e_minus = [], []
    for p, q in combinations(params, 2):
        dy = p.y - q.y
        sy = exact_sign(dy)
        if sy == 0:
            continue
        dx = p.x - q.x
        if exact_sign(scale * dx * dx - 2 * area * abs(dy)) == 0:
            edge = (keep[p.index], keep[q.index])
            (e_plus if exact_sign(dx) == sy else e_minus).append(edge)
    return [keep[p.index] for p in params], e_plus, e_minus


def assert_gell_graphs_match(arr, lines=None, areas=None):
    """build_gell_graphs equals the oracle, edge for edge and in order, for
    the largest, the smallest and the most frequent area."""
    cen = census(arr)
    if areas is None:
        if cen.max_area is None:
            return
        common = max(cen.area_counts.items(), key=lambda item: item[1])[0]
        areas = {cen.max_area, cen.min_area, common}
    for area in areas:
        for idx in range(arr.n) if lines is None else lines:
            gg = build_gell_graphs(arr, idx, max_area=area)
            assert (gg.vertices, gg.e_plus, gg.e_minus) == oracle_gell_graphs(arr, idx, area)


def _lines(draw, n, coeff):
    lines = []
    for _ in range(n):
        a, b, c = draw(coeff), draw(coeff), draw(coeff)
        if a or b:
            lines.append(Line(a, b, c))
    return Arrangement(dict.fromkeys(lines))


@st.composite
def integer_arrangements(draw):
    # small coefficients stay inside the int64 gate; the wide range reaches
    # past 2^62, where the products are Python ints far beyond int64
    big = 2**62 + draw(st.integers(0, 2**64))
    coeff = draw(st.sampled_from([st.integers(-9, 9), st.integers(-big, big)]))
    return _lines(draw, draw(st.integers(3, 9)), coeff)


@st.composite
def moved_grids(draw):
    # parallel families, and concurrent points in trigrid, with the lines
    # shuffled and translated off the constructions' own order and origin
    grid = draw(st.sampled_from([hexgrid, trigrid]))
    lines = draw(st.permutations(grid(draw(st.integers(3, 14))).lines))
    shift = st.fractions(-5, 5, max_denominator=6)
    return Arrangement(lines).transform(AffineMap.translation(draw(shift), draw(shift)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(integer_arrangements(), moved_grids()))
def test_gell_graphs_match_frame_oracle(arr):
    assume(arr.n >= 3)
    assert_gell_graphs_match(arr)


@pytest.mark.parametrize("build", [pentagon, lambda: max_chain(1)], ids=["pentagon", "max_chain_1"])
def test_gell_graphs_match_frame_oracle_towers(build):
    assert_gell_graphs_match(build())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gell_graphs_match_frame_oracle_st_extremal(k):
    arr, ell = st_extremal(k)
    ref = arr.lines.index(ell)
    # the reference line carries k^4 unit-area triangles
    gg = build_gell_graphs(arr, ref, max_area=Fraction(1))
    assert gg.edge_total >= k**4
    lines = [ref, 0, arr.n // 2] if k == 3 else None
    assert_gell_graphs_match(arr, lines=lines, areas={Fraction(1), census(arr).max_area})


def _exact_stage(mp):
    """(pairs tested, edges found) per call of the exact stage behind the
    residue filter of build_gell_graphs."""
    exact, calls = bounds._exact_edges, []

    def counting(*args):
        e_plus, e_minus = exact(*args)
        calls.append((len(args[-1]), len(e_plus) + len(e_minus)))
        return e_plus, e_minus

    mp.setattr(bounds, "_exact_edges", counting)
    return calls


@settings(max_examples=40, deadline=None)
@given(st.one_of(integer_arrangements(), moved_grids()))
def test_gell_graphs_match_frame_oracle_at_a_small_prime(arr):
    # mod 7 most non-edges agree, so the exact stage decides them
    assume(arr.n >= 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "PRIME", 7)
        assert_gell_graphs_match(arr)


@pytest.mark.parametrize(
    "build, prime", [(pentagon, 11), (lambda: max_chain(1), 131)], ids=["pentagon", "max_chain_1"]
)
def test_gell_graphs_match_frame_oracle_towers_at_a_small_prime(monkeypatch, build, prime):
    # no prime from 11 down suits the chain's height-3 tower; 131 does
    monkeypatch.setattr(bounds, "PRIME", prime)
    arr = build()
    assert bounds._residue_ring(arr)[0] == prime
    assert_gell_graphs_match(arr)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gell_graphs_match_frame_oracle_st_extremal_at_a_small_prime(monkeypatch, k):
    monkeypatch.setattr(bounds, "PRIME", 7)
    arr, ell = st_extremal(k)
    lines = [arr.lines.index(ell), 0, arr.n // 2] if k == 3 else None
    assert_gell_graphs_match(arr, lines=lines, areas={Fraction(1)})


def test_gell_graphs_without_a_suitable_prime_test_every_pair_exactly(monkeypatch):
    # 5 is a square neither mod 7 nor mod 3, the whole patched search range
    monkeypatch.setattr(bounds, "PRIME", 7)
    arr = pentagon()
    assert bounds._residue_ring(arr) is None
    calls = _exact_stage(monkeypatch)
    graphs = [build_gell_graphs(arr, idx) for idx in range(arr.n)]
    assert [pairs for pairs, _ in calls] == [len(gg.vertices) * (len(gg.vertices) - 1) // 2 for gg in graphs]
    assert_gell_graphs_match(arr)


def test_residue_filter_leaves_few_pairs_to_the_exact_stage(monkeypatch):
    arr = random_general_position(30, seed=3)
    calls = _exact_stage(monkeypatch)
    for idx in range(arr.n):
        build_gell_graphs(arr, idx)
    pairs, edges = map(sum, zip(*calls))
    assert edges == 3
    assert pairs <= edges + 0.01 * 12180


def test_verify_max_chain_3(monkeypatch):
    # 26 = 5 + 7*3 maximum-area triangles on 20 lines, each an edge on its
    # three lines; the filter leaves 78 of the 3,420 pairs to the exact stage
    calls = _exact_stage(monkeypatch)
    rep = verify_arrangement(max_chain(3))
    assert rep.passed and not any(c.skipped for c in rep.checks)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["interior_or_parallel_for_max_area"].detail == "26 maximum-area triangles"
    pairs, edges = map(sum, zip(*calls))
    assert edges == 78
    assert pairs - edges < 0.02 * 3420


VERIFY_CASES = [
    pentagon(),
    hexgrid(7),
    trigrid(9),
    random_arrangement(10, seed=2),
    random_general_position(12, seed=3),
    st_extremal(2)[0],
]


@pytest.mark.parametrize("arr", VERIFY_CASES, ids=lambda a: f"n{a.n}")
def test_verify_arrangement_passes(arr):
    rep = verify_arrangement(arr)
    assert rep.passed
    assert [c.name for c in rep.checks] == CHECK_NAMES
    assert rep.max_area is not None and rep.min_area is not None
    for idx, count in rep.remark_edge_bound_violations:
        assert count > arr.n - 1


def test_verify_accepts_precomputed_census():
    arr = hexgrid(6)
    cen = census(arr)
    a = verify_arrangement(arr)
    b = verify_arrangement(arr, cen=cen)
    assert [c.passed for c in a.checks] == [c.passed for c in b.checks]


def test_verify_builds_the_coefficient_matrix_once(monkeypatch):
    # counted at the one builder, which the census, the facial test and the
    # graphs all reach through the arrangement's cached matrix
    census_module = sys.modules["triarea.census"]
    build, built = census_module._ring_matrix, []
    monkeypatch.setattr(census_module, "_ring_matrix", lambda arr: built.append(arr.n) or build(arr))
    assert verify_arrangement(random_general_position(12, seed=3)).passed
    assert built == [12]


def _count_calls(monkeypatch, module, attr):
    """Calls of module.attr, rebound in every triarea module that holds it,
    as the benchmark's per-layer probe rebinds it."""
    original, calls = getattr(module, attr), []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, ns in list(sys.modules.items()):
        if (name == "triarea" or name.startswith("triarea.")) and getattr(ns, attr, None) is original:
            monkeypatch.setattr(ns, attr, counting)
    return calls


@pytest.mark.parametrize("arr", [random_general_position(12, seed=3), hexgrid(8)], ids=["random", "grid"])
def test_verify_resolves_once_and_builds_a_graph_per_line(monkeypatch, arr):
    resolved = _count_calls(monkeypatch, sys.modules["triarea.census"], "select_backend")
    graphs = _count_calls(monkeypatch, bounds, "build_gell_graphs")
    cen = census(arr)
    assert len(resolved) == 1
    facial_triangles(arr)
    assert len(resolved) == 2
    assert verify_arrangement(arr, cen=cen).passed
    # the facial test inside is the only other resolution
    assert len(resolved) == 3
    assert [args[1] for args in graphs] == list(range(arr.n))


def test_same_side_check_skipped_with_parallels():
    rep = verify_arrangement(hexgrid(6))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["max_area_same_side_per_line"].skipped
    rep = verify_arrangement(pentagon())
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["max_area_same_side_per_line"].skipped


def test_verify_no_proper_triangles():
    arr = Arrangement([Line(0, 1, 0), Line(0, 1, -1), Line(0, 1, -2)])
    rep = verify_arrangement(arr)
    assert rep.passed
    assert rep.max_area is None
    skipped = [c for c in rep.checks if c.skipped]
    assert len(skipped) == 6


def test_verify_rejects_small_input():
    with pytest.raises(ValueError):
        verify_arrangement(Arrangement([Line(1, 0, 0), Line(0, 1, 0)]))


def test_remark_violations_never_fail_report():
    rep = BoundsReport(
        n=5,
        checks=[CheckResult(name="x", passed=True)],
        remark_edge_bound_violations=[(0, 99)],
    )
    assert rep.passed
    rep.checks.append(CheckResult(name="y", passed=False))
    assert not rep.passed
    rep.checks[-1].skipped = True
    assert rep.passed


def _side_witnesses_by_intersection(arr, triples):
    """The witnesses of interior_or_parallel_for_max_area and of
    max_area_same_side_per_line for these triangles, from their vertices
    and Line.evaluate."""
    interior = []
    for i, j, k in triples:
        tri = [arr.lines[t] for t in (i, j, k)]
        verts = [intersect(tri[0], tri[1]), intersect(tri[0], tri[2]), intersect(tri[1], tri[2])]
        for g, lg in enumerate(arr.lines):
            if g not in (i, j, k) and not any(lg.is_parallel_to(t) for t in tri):
                signs = [exact_sign(lg.evaluate(v)) for v in verts]
                if not (1 in signs and -1 in signs):
                    interior.append((g, (i, j, k)))
    same_side = []
    for g, lg in enumerate(arr.lines):
        side = 0
        for t in triples:
            if g in t:
                rest = [arr.lines[m] for m in t if m != g]
                s = exact_sign(lg.evaluate(intersect(*rest)))
                if side == 0:
                    side = s
                elif s != side:
                    same_side.append((g, t))
    return interior, same_side


@pytest.mark.parametrize(
    "build", [lambda: random_arrangement(10, seed=2), pentagon, lambda: max_chain(1)], ids=["random", "pentagon", "max_chain1"]
)
@pytest.mark.parametrize("extreme", ["min_area", "max_area"])
def test_side_checks_match_intersection_points(build, extreme):
    # read as the maximum, the minimum-area (facial) triangles fail the
    # interior check, and the pentagon's five also the same-side check, so
    # the witnesses are compared too
    arr = build()
    cen = census(arr)
    cen.__dict__["max_area"] = getattr(cen, extreme)
    checks = {c.name: c for c in verify_arrangement(arr, cen).checks}
    interior, same_side = _side_witnesses_by_intersection(arr, list(zip(*(x.tolist() for x in cen.triples(cen.max_area)))))
    got = checks["interior_or_parallel_for_max_area"]
    assert (got.passed, got.witnesses) == (not interior, interior[:5])
    got = checks["max_area_same_side_per_line"]
    if arr.has_parallel_pair():
        assert got.skipped
    else:
        assert (got.passed, got.witnesses) == (not same_side, same_side[:5])
    if extreme == "min_area":
        assert interior and bool(same_side) == (build is pentagon)


def test_gell_graphs_default_max_area_needs_no_census_table(monkeypatch):
    # the default max_area reads only the census's maximum, so it builds no
    # table: the graphs come out the same with memory short of the table
    arr = random_arrangement(30, seed=3)
    want = [build_gell_graphs(arr, ell, census(arr).max_area) for ell in (0, 7)]
    census_module = sys.modules["triarea.census"]
    triples = comb(30, 3)
    need = 4 * triples + census_module.BLOCK_BYTES_PER_TRIPLE * min(triples, census_module.BLOCK_TRIPLES)
    monkeypatch.setattr(census_module, "available_memory", lambda: need - 1)
    with pytest.raises(census_module.CensusMemoryError):
        census(arr)
    for ell, graph in zip((0, 7), want):
        got = build_gell_graphs(arr, ell)
        assert (got.vertices, got.e_plus, got.e_minus, got.max_area) == (graph.vertices, graph.e_plus, graph.e_minus, graph.max_area)
