"""Tests for rainbow extraction against a brute-force optimum oracle."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triarea import (
    Arrangement,
    ColoredTripleSystem,
    Line,
    dedupe_slopes,
    extract_rainbow,
    hexgrid,
    is_rainbow,
    pentagon,
    random_arrangement,
    trigrid,
)
from triarea._kernels import combo_index_arrays, combo_rank
from triarea.arrangement import PROPER, triple_area
from triarea.census import AreaCensus, census
from triarea.distinct import DEGENERATE, _greedy, _sample_delete


def oracle_max_rainbow(sys):
    """Exhaustive search for a maximum rainbow subset (n <= 8 only)."""
    for size in range(sys.n, 2, -1):
        for sub in combinations(range(sys.n), size):
            if is_rainbow(sys, sub):
                return list(sub)
    return list(range(min(sys.n, 2)))


SMALL_CASES = [
    pentagon(),
    hexgrid(6),
    trigrid(7),
    random_arrangement(8, seed=5),
    random_arrangement(8, seed=11),
]


@pytest.mark.parametrize("arr", SMALL_CASES, ids=lambda a: f"n{a.n}")
@pytest.mark.parametrize("strategy", ["greedy", "sample_delete"])
def test_never_exceeds_optimum(arr, strategy):
    sys = ColoredTripleSystem.from_arrangement(arr)
    opt = oracle_max_rainbow(sys)
    got = extract_rainbow(sys, strategy=strategy, seed=3)
    assert is_rainbow(sys, got)
    assert len(got) <= len(opt)


def test_pentagon_optimum_is_three():
    # ten proper triples but only two areas: any 4-subset induces four
    # triples colored from two values, so three lines is the maximum
    sys = ColoredTripleSystem.from_arrangement(pentagon())
    assert len(oracle_max_rainbow(sys)) == 3
    got = extract_rainbow(sys, strategy="greedy", seed=0)
    assert len(got) == 3


def test_greedy_reaches_optimum_on_generic_lines():
    # all 56 areas distinct for this seed, so the whole set is rainbow
    arr = random_arrangement(8, seed=5)
    sys = ColoredTripleSystem.from_arrangement(arr)
    if len(oracle_max_rainbow(sys)) == arr.n:
        got = extract_rainbow(sys, strategy="greedy", seed=1)
        assert got == list(range(arr.n))


# three concurrent lines (0, 1, 2) among five
CONCURRENT_FIVE = Arrangement(
    [
        Line(1, 0, 0),
        Line(0, 1, 0),
        Line(1, 1, 0),
        Line(1, 2, -7),
        Line(3, -1, -5),
    ]
)


def test_degenerate_triples_blocked():
    # the triple through the common point can never appear inside a
    # returned subset
    sys = ColoredTripleSystem.from_arrangement(CONCURRENT_FIVE)
    assert sys.color(0, 1, 2) == DEGENERATE
    for strategy in ("greedy", "sample_delete"):
        got = extract_rainbow(sys, strategy=strategy, seed=2)
        assert is_rainbow(sys, got)
        assert not {0, 1, 2} <= set(got)


def test_deterministic_for_fixed_seed():
    arr = random_arrangement(12, seed=9)
    sys = ColoredTripleSystem.from_arrangement(arr)
    a = extract_rainbow(sys, strategy="sample_delete", seed=4, trials=4)
    b = extract_rainbow(sys, strategy="sample_delete", seed=4, trials=4)
    assert a == b


def test_bad_inputs():
    sys = ColoredTripleSystem.from_arrangement(pentagon())
    with pytest.raises(ValueError):
        extract_rainbow(sys, strategy="anneal")
    with pytest.raises(ValueError):
        extract_rainbow(ColoredTripleSystem(census(Arrangement([]))))


def test_color_access_is_order_free():
    sys = ColoredTripleSystem.from_arrangement(hexgrid(6))
    assert sys.color(4, 1, 3) == sys.color(1, 3, 4)
    for bad in [(1, 1, 3), (-1, 2, 3), (0, 1, sys.n)]:
        with pytest.raises(ValueError):
            sys.color(*bad)
    with pytest.raises(ValueError):
        is_rainbow(sys, [0, 1, sys.n])


def test_backend_agreement():
    arr = hexgrid(7)
    exact = ColoredTripleSystem(census(arr, "exact"))
    fast = ColoredTripleSystem(census(arr, "numpy"))
    assert np.array_equal(exact.cen.class_ids, fast.cen.class_ids)
    for t in combinations(range(arr.n), 3):
        assert exact.color(*t) == fast.color(*t)


def test_pair_color_violations_cap():
    # pair (0,1) sits in 22 triples of one color; every other triple has
    # a color of its own
    n = 24
    I, J, _ = combo_index_arrays(n)
    hot = (I == 0) & (J == 1)
    ids = np.zeros(len(I), dtype=np.int32)
    ids[~hot] = 1 + np.arange(np.count_nonzero(~hot))
    areas = [Fraction(c + 1) for c in range(1 + np.count_nonzero(~hot))]
    sys = ColoredTripleSystem(AreaCensus(n, ids, "exact", np.bincount(ids + 2), areas=areas))
    hits = sys.pair_color_violations(cap=21)
    assert (0, 1, Fraction(1), 22) in hits
    assert sys.pair_color_violations(cap=23) == []
    assert len(sys.pair_color_violations(cap=1)) == 3 * len(I) - 21
    # a loop over every triple's color gives the same pairs on a grid
    grid = ColoredTripleSystem.from_arrangement(hexgrid(9))
    loop = {}
    for t in combinations(range(grid.n), 3):
        col = grid.color(*t)
        for i, j in combinations(t, 2):
            if col != DEGENERATE:
                loop[i, j, col] = loop.get((i, j, col), 0) + 1
    for cap in (1, 2, 3):
        want = sorted((i, j, str(col), c) for (i, j, col), c in loop.items() if c >= cap)
        got = sorted((i, j, str(col), c) for i, j, col, c in grid.pair_color_violations(cap))
        assert got == want
    # degenerate triples never count toward the cap
    dead = np.full(len(I), -1, dtype=np.int32)
    assert ColoredTripleSystem(AreaCensus(n, dead, "exact", np.bincount(dead + 2, minlength=2), areas=[])).pair_color_violations(cap=1) == []


def test_dedupe_slopes():
    arr = hexgrid(8)
    slim = dedupe_slopes(arr)
    assert slim.n == 3
    assert len({line.direction() for line in slim.lines}) == 3
    # first representative of each class is kept
    assert slim.lines[0] == arr.lines[0]


# extract_rainbow results recorded before the colored triple system read
# the census table directly; the strategies must draw the same random
# numbers and reach the same subsets
PINNED_CASES = {
    "pentagon": pentagon(),
    "hexgrid9": hexgrid(9),
    "trigrid10": trigrid(10),
    "random12": random_arrangement(12, seed=3),
    "random20": random_arrangement(20, seed=7),
    "random12c": random_arrangement(12, seed=3, coeff_bound=2, offset_bound=3),
    "random20c": random_arrangement(20, seed=7, coeff_bound=2, offset_bound=3),
    "concurrent": CONCURRENT_FIVE,
}
ALL12, ALL20 = list(range(12)), list(range(20))
PINNED = [
    ("pentagon", "greedy", 0, 1, [0, 1, 2]),
    ("pentagon", "greedy", 1, 3, [0, 1, 3]),
    ("pentagon", "sample_delete", 1, 3, [1, 2, 3]),
    ("pentagon", "sample_delete", 5, 8, [0, 2]),
    ("hexgrid9", "greedy", 0, 1, [3, 5, 7]),
    ("hexgrid9", "greedy", 5, 8, [0, 4, 8]),
    ("hexgrid9", "greedy", 42, 2, [0, 3]),
    ("hexgrid9", "sample_delete", 0, 1, []),
    ("hexgrid9", "sample_delete", 5, 8, [3, 7, 8]),
    ("trigrid10", "greedy", 5, 8, [1, 5, 6]),
    ("trigrid10", "sample_delete", 7, 40, [1, 3, 8]),
    ("random12", "greedy", 1, 3, ALL12),
    ("random12", "sample_delete", 5, 8, [0, 5, 11]),
    ("random20", "greedy", 42, 2, ALL20),
    ("random20", "sample_delete", 5, 8, [3, 8, 11, 15]),
    ("random20", "sample_delete", 42, 2, [6, 7, 18, 19]),
    ("random12c", "greedy", 0, 1, [1, 2, 3, 8, 9]),
    ("random12c", "greedy", 1, 3, [0, 3, 5, 6, 7, 11]),
    ("random12c", "greedy", 5, 8, [0, 1, 5, 6, 10]),
    ("random12c", "sample_delete", 7, 40, [0, 3, 9]),
    ("random20c", "greedy", 0, 1, [3, 10, 14, 16, 18]),
    ("random20c", "greedy", 5, 8, [5, 6, 7, 11, 13, 15, 16]),
    ("random20c", "greedy", 42, 2, [3, 4, 5, 12, 15, 17]),
    ("random20c", "sample_delete", 5, 8, [3, 11, 15]),
    ("random20c", "sample_delete", 7, 40, [1, 6, 9, 13]),
    ("concurrent", "greedy", 0, 1, [1, 2, 3, 4]),
    ("concurrent", "greedy", 1, 3, [0, 1, 3, 4]),
    ("concurrent", "sample_delete", 1, 3, [1, 2, 3]),
    ("concurrent", "sample_delete", 5, 8, [0, 2]),
]


@pytest.mark.parametrize("case, strategy, seed, trials, expected", PINNED)
def test_extract_rainbow_pinned(case, strategy, seed, trials, expected):
    sys = ColoredTripleSystem.from_arrangement(PINNED_CASES[case])
    assert extract_rainbow(sys, strategy=strategy, seed=seed, trials=trials) == expected


class _AllIn:
    """An rng that puts every line into the sample, so the deletion loop
    starts from the whole arrangement."""

    def random(self):
        return 0.0


@pytest.mark.parametrize(
    "case, expected",
    [
        ("pentagon", [0, 1, 2]),
        ("hexgrid9", [0, 1, 2]),
        ("trigrid10", [0, 1, 2]),
        ("random12c", [0, 1, 2, 3, 7]),
        ("random20c", [0, 1, 2, 4, 15]),
        ("concurrent", [0, 1, 3, 4]),
    ],
)
def test_sample_delete_from_every_line_pinned(case, expected):
    sys = ColoredTripleSystem.from_arrangement(PINNED_CASES[case])
    assert _sample_delete(sys, _AllIn()) == expected


def _rainbow_oracle(arr, subset):
    seen = set()
    for t in combinations(sorted(subset), 3):
        area, status = triple_area(*(arr.lines[v] for v in t))
        if status != PROPER or area in seen:
            return False
        seen.add(area)
    return True


ORACLE_CASES = [
    Arrangement([]),
    Arrangement([Line(1, 0, 0)]),
    Arrangement([Line(1, 0, 0), Line(0, 1, 0)]),
    CONCURRENT_FIVE,
    hexgrid(7),
    random_arrangement(9, seed=4, coeff_bound=2, offset_bound=3),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_rainbow_matches_triple_area_oracle(data):
    arr = data.draw(st.sampled_from(ORACLE_CASES))
    subset = data.draw(st.lists(st.integers(0, max(arr.n - 1, 0)), max_size=arr.n, unique=True))
    sys = ColoredTripleSystem.from_arrangement(arr)
    assert is_rainbow(sys, subset) == _rainbow_oracle(arr, subset)


@pytest.mark.parametrize("n", range(13))
def test_pair_offsets_give_every_rank(n):
    # a census whose class id is each triple's own rank
    m = comb(n, 3)
    ids = np.arange(m, dtype=np.int32)
    sys = ColoredTripleSystem(AreaCensus(n, ids, "exact", np.concatenate(([0, 0], np.ones(m, np.int64))), areas=list(range(m))))
    I, J, K = combo_index_arrays(n)
    ranks = sys._base[I * n + J] + K
    assert np.array_equal(ranks, np.arange(m))
    assert np.array_equal(sys._ids(I, J, K), ids)
    for perm in permutations((I, J, K)):
        assert np.array_equal(combo_rank(n, *perm), ranks)
    for t in zip(I.tolist(), J.tolist(), K.tolist()):
        for perm in permutations(t):
            assert sys.color(*perm) == ranks[sys._base[t[0] * n + t[1]] + t[2]]
    assert sys._base.nbytes == 8 * n * n


def test_out_of_range_lines_raise():
    sys = ColoredTripleSystem.from_arrangement(hexgrid(6))
    for bad in [(0, 1, 6), (-1, 1, 2), (7, 0, 1), (2, 2, 3), (0, 0, 0)]:
        with pytest.raises(ValueError):
            sys.color(*bad)
    for bad in ([6], [-1, 0, 1], [0, 1, 2, 99]):
        with pytest.raises(ValueError):
            is_rainbow(sys, bad)


# The colored triple system before the pair-offset table, kept as the
# oracle: every color is read through combo_rank, the greedy loop sorts its
# ids, and distinctness is tested with np.unique.

def _oracle_ids(sys, i, j, k):
    return sys.cen.class_ids[combo_rank(sys.n, i, j, k)]


def _oracle_subset_ids(sys, subset):
    lines = np.unique(np.asarray(subset, dtype=np.int64))
    if lines.size and (lines[0] < 0 or lines[-1] >= sys.n):
        raise ValueError(f"line index out of range 0..{sys.n - 1}")
    pos = combo_index_arrays(len(lines))
    return _oracle_ids(sys, *(lines[p] for p in pos)), pos


def oracle_is_rainbow(sys, subset):
    ids, _ = _oracle_subset_ids(sys, subset)
    return bool((ids >= 0).all()) and len(np.unique(ids)) == len(ids)


def oracle_greedy(sys, rng):
    order = list(range(sys.n))
    rng.shuffle(order)
    chosen = []
    pi = pj = np.zeros(0, dtype=np.int64)
    used = np.zeros(sys.cen.distinct_count, dtype=bool)
    for v in order:
        ids = _oracle_ids(sys, pi, pj, v)
        if (ids < 0).any() or used[ids].any():
            continue
        ids = np.sort(ids)
        if (ids[1:] == ids[:-1]).any():
            continue
        used[ids] = True
        pi = np.concatenate([pi, np.asarray(chosen, dtype=np.int64)])
        pj = np.concatenate([pj, np.full(len(chosen), v, dtype=np.int64)])
        chosen.append(v)
    return sorted(chosen)


def oracle_sample_delete(sys, rng):
    p = sys.n ** (-0.8)
    current = [v for v in range(sys.n) if rng.random() < p]
    while True:
        ids, pos = _oracle_subset_ids(sys, current)
        bad = np.ones(len(ids), dtype=bool)
        bad[np.unique(ids, return_index=True)[1]] = False
        bad |= ids < 0
        offenders = np.bincount(np.concatenate([col[bad] for col in pos]), minlength=len(current))
        if not offenders.any():
            break
        current.pop(len(current) - 1 - int(np.argmax(offenders[::-1])))
    return current


@st.composite
def colored_systems(draw):
    # small coefficients: many parallel pairs and concurrent triples, or,
    # one line per direction, repeated areas with no parallel pair; grids:
    # parallel families (and concurrent points in trigrid); generic lines
    kind = draw(st.sampled_from(["small", "slopes", "grid", "random"]))
    if kind in ("small", "slopes"):
        coeff = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
        rows = draw(st.lists(coeff.filter(lambda r: r[:2] != (0, 0)), max_size=14))
        arr = Arrangement(dict.fromkeys(Line(*r) for r in rows))
        if kind == "slopes":
            arr = dedupe_slopes(arr)
    elif kind == "grid":
        arr = draw(st.sampled_from([hexgrid, trigrid]))(draw(st.integers(3, 14)))
    else:
        arr = random_arrangement(draw(st.integers(1, 16)), seed=draw(st.integers(0, 99)))
    return ColoredTripleSystem.from_arrangement(arr)


@settings(max_examples=120, deadline=None)
@given(colored_systems(), st.integers(0, 2**32), st.data())
def test_table_reads_match_the_combo_rank_oracle(sys, seed, data):
    assert _greedy(sys, random.Random(seed)) == oracle_greedy(sys, random.Random(seed))
    if sys.n:  # extract_rainbow refuses an empty system
        assert _sample_delete(sys, random.Random(seed)) == oracle_sample_delete(sys, random.Random(seed))
    # empty, one-line, and any subset
    lines = st.integers(0, max(sys.n - 1, 0))
    subsets = [[], [0]] if sys.n else [[]]
    subsets.append(data.draw(st.lists(lines, max_size=sys.n, unique=True)))
    for subset in subsets:
        assert is_rainbow(sys, subset) == oracle_is_rainbow(sys, subset)
    for t in combinations(range(min(sys.n, 7)), 3):
        i, j, k = data.draw(st.permutations(t))
        c = int(_oracle_ids(sys, i, j, k))
        assert sys.color(i, j, k) == (DEGENERATE if c < 0 else sys.cen.areas[c])


def test_greedy_on_200_lines_pinned():
    # 142 of 200 lines, the subset recorded while every color went through
    # combo_rank
    sys = ColoredTripleSystem.from_arrangement(random_arrangement(200, seed=2))
    got = extract_rainbow(sys, strategy="greedy", seed=0)
    assert len(got) == 142
    assert hashlib.sha256(repr(got).encode()).hexdigest() == "6d856d4ff15b408f5becf6408500186981bf9ab78d28f85d47107ce789a37fb6"


def test_colored_triple_system_needs_the_census_table():
    arr = random_arrangement(8, seed=1)
    with pytest.raises(ValueError, match="table=False"):
        ColoredTripleSystem(census(arr, table=False))
    assert ColoredTripleSystem(census(arr)).n == 8
