"""Rainbow extraction: subsets of lines whose triangle areas are pairwise
distinct.

The colored triple system is a view of the arrangement's census: the color
of a triple is its area class id, read at the triple's lexicographic rank.
One n x n table of pair offsets gives that rank: for a < b < c it is
``base[a*n + b] + c``, one gather per triple with no sort, so the greedy
loop and the subset checks read colors straight from sorted columns.
Concurrent and parallel triples have negative ids, a reserved color that
conflicts with everything, so extractors can never smuggle a degenerate
triple into a "distinct" answer.  Every strategy validates its output
exhaustively before returning it.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ._kernels import combo_index_arrays, combo_rank
from .arrangement import Arrangement, Line
from .census import AreaCensus, census

DEGENERATE = "degenerate"


def dedupe_slopes(arr: Arrangement) -> Arrangement:
    """Keep the first line of every direction class."""
    seen = set()
    keep: List[Line] = []
    for line in arr.lines:
        d = line.direction()
        if d not in seen:
            seen.add(d)
            keep.append(line)
    return Arrangement(keep)


class ColoredTripleSystem:
    """Complete 3-uniform hypergraph on line indices, edge-colored by area
    class: a view of the census ``cen``, which holds one class id per triple."""

    def __init__(self, cen: AreaCensus) -> None:
        cen.table()  # ValueError without one
        self.cen = cen
        self.n = cen.n

    @classmethod
    def from_arrangement(cls, arr: Arrangement) -> "ColoredTripleSystem":
        return cls(census(arr))

    @cached_property
    def _base(self) -> np.ndarray:
        """Pair offsets, flat n x n: the rank of the triple a < b < c is
        _base[a*n + b] + c."""
        a, b = np.arange(self.n)[:, None], np.arange(self.n)
        return (combo_rank(self.n, a, b, b + 1) - b - 1).ravel()

    @cached_property
    def _slot(self) -> np.ndarray:
        """Scratch for _distinct: one entry per area class."""
        return np.empty(self.cen.distinct_count, dtype=np.int64)

    def _ids(self, a, b, c) -> np.ndarray:
        """Class ids of the triples a < b < c, columns already sorted."""
        return self.cen.class_ids[self._base[a * self.n + b] + c]

    def _distinct(self, ids: np.ndarray) -> bool:
        """Whether the class ids (none negative) are pairwise distinct, in
        O(len(ids)): each id stamps its position into a scratch entry, and
        a repeated id keeps only one of its positions, so another reads
        back wrong."""
        at = np.arange(len(ids))
        self._slot[ids] = at
        return bool((self._slot[ids] == at).all())

    def _subset_ids(self, subset: Sequence[int]) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
        """Class ids of the triples inside a set of lines, in lexicographic
        order, and the positions in the sorted set of each triple's lines."""
        lines = np.unique(np.asarray(subset, dtype=np.int64))
        if lines.size and (lines[0] < 0 or lines[-1] >= self.n):
            raise ValueError(f"line index out of range 0..{self.n - 1}")
        pos = combo_index_arrays(len(lines))
        return self._ids(*(lines[p] for p in pos)), pos

    def color(self, i: int, j: int, k: int) -> Hashable:
        """The exact area of triangle {i, j, k}, or DEGENERATE."""
        if len({i, j, k}) < 3 or min(i, j, k) < 0 or max(i, j, k) >= self.n:
            raise ValueError(f"({i}, {j}, {k}) are not three distinct lines of {self.n}")
        c = int(self._ids(*sorted((i, j, k))))
        return DEGENERATE if c < 0 else self.cen.areas[c]

    def pair_color_violations(self, cap: int = 21) -> List[Tuple[int, int, Hashable, int]]:
        """Pairs contained in at least ``cap`` same-colored proper triples,
        as (i, j, area, count) ordered by pair, then by area class."""
        I, J, K = combo_index_arrays(self.n)
        ids = self.cen.class_ids
        keep = ids >= 0
        m = self.cen.distinct_count
        # one key per (pair, class) incidence of a proper triple
        keys = np.concatenate([(p * self.n + q)[keep] * m + ids[keep] for p, q in ((I, J), (I, K), (J, K))])
        keys, counts = np.unique(keys, return_counts=True)
        hits = counts >= cap
        pair, col = np.divmod(keys[hits], m)
        i, j = np.divmod(pair, self.n)
        rows = zip(*(x.tolist() for x in (i, j, col, counts[hits])))
        return [(a, b, self.cen.areas[c], t) for a, b, c, t in rows]


def is_rainbow(sys: ColoredTripleSystem, subset: Sequence[int]) -> bool:
    """Exhaustive check: the triples inside the subset have distinct
    colors, none of them degenerate."""
    ids, _ = sys._subset_ids(subset)
    return bool((ids >= 0).all()) and sys._distinct(ids)


def extract_rainbow(
    sys: ColoredTripleSystem,
    strategy: str = "greedy",
    seed: int = 0,
    trials: int = 8,
) -> List[int]:
    """A subset of vertices whose induced triple colors are pairwise
    distinct, found by the requested randomized strategy.

    greedy: random vertex order, add a vertex iff it creates no collision.
    sample_delete: include vertices with probability n^(-4/5), then delete
    repeat offenders until conflict-free; several seeds, best kept (largest,
    then lexicographically smallest).
    """
    if sys.n == 0:
        raise ValueError("empty system")
    if strategy not in ("greedy", "sample_delete"):
        raise ValueError(f"unknown strategy {strategy!r}")
    best: Optional[List[int]] = None
    for t in range(max(trials, 1)):
        rng = random.Random(seed * 1_000_003 + t)
        cand = (_greedy if strategy == "greedy" else _sample_delete)(sys, rng)
        if best is None or (-len(cand), cand) < (-len(best), best):
            best = cand
    assert best is not None and is_rainbow(sys, best)
    return best


def _greedy(sys: ColoredTripleSystem, rng: random.Random) -> List[int]:
    order = list(range(sys.n))
    rng.shuffle(order)
    chosen: List[int] = []
    lo = hi = np.zeros(0, dtype=np.int64)  # the pairs lo < hi of chosen lines
    # the degenerate ids -1 and -2 index the last two entries, always used
    used = np.zeros(sys.cen.distinct_count + 2, dtype=bool)
    used[-2:] = True
    for v in order:
        ids = sys._ids(np.minimum(lo, v), np.maximum(lo, np.minimum(hi, v)), np.maximum(hi, v))
        # a degenerate id, a color already used, or two new triples alike
        if used[ids].any() or not sys._distinct(ids):
            continue
        used[ids] = True
        got = np.asarray(chosen, dtype=np.int64)
        lo = np.concatenate([lo, np.minimum(got, v)])
        hi = np.concatenate([hi, np.maximum(got, v)])
        chosen.append(v)
    return sorted(chosen)


def _sample_delete(sys: ColoredTripleSystem, rng: random.Random) -> List[int]:
    p = sys.n ** (-0.8)
    current = [v for v in range(sys.n) if rng.random() < p]
    while True:
        ids, pos = sys._subset_ids(current)
        # a triple is bad if degenerate or not the first of its color
        bad = np.ones(len(ids), dtype=bool)
        bad[np.unique(ids, return_index=True)[1]] = False
        bad |= ids < 0
        offenders = np.bincount(np.concatenate([col[bad] for col in pos]), minlength=len(current))
        if not offenders.any():
            break
        # drop the heaviest offender; break ties toward the largest index
        current.pop(len(current) - 1 - int(np.argmax(offenders[::-1])))
    return current
