"""Rainbow extraction: subsets of lines whose triangle areas are pairwise
distinct.

Triples are colored by exact area; concurrent or parallel triples get a
reserved color that conflicts with everything, so extractors can never
smuggle a degenerate triple into a "distinct" answer.  Every strategy
validates its output exhaustively before returning it.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .arrangement import Arrangement, Line
from .census import census

DEGENERATE = "degenerate"

Triple = Tuple[int, int, int]


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
    """Complete 3-uniform hypergraph on line indices, edge-colored by exact
    triangle area (or the reserved degenerate color)."""

    def __init__(self, n: int, colors: Dict[Triple, Hashable]) -> None:
        self.n = n
        self.colors = colors

    @classmethod
    def from_arrangement(cls, arr: Arrangement, backend: str = "auto") -> "ColoredTripleSystem":
        """Colors read from the census table: every triple of one area
        class shares that class's exact area object."""
        cen = census(arr, backend)
        # proper class ids index the areas; the two negative degenerate ids
        # index DEGENERATE from the end of the palette
        palette = cen.areas + [DEGENERATE, DEGENERATE]
        colors = map(palette.__getitem__, cen.class_ids)
        return cls(arr.n, dict(zip(combinations(range(arr.n), 3), colors)))

    def color(self, i: int, j: int, k: int) -> Hashable:
        return self.colors[tuple(sorted((i, j, k)))]

    def pair_color_violations(self, cap: int = 21) -> List[Tuple[int, int, Hashable, int]]:
        """Pairs contained in at least ``cap`` same-colored proper triples."""
        counts: Dict[Tuple[int, int, Hashable], int] = {}
        for (i, j, k), col in self.colors.items():
            if col == DEGENERATE:
                continue
            for pair in ((i, j), (i, k), (j, k)):
                key = (*pair, col)
                counts[key] = counts.get(key, 0) + 1
        return [
            (i, j, col, c) for (i, j, col), c in counts.items() if c >= cap
        ]


def is_rainbow(sys: ColoredTripleSystem, subset: Sequence[int]) -> bool:
    """Exhaustive check: all triple colors inside the subset distinct and
    none degenerate."""
    seen = set()
    for i, j, k in combinations(sorted(subset), 3):
        col = sys.color(i, j, k)
        if col == DEGENERATE or col in seen:
            return False
        seen.add(col)
    return True


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
        if strategy == "greedy":
            cand = _greedy(sys, rng)
        else:
            cand = _sample_delete(sys, rng)
        if (
            best is None
            or len(cand) > len(best)
            or (len(cand) == len(best) and cand < best)
        ):
            best = cand
    assert best is not None and is_rainbow(sys, best)
    return best


def _greedy(sys: ColoredTripleSystem, rng: random.Random) -> List[int]:
    order = list(range(sys.n))
    rng.shuffle(order)
    chosen: List[int] = []
    used: set = set()
    for v in order:
        fresh: set = set()
        ok = True
        for i, j in combinations(chosen, 2):
            col = sys.color(i, j, v)
            if col == DEGENERATE or col in used or col in fresh:
                ok = False
                break
            fresh.add(col)
        if ok:
            chosen.append(v)
            used.update(fresh)
    return sorted(chosen)


def _sample_delete(sys: ColoredTripleSystem, rng: random.Random) -> List[int]:
    p = sys.n ** (-0.8)
    current = [v for v in range(sys.n) if rng.random() < p]
    while True:
        offenders: Dict[int, int] = {}
        by_color: Dict[Hashable, int] = {}
        for i, j, k in combinations(sorted(current), 3):
            col = sys.color(i, j, k)
            bad = col == DEGENERATE or col in by_color
            if col != DEGENERATE:
                by_color[col] = by_color.get(col, 0) + 1
            if bad:
                for v in (i, j, k):
                    offenders[v] = offenders.get(v, 0) + 1
        if not offenders:
            break
        # drop the heaviest offender; break ties toward the largest index
        drop = max(offenders, key=lambda v: (offenders[v], v))
        current.remove(drop)
    return sorted(current)
