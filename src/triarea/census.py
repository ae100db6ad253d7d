"""Complete triangle-area census of an arrangement.

The census is one table over the C(n,3) triples in lexicographic i<j<k
order: an int32 area-class id per triple, and one exact area per class.
Two reserved negative ids mark concurrent triples and triples with a
parallel pair.  Rational arrangements whose canonical integer coefficients
certify int64-safe intermediates build the table on the kernels in
_kernels and keep each area as a reduced int64 (num, den) pair, building
a ``Fraction`` only for an area a caller reads; everything else builds it
with exact scalar arithmetic.  Both builders use one formula, the area
D^2 / (2*|w12*w13*w23|) of arrangement.area_from_weights: the C(n,2) pair
weights w are computed once, and each triple costs one coefficient
determinant D and its square (for a tower arrangement the only arithmetic
in the deep field, since a and b stay in the base field).  Counts, the
memoised area ordering and its extremes, per-line counts, the triples of a
given area, the bound checks and the colored triple system all read this
one table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import _kernels
from .arrangement import (
    CONCURRENT,
    PROPER,
    Arrangement,
    _homogeneous_vertex,
    area_from_weights,
    choose_reference_frame,
    frame_params,
    pair_weight,
)
from .scalars import Scalar, _peel, exact_sign, format_scalar, is_rational

UNIT_AREA = Fraction(1)

# class ids of the two kinds of degenerate triple; proper triples get ids >= 0
CONCURRENT_ID = -1
PARALLEL_ID = -2

Triple = Tuple[int, int, int]


class AreaCensus:
    """Census table: an area-class id per triple, plus one exact area and one
    triangle count per class.  The int64 builder keeps the areas as reduced
    ``num``/``den`` arrays (None on the exact path) and builds ``areas`` when read."""

    def __init__(self, n: int, class_ids: np.ndarray, backend: str, areas: Optional[List[Scalar]] = None,
                 num: Optional[np.ndarray] = None, den: Optional[np.ndarray] = None) -> None:
        self.n = n
        self.class_ids = class_ids
        self.backend = backend
        self.num, self.den = num, den
        if areas is not None:
            self.areas = areas
        classes = len(num if areas is None else areas)
        self.class_counts: List[int] = np.bincount(class_ids[class_ids >= 0], minlength=classes).tolist()
        self.concurrent_count = int(np.count_nonzero(class_ids == CONCURRENT_ID))
        self.parallel_count = int(np.count_nonzero(class_ids == PARALLEL_ID))

    @cached_property
    def areas(self) -> List[Scalar]:
        return list(map(Fraction, self.num.tolist(), self.den.tolist()))

    @cached_property
    def area_counts(self) -> Dict[Scalar, int]:
        return dict(zip(self.areas, self.class_counts))

    @property
    def proper_count(self) -> int:
        return sum(self.class_counts)

    @property
    def total_triples(self) -> int:
        return len(self.class_ids)

    @property
    def distinct_count(self) -> int:
        return len(self.class_counts)

    @cached_property
    def _class_of(self) -> Dict[Scalar, int]:
        return {area: c for c, area in enumerate(self.areas)}

    def _class_id(self, area: Scalar) -> Optional[int]:
        if self.num is None:
            return self._class_of.get(area)
        x = _peel(area)
        if not is_rational(x):
            return None  # a surd is never a rational class
        hit = np.flatnonzero((self.num == x.numerator) & (self.den == x.denominator))
        return int(hit[0]) if hit.size else None

    def count(self, area: Scalar) -> int:
        c = self._class_id(area)
        return 0 if c is None else self.class_counts[c]

    @property
    def unit_count(self) -> int:
        return self.count(UNIT_AREA)

    @cached_property
    def _order(self) -> np.ndarray:
        # class ids by increasing area
        if self.num is None:  # Fraction and QuadExt compare exactly with their own `<`
            return np.array(sorted(range(len(self.areas)), key=self.areas.__getitem__), dtype=np.int64)
        # Sort by the float64 key num/den and certify each adjacent pair: with
        # num, den < 2^62 a key is within 3*2^-53 of its ratio, relative, so a
        # relative gap above 2^-49 proves the order, and closer pairs compare
        # num_p*den_q < num_q*den_p exactly (distinct reduced ratios never tie).
        key = self.num / self.den
        order = np.argsort(key, kind="stable")
        key = key[order]
        close = np.flatnonzero(key[1:] - key[:-1] <= key[1:] * 2.0**-49)
        p, q = self.num[order], self.den[order]
        pairs = zip(*(x.tolist() for x in (p[close], q[close], p[close + 1], q[close + 1])))
        if any(a * d > c * b for a, b, c, d in pairs):
            order = order[sorted(range(len(order)), key=lambda t: Fraction(int(p[t]), int(q[t])))]
        return order

    def sorted_items(self) -> List[Tuple[Scalar, int]]:
        """(area, count) pairs in increasing area order; the classes are
        sorted once."""
        return [(self.areas[c], self.class_counts[c]) for c in self._order.tolist()]

    def formatted_items(self) -> List[Tuple[str, int]]:
        """sorted_items with each area spelled by format_scalar; on the
        int64 path the same strings come straight from (num, den)."""
        order = self._order.tolist()
        if self.num is None:
            texts = [format_scalar(self.areas[c]) for c in order]
        else:
            ratios = zip(self.num[order].tolist(), self.den[order].tolist())
            texts = [f"{p}/{q}" if q != 1 else f"{p}" for p, q in ratios]
        return list(zip(texts, [self.class_counts[c] for c in order]))

    def _extreme(self, want_max: bool) -> Optional[Scalar]:
        if not self.distinct_count:
            return None
        c = int(self._order[-1 if want_max else 0])
        return self.areas[c] if self.num is None else Fraction(int(self.num[c]), int(self.den[c]))

    @cached_property
    def min_area(self) -> Optional[Scalar]:
        return self._extreme(want_max=False)

    @cached_property
    def max_area(self) -> Optional[Scalar]:
        return self._extreme(want_max=True)

    @property
    def max_area_count(self) -> int:
        return self.class_counts[self._order[-1]] if self.distinct_count else 0

    @property
    def min_area_count(self) -> int:
        return self.class_counts[self._order[0]] if self.distinct_count else 0

    def triples(self, area: Scalar) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index arrays (i, j, k) of the triples whose triangle has exactly
        this area, in lexicographic order."""
        c = self._class_id(area)
        ranks = np.flatnonzero(self.class_ids == c) if c is not None else np.zeros(0, np.int64)
        return _kernels.combo_index_arrays(self.n, ranks)

    def __repr__(self) -> str:
        return (
            f"AreaCensus(n={self.n}, proper={self.proper_count}, "
            f"distinct={self.distinct_count}, concurrent={self.concurrent_count}, "
            f"parallel={self.parallel_count}, backend={self.backend!r})"
        )


def integer_coefficients(arr: Arrangement) -> Optional[np.ndarray]:
    """Canonical integer coefficient matrix, or None for irrational fields."""
    if arr.radicand is not None:
        return None
    rows = []
    for line in arr.lines:
        row = []
        for coeff in line.coefficients():
            if coeff.denominator != 1:  # canonical lines have integer leaves
                return None
            row.append(coeff.numerator)
        rows.append(row)
    mat = np.array(rows, dtype=object).reshape(-1, 3)
    if (np.abs(mat) >= 2**62).any():
        return None
    return mat.astype(np.int64)


def select_backend(arr: Arrangement, backend: str = "auto") -> str:
    """Resolve 'auto' to 'numpy' when the input passes the int64 gate, else
    to 'exact'."""
    if backend == "exact":
        return "exact"
    if backend not in ("auto", "numpy"):
        raise ValueError(f"unknown backend {backend!r}")
    coeffs = integer_coefficients(arr)
    eligible = coeffs is not None and _kernels.int64_safe(coeffs)
    if backend == "numpy" and not eligible:
        raise ValueError("backend 'numpy' needs int64-safe integer input")
    return "numpy" if eligible else "exact"


def census(arr: Arrangement, backend: str = "auto") -> AreaCensus:
    """Classify every triple once, in lexicographic i<j<k order.

    Both builders number the area classes by first appearance in that
    order, so they produce identical tables.
    """
    chosen = select_backend(arr, backend)
    if chosen == "exact":
        areas, class_ids = _classify_exact(arr)
        return AreaCensus(arr.n, class_ids, chosen, areas=areas)
    num, den, class_ids = _classify_int64(integer_coefficients(arr))
    return AreaCensus(arr.n, class_ids, chosen, num=num, den=den)


def _classify_exact(arr: Arrangement) -> Tuple[List[Scalar], np.ndarray]:
    # the C(n,2) pair weights once, then one coefficient determinant per triple
    c = [_peel(line.c) for line in arr.lines]
    w = {(i, j): pair_weight(li, lj) for (i, li), (j, lj) in combinations(enumerate(arr.lines), 2)}
    class_of: Dict[Scalar, int] = {}
    ids = []
    for i, j, k in combinations(range(arr.n), 3):
        area, status = area_from_weights(c[i], c[j], c[k], w[i, j], w[i, k], w[j, k])
        if status == PROPER:
            ids.append(class_of.setdefault(area, len(class_of)))
        else:
            ids.append(CONCURRENT_ID if status == CONCURRENT else PARALLEL_ID)
    return list(class_of), np.array(ids, dtype=np.int32)


def _classify_int64(coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    num, den, status = _kernels.census_int64(coeffs)
    class_ids = np.full(len(status), PARALLEL_ID, dtype=np.int32)
    class_ids[status == _kernels.STATUS_CONCURRENT] = CONCURRENT_ID
    proper = np.flatnonzero(status == _kernels.STATUS_PROPER)
    num, den = num[proper], den[proper]
    # group equal (num, den) pairs; the stable sort keeps each group's
    # triples in triple order, so a group's first entry is its first appearance
    order = np.lexsort((den, num))
    num, den = num[order], den[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (num[1:] != num[:-1]) | (den[1:] != den[:-1])
    # renumber the classes by first appearance, as the exact builder does
    by_first = np.argsort(order[new])
    rank = np.empty(len(by_first), dtype=np.int32)
    rank[by_first] = np.arange(len(by_first), dtype=np.int32)
    class_ids[proper[order]] = rank[np.cumsum(new) - 1]
    return num[new][by_first], den[new][by_first], class_ids


def triples_with_area(
    arr: Arrangement, area: Scalar, cen: Optional[AreaCensus] = None
) -> Iterator[Triple]:
    """Index triples whose triangle has exactly the given area, in order,
    read from ``cen`` (the arrangement's census, built here when not given)."""
    if cen is None:
        cen = census(arr)
    return zip(*(x.tolist() for x in cen.triples(area)))


def per_line_counts(
    arr: Arrangement, area: Scalar, backend: str = "auto", cen: Optional[AreaCensus] = None
) -> List[int]:
    """For each line, how many triangles of the given area use it, read from
    ``cen`` (the arrangement's census, built here when not given)."""
    if cen is None:
        cen = census(arr, backend)
    return np.bincount(np.concatenate(cen.triples(area)), minlength=arr.n).tolist()


def facial_triangles(arr: Arrangement, backend: str = "auto") -> List[Triple]:
    """Proper triples realized as faces, in lexicographic order: no other
    line meets the open triangle.  The crossing points along each line are
    ranked on the int64 path when the gate allows, else with the scalars'
    exact ``<``; _kernels.faces_from_ranks keeps the triples whose sides
    join consecutive crossings."""
    if select_backend(arr, backend) == "exact":
        faces = _kernels.faces_from_ranks(_crossing_ranks_exact(arr))
    else:
        faces = _kernels.facial_int64(integer_coefficients(arr))
    return list(map(tuple, faces.tolist()))


def _crossing_ranks_exact(arr: Arrangement) -> np.ndarray:
    ranks = np.full((arr.n, arr.n), _kernels.NO_CROSSING, dtype=np.int64)
    for i, li in enumerate(arr.lines):
        where = {}  # parameter of each crossing along li
        for j, lj in enumerate(arr.lines):
            x, y, w = _homogeneous_vertex(li, lj)
            if j != i and exact_sign(w) != 0:
                where[j] = (li.a * y - li.b * x) / w
        rank, prev = -1, None
        for j in sorted(where, key=where.__getitem__):
            if rank < 0 or where[j] != prev:
                rank, prev = rank + 1, where[j]
            ranks[i, j] = rank
    return ranks


def facial_triangle_count(arr: Arrangement, backend: str = "auto") -> int:
    return len(facial_triangles(arr, backend))


def frame_identity_sum(pi, pj, pk) -> Scalar:
    """The scale-one frame identity; equals 2*area for x-sorted triples and
    0 for concurrent ones.  Caller must exclude equal cotangents."""
    return (
        (pj.x - pi.x) ** 2 / (pi.y - pj.y)
        + (pk.x - pj.x) ** 2 / (pj.y - pk.y)
        + (pi.x - pk.x) ** 2 / (pk.y - pi.y)
    )


def unit_count_by_frame_identity(arr: Arrangement) -> int:
    """Count unit-area triangles via the reference-frame identity.

    A route independent of the shoelace census: shear so no line is
    horizontal, take frame parameters on a reference line below every
    intersection, and count x-sorted triples whose identity sum is exactly
    2.  Agrees with ``census(arr).unit_count``.
    """
    rf = choose_reference_frame(arr)
    ps = frame_params(rf.ref_line, rf.arrangement.lines)
    assert len(ps) == arr.n
    ps = sorted(ps, key=attrgetter("x"))
    two = Fraction(2)
    total = 0
    for pi, pj, pk in combinations(ps, 3):
        if (
            exact_sign(pi.y - pj.y) == 0
            or exact_sign(pj.y - pk.y) == 0
            or exact_sign(pk.y - pi.y) == 0
        ):
            continue
        if exact_sign(frame_identity_sum(pi, pj, pk) - two) == 0:
            total += 1
    return total
