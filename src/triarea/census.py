"""Complete triangle-area census of an arrangement.

The census classifies the C(n,3) triples in lexicographic i<j<k order: an
int32 area-class id per triple (the table), and one exact area and one
triangle count per class.  Two reserved negative ids mark concurrent
triples and triples with a parallel pair.  Rational arrangements whose
canonical integer coefficients certify int64-safe intermediates build it
on the kernels in _kernels and keep each area as a reduced int64 (num,
den) pair, building a ``Fraction`` only for an area a caller reads;
everything else builds it with exact scalar arithmetic.  Both builders use
one formula, the area D^2 / (2*|w12*w13*w23|) of
arrangement.area_from_weights: the C(n,2) pair weights w are computed
once, and each triple costs one coefficient determinant D and its square
(for a tower arrangement the only arithmetic in the deep field, since a
and b stay in the base field).  The int64 builder groups the lines by
direction once (_kernels.third_lines), so that the kernel expands no third
line of a large direction class for a pair holding a line of it, and runs
in blocks of about BLOCK_TRIPLES triples.  Each block's (num, den) pairs,
one per proper triple, are grouped into classes (_group: a float64 key
sort certified pair by pair, exact lexsort as the fallback), which wait
in a buffer behind the classes found so far until a fold groups it again
(_fold); the last fold's sort is kept as the class order.  The
table is written only when asked (table=True, the default), and the
kernel's row masks become positions only then: counts, extremes and the
sorted area list read the classes alone, while the triples of an area,
per-line counts, the bound checks and the colored triple system read the
table.  Memory is the table when built, one block and the class buffer,
which follows the classes and not the blocks; check_memory refuses, with
CensusMemoryError, a table and block that do not fit, and then classes
that outgrow what they left even after a fold.  The coefficient matrix
(ring_coefficients) and its int64 copy when the gate passes are built
once per arrangement, cached on it and read-only: select_backend reads
the gate from them, and the census, the facial triangles
(_kernels.crossing_ranks) and the bound checks read them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import _kernels
from .arrangement import (
    CONCURRENT,
    PROPER,
    Arrangement,
    area_from_weights,
    choose_reference_frame,
    frame_params,
    pair_weight,
)
from .scalars import DEFAULT_PRECISION_BITS, Scalar, _bounds, _peel, exact_sign, float_ratio, is_rational

UNIT_AREA = Fraction(1)

# class ids of the two kinds of degenerate triple; proper triples get ids >= 0
CONCURRENT_ID = -1
PARALLEL_ID = -2

# triples per block of the int64 builder, and a bound on the bytes of one
# block's temporaries per triple (kernel and grouping, each block's arrays
# released before the next; tracemalloc measures 72 on random blocks and 17
# on grid blocks, whose split directions expand a third of the rows,
# doubled here for allocator slack)
BLOCK_TRIPLES = 2**16
BLOCK_BYTES_PER_TRIPLE = 144
# a bound on the bytes per entry of the class buffer: its (num, den, count)
# columns and a fold's temporaries (tracemalloc counts 79 per entry on
# random_arrangement(300) and 66 on st_extremal(5), the buffer's unwritten
# part included), plus 12 per class for the order and float key that the
# census's first sorted read adds
BUFFER_BYTES_PER_CLASS = 112
# a bound on the bytes per line pair (n^2 of them) of the facial triangles,
# on int64 columns and on object columns: tracemalloc measures 83 on grids
# and random lines, and 342 on 80 random lines past the int64 gate (Python
# ints); tower elements take more, but towers reach a few dozen lines
FACIAL_BYTES_PER_PAIR = (96, 512)
# the blocks' classes wait until they number FOLD_RATIO times the found
# ones and FOLD_ENTRIES, or until the buffer would outgrow its room
FOLD_RATIO = 4
FOLD_ENTRIES = 3 << 20

Triple = Tuple[int, int, int]


class AreaCensus:
    """Census table: an area-class id per triple (``class_ids``, None when
    built with table=False), plus one exact area and one triangle count per
    class.  The int64 builder keeps the areas as reduced ``num``/``den``
    arrays (None on the exact path) and builds ``areas`` when read."""

    def __init__(self, n: int, class_ids: Optional[np.ndarray], backend: str, tally: np.ndarray,
                 areas: Optional[List[Scalar]] = None,
                 num: Optional[np.ndarray] = None, den: Optional[np.ndarray] = None,
                 order: Optional[np.ndarray] = None) -> None:
        """``tally`` is np.bincount(class_ids - PARALLEL_ID), as the builder
        counted it: the parallel, then the concurrent, then each class's
        count.  ``order`` lists the classes by increasing num/den if known."""
        self.n = n
        self.class_ids = class_ids
        self.backend = backend
        self.num, self.den, self._key_order = num, den, order
        if areas is not None:
            self.areas = areas
        self.parallel_count, self.concurrent_count = int(tally[0]), int(tally[1])
        self.proper_count = int(tally[2:].sum())
        self.class_counts: List[int] = tally[2:].tolist()

    @cached_property
    def areas(self) -> List[Scalar]:
        return list(map(Fraction, self.num.tolist(), self.den.tolist()))

    @cached_property
    def area_counts(self) -> Dict[Scalar, int]:
        return dict(zip(self.areas, self.class_counts))

    @property
    def total_triples(self) -> int:
        return comb(self.n, 3)

    def table(self) -> np.ndarray:
        """class_ids, or ValueError on a census built with table=False."""
        if self.class_ids is None:
            raise ValueError("a census built with table=False has no class id per triple")
        return self.class_ids

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
        if self.num is None:
            # The key is the midpoint of each area's fixed-point enclosure
            # (infinite past the float range), and disjoint enclosures prove
            # a pair's order.
            areas = self.areas
            bits = DEFAULT_PRECISION_BITS
            lo, hi = np.array([_bounds(a, bits) for a in areas], dtype=object).reshape(-1, 2).T
            return _certified_order(
                np.array([float_ratio(a, 1) for a in areas], dtype=float),
                lambda part: hi[part[:-1]] < lo[part[1:]],
                lambda p, q: areas[p] < areas[q],
                areas.__getitem__,
            )
        # The key is num/den: with num, den < 2^62 it is within 3*2^-53 of the
        # ratio, relative, so a relative gap above 2^-49 proves a pair's
        # order; closer pairs compare num_p*den_q < num_q*den_p exactly
        # (distinct reduced ratios never tie).
        num, den = self.num, self.den
        key = num / den

        def separated(part: np.ndarray) -> np.ndarray:
            k = key[part]
            return k[1:] - k[:-1] > k[1:] * 2.0**-49

        return _certified_order(
            key,
            separated,
            lambda p, q: int(num[p]) * int(den[q]) < int(num[q]) * int(den[p]),
            lambda c: Fraction(int(num[c]), int(den[c])),
            self._key_order,
        )

    def sorted_items(self) -> List[Tuple[Scalar, int]]:
        """(area, count) pairs in increasing area order; the classes are
        sorted once."""
        return [(self.areas[c], self.class_counts[c]) for c in self._order.tolist()]

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
        table, c = self.table(), self._class_id(area)
        ranks = np.flatnonzero(table == c) if c is not None else np.zeros(0, np.int64)
        return _kernels.combo_index_arrays(self.n, ranks)

    def __repr__(self) -> str:
        return (
            f"AreaCensus(n={self.n}, proper={self.proper_count}, "
            f"distinct={self.distinct_count}, concurrent={self.concurrent_count}, "
            f"parallel={self.parallel_count}, backend={self.backend!r})"
        )


def _certified_order(
    key: np.ndarray,
    separated: Callable[[np.ndarray], np.ndarray],
    less: Callable[[int, int], bool],
    exact_key: Callable[[int], object],
    order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Indices 0..len(key)-1 in increasing order of distinct exact values.

    A floating-point filter: sort by the approximate float ``key`` unless
    ``order`` is that sort, then certify each adjacent pair, by
    ``separated(part)`` (a bool per adjacent pair of a run of the order,
    True where the approximation proves it) or else by the exact
    ``less(p, q)``; if some pair fails, sort again by ``exact_key``.  Runs
    of BLOCK_TRIPLES pairs keep the temporaries small.
    """
    if order is None:
        order = np.argsort(key, kind="stable")
    for start in range(0, len(order) - 1, BLOCK_TRIPLES):
        part = order[start : start + BLOCK_TRIPLES + 1]
        for t in np.flatnonzero(~separated(part)).tolist():
            if not less(int(part[t]), int(part[t + 1])):
                return np.array(sorted(range(len(key)), key=exact_key), dtype=np.int64)
    return order


def _ring_leaf(x: Scalar):
    """x with zero tower layers peeled, and an integral rational as an int."""
    x = _peel(x)
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


def ring_coefficients(arr: Arrangement) -> np.ndarray:
    """The n x 3 numpy object matrix of the lines' coefficients as ring
    elements (_ring_leaf): Python ints for rational input, whose canonical
    lines have integer leaves, and peeled QuadExt values for towers.  It is
    built once per arrangement (_ring_matrix), cached on it and read-only."""
    if not hasattr(arr, "_ring"):
        arr._ring = _ring_matrix(arr)
        arr._ring.flags.writeable = False
    return arr._ring


def _ring_matrix(arr: Arrangement) -> np.ndarray:
    leaf = attrgetter("numerator") if arr.radicand is None else _ring_leaf
    rows = [[leaf(x) for x in line.coefficients()] for line in arr.lines]
    return np.array(rows, dtype=object).reshape(-1, 3)


def _int64_coefficients(arr: Arrangement) -> Optional[np.ndarray]:
    """ring_coefficients as int64 when the input is rational and passes the
    int64 gate, else None: decided once per arrangement, cached on it, and
    read-only.  The gate bounds every entry below 2^31, so the cast is exact."""
    if not hasattr(arr, "_int64"):
        arr._int64 = None
        if arr.radicand is None and _kernels.int64_safe(ring_coefficients(arr)):
            arr._int64 = ring_coefficients(arr).astype(np.int64)
            arr._int64.flags.writeable = False
    return arr._int64


def select_backend(arr: Arrangement, backend: str = "auto") -> str:
    """Resolve 'auto' to 'numpy' when the input passes the int64 gate, else
    to 'exact'; 'numpy' past the gate raises ValueError."""
    if backend == "exact":
        return "exact"
    if backend not in ("auto", "numpy"):
        raise ValueError(f"unknown backend {backend!r}")
    if _int64_coefficients(arr) is not None:
        return "numpy"
    if backend == "numpy":
        raise ValueError("backend 'numpy' needs int64-safe integer input")
    return "exact"


def census(arr: Arrangement, backend: str = "auto", table: bool = True) -> AreaCensus:
    """Classify every triple once, in lexicographic i<j<k order.

    Both builders number the area classes by first appearance in that
    order, so they produce identical censuses.  With table=False the int64
    builder writes no class id per triple (class_ids is None), which only
    triples(), per_line_counts and ColoredTripleSystem read; the exact
    builder, whose arithmetic per triple dwarfs the 4 bytes of its id,
    always keeps its table.  Raises CensusMemoryError (check_memory) before
    allocating when the table, and on the int64 path one block, do not fit,
    and before a block whose classes will not fit in the memory left, even
    once the waiting classes are folded.
    """
    chosen = select_backend(arr, backend)
    triples = comb(arr.n, 3)
    if chosen == "exact":
        check_memory(arr.n, 4 * triples, f"{triples} triples at 4 bytes each")
        areas, class_ids, tally = _classify_exact(arr)
        return AreaCensus(arr.n, class_ids, chosen, tally, areas=areas)
    block = BLOCK_BYTES_PER_TRIPLE * min(triples, BLOCK_TRIPLES)
    if table:
        room = check_memory(arr.n, 4 * triples + block, f"{triples} triples at 4 bytes each, plus one block")
    else:
        room = check_memory(arr.n, block, "one block")
    num, den, class_ids, tally, order = _classify_int64(_int64_coefficients(arr), table, room)
    return AreaCensus(arr.n, class_ids, chosen, tally, num=num, den=den, order=order)


class CensusMemoryError(ValueError):
    """The census table of an arrangement does not fit in available memory."""


# per cgroup version (v2, then v1): the memory controller's mount below
# /sys/fs/cgroup, its limit and usage files, and the prefix of the page
# cache entries in its memory.stat
_CGROUP_FILES = (
    ("", "memory.max", "memory.current", ""),
    ("/memory", "memory.limit_in_bytes", "memory.usage_in_bytes", "total_"),
)


def available_memory() -> Optional[int]:
    """Bytes this process may still allocate: MemAvailable from
    /proc/meminfo, lowered to the free room of its cgroup when a limit is
    set: memory.max - memory.current under cgroup v2, memory.limit_in_bytes
    - memory.usage_in_bytes under v1.  The cgroup's file page cache
    (active_file and inactive_file of memory.stat, total_active_file and
    total_inactive_file under v1) counts in the usage but is reclaimed
    before the limit is hit, so it is taken off.  None when nothing can be
    read."""
    found = []
    try:
        with open("/proc/meminfo") as f:
            found += [int(line.split()[1]) * 1024 for line in f if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open("/proc/self/cgroup") as f:
            groups = [line.strip().split(":", 2) for line in f]
    except OSError:
        groups = []
    for group in groups:
        # v2 lists its one hierarchy with no controllers, v1 names them
        if len(group) != 3 or (group[1] and "memory" not in group[1].split(",")):
            continue
        mount, limit_file, usage_file, cache = _CGROUP_FILES[bool(group[1])]
        base = f"/sys/fs/cgroup{mount}{group[2].rstrip('/')}"
        try:
            with open(f"{base}/{limit_file}") as f:
                limit = f.read().strip()
            if limit == "max":
                continue
            with open(f"{base}/{usage_file}") as f:
                used = int(f.read())
            with open(f"{base}/memory.stat") as f:
                stat = dict(line.split() for line in f)
            used -= int(stat.get(f"{cache}active_file", 0)) + int(stat.get(f"{cache}inactive_file", 0))
            found.append(int(limit) - used)
        except (OSError, ValueError):
            pass
    return min(found) if found else None


def check_memory(n: int, need: int, what: str, have: Optional[int] = None) -> Optional[int]:
    """Refuse, with CensusMemoryError, a census of n lines whose next
    allocations (``need`` bytes, spelled out by ``what``) exceed ``have``,
    by default available_memory(); else return the bytes left over, None
    when unknown."""
    if have is None:
        have = available_memory()
    if have is not None and need > have:
        raise CensusMemoryError(
            f"census of n={n} lines needs {need} bytes ({what}), but only {have} bytes are available"
        )
    return None if have is None else have - need


def _classify_exact(arr: Arrangement) -> Tuple[List[Scalar], np.ndarray, np.ndarray]:
    # the C(n,2) pair weights once, then one coefficient determinant per triple
    c = [_peel(line.c) for line in arr.lines]
    w = {(i, j): pair_weight(li, lj) for (i, li), (j, lj) in combinations(enumerate(arr.lines), 2)}
    class_of: Dict[Scalar, int] = {}
    class_ids = np.empty(comb(arr.n, 3), dtype=np.int32)
    tally = [0, 0]  # the parallel, the concurrent, then each class's count
    for rank, (i, j, k) in enumerate(combinations(range(arr.n), 3)):
        area, status = area_from_weights(c[i], c[j], c[k], w[i, j], w[i, k], w[j, k])
        if status != PROPER:
            cid = CONCURRENT_ID if status == CONCURRENT else PARALLEL_ID
        elif (cid := class_of.get(area)) is None:
            cid = class_of[area] = len(class_of)
            tally.append(0)
        class_ids[rank] = cid
        tally[cid - PARALLEL_ID] += 1
    return list(class_of), class_ids, np.array(tally, dtype=np.int64)


def _classify_int64(coeffs: np.ndarray, table: bool, room: Optional[int]) \
        -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray, Optional[np.ndarray]]:
    # Blocks of consecutive (i, j) pairs holding about BLOCK_TRIPLES triples
    # each.  The buffer holds the classes found so far, by first appearance,
    # then the waiting blocks' classes, whose buffer indices the table holds
    # until a fold (_fold) groups the buffer again.  ``room`` bounds the
    # buffer: the waiting classes fold before it is outgrown, and the census
    # is refused only when the classes still do not fit.
    n = len(coeffs)
    total = comb(n, 3)
    class_ids = np.empty(total, dtype=np.int32) if table else None
    weights = _kernels.pair_weights(coeffs)
    third = _kernels.third_lines(weights)
    i, j = np.triu_indices(n, k=1)
    ends = np.cumsum(n - 1 - j)  # triples up to each pair's last
    last = (ends - 1) // BLOCK_TRIPLES  # the block of each pair's last triple
    pair_at = np.concatenate(([0], np.flatnonzero(last[1:] != last[:-1]) + 1, [len(i)]))
    rank_at = np.concatenate(([0], ends))[pair_at]
    # np.empty leaves the unwritten part of the buffer unmapped, so one that
    # doubles when full holds about twice its entries
    classes = np.empty((3, min(total, 4 * BLOCK_TRIPLES)), dtype=np.int64)
    found = held = concurrent = since = 0  # the found classes, the buffer, the concurrent, the first waiting rank
    for p0, p1, t0, t1 in zip(pair_at[:-1], pair_at[1:], rank_at[:-1], rank_at[1:]):
        rows = _kernels.census_int64(coeffs, (i[p0:p1], j[p0:p1]), weights, third)
        concurrent += np.count_nonzero(rows.concurrent)
        ids, first, order = _group(rows.num, rows.den)
        new = rows.num[first], rows.den[first], np.bincount(ids, minlength=len(first))
        if table:
            block = class_ids[t0:t1]
            block.fill(PARALLEL_ID)
            at = rows.positions()
            block[at[rows.concurrent]] = CONCURRENT_ID
            at = at[rows.proper]
        del rows, first
        end = held + len(new[0])
        if held > found and room is not None and BUFFER_BYTES_PER_CLASS * end > room:
            found, _ = _fold(classes, held, class_ids, since, t0)  # the waiting ones may fold into fewer
            held, since = found, t0
            end = held + len(new[0])
        if t0 and room is not None:  # the block bound covers the first block's classes
            check_memory(n, BUFFER_BYTES_PER_CLASS * end, f"up to {end} class entries at "
                         f"{BUFFER_BYTES_PER_CLASS} bytes each after {t1} of {total} triples", room)
        if end > classes.shape[1]:
            grown = np.empty((3, max(end, 2 * classes.shape[1])), dtype=np.int64)
            grown[:, :held] = classes[:, :held]
            classes = grown
            del grown  # or the name keeps the buffer alive to the end
        classes[:, held:end] = new
        if table:  # buffer indices, which the next fold rewrites
            block[at] = ids + held
            del block, at
        del ids, new  # before a fold, or the allocator keeps their pages through it
        lone, held = not held, end  # whether only this block's classes wait
        # a fold due when fewer triples are left than have passed since the
        # last one waits for the end, which folds anyway
        if t1 == total or (held - found >= max(FOLD_RATIO * found, FOLD_ENTRIES) and total - t1 >= t1 - since):
            if not lone:  # else grouped already, and first-appearance ids are final
                held, order = _fold(classes, held, class_ids, since, t1)
            found, since = held, t1
    # a copy frees the buffer, which a fold leaves longer than its classes
    num, den, count = classes[:, :found] if lone else classes[:, :found].copy()
    del classes
    parallel = total - concurrent - int(count.sum())
    return num, den, class_ids, np.concatenate(([parallel, concurrent], count)), order


def _fold(classes: np.ndarray, held: int, class_ids: Optional[np.ndarray], since: int, upto: int) \
        -> Tuple[int, Optional[np.ndarray]]:
    """Group the ``held`` (num, den, count) entries of the class buffer
    again, in place, and rewrite the buffer indices in class_ids[since:upto]
    to class ids.  The classes found before, first in the buffer and
    distinct, keep their ids; new ones come next by first appearance.
    Returns the number of classes and their order from _group."""
    merged, first, order = _group(classes[0, :held], classes[1, :held])
    found = len(first)
    classes[:2, :found] = classes[:2, first]
    del first  # before the counts, as the fold's peak
    count = np.zeros(found, dtype=np.int64)
    np.add.at(count, merged, classes[2, :held])
    classes[2, :found] = count
    del count
    if class_ids is not None:
        # ids -1 and -2 index the last two entries of the lookup table
        merged = np.concatenate((merged, np.array([PARALLEL_ID, CONCURRENT_ID], dtype=np.int32)))
        for r0 in range(since, upto, BLOCK_TRIPLES):
            waiting = class_ids[r0:min(r0 + BLOCK_TRIPLES, upto)]
            waiting[:] = merged[waiting]
    return found, order


def _group(num: np.ndarray, den: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Group equal reduced (num, den) pairs: the class of each pair, classes
    numbered by first appearance, the index of each class's first pair, and
    the classes by increasing key num/den (None after the exact fallback).

    Pairs are sorted by the float64 key num/den.  Equal pairs have equal
    keys; adjacent equal keys are certified to hold equal pairs, and if some
    do not (distinct ratios near 2^62 can round to one float) the pairs are
    grouped exactly with np.lexsort instead."""
    if not len(num):
        return np.zeros(0, np.int32), np.zeros(0, np.int64), np.zeros(0, np.int32)
    key = num / den
    order = np.argsort(key)
    key = key[order]
    new = key[1:] != key[:-1]
    del key
    a, b = order[:-1][~new], order[1:][~new]
    by_key = not ((num[a] != num[b]).any() or (den[a] != den[b]).any())
    if not by_key:
        order = np.lexsort((den, num))
        p, q = num[order], den[order]
        new = (p[1:] != p[:-1]) | (q[1:] != q[:-1])
        del p, q
    run = np.zeros(len(order), dtype=np.int32)  # the run of each sorted pair
    np.cumsum(new, dtype=np.int32, out=run[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(np.concatenate(([True], new))))
    # number the runs by first appearance without sorting: mark each run's
    # first pair, and count the marks up to it
    is_first = np.zeros(len(order), dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first, dtype=np.int32)[first] - 1
    del first
    ids = np.empty(len(order), dtype=np.int32)
    ids[order] = rank[run]
    return ids, np.flatnonzero(is_first), rank if by_key else None


def triples_with_area(
    arr: Arrangement, area: Scalar, cen: Optional[AreaCensus] = None
) -> Iterator[Triple]:
    """Index triples whose triangle has exactly the given area, in order,
    read from ``cen`` (the arrangement's census, built here when not given)."""
    if cen is None:
        cen = census(arr)
    return zip(*(x.tolist() for x in cen.triples(area)))


def per_line_counts(arr: Arrangement, area: Scalar, cen: Optional[AreaCensus] = None) -> List[int]:
    """For each line, how many triangles of the given area use it, read from
    ``cen`` (the arrangement's census, built here when not given)."""
    if cen is None:
        cen = census(arr)
    return np.bincount(np.concatenate(cen.triples(area)), minlength=arr.n).tolist()


def facial_triangles(arr: Arrangement, backend: str = "auto") -> List[Triple]:
    """Proper triples realized as faces, in lexicographic order: no other
    line meets the open triangle.  _kernels.crossing_ranks ranks the
    crossing points along each line, on int64 columns when the gate allows
    and on the ring_coefficients object columns otherwise, and
    _kernels.faces_from_ranks keeps the triples whose sides join
    consecutive crossings.  Raises CensusMemoryError (check_memory) when
    their n x n arrays do not fit."""
    exact = select_backend(arr, backend) == "exact"
    pair = FACIAL_BYTES_PER_PAIR[exact]
    check_memory(arr.n, pair * arr.n**2, f"{arr.n}^2 line pairs at {pair} bytes each for the crossing ranks")
    if exact:
        faces = _kernels.faces_from_ranks(_kernels.crossing_ranks(ring_coefficients(arr)))
    else:
        faces = _kernels.facial_int64(_int64_coefficients(arr))
    return list(map(tuple, faces.tolist()))


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
