"""Array paths for the triangle census and the facial triangles.

Rational arrangements in canonical form have integer coefficients; when the
coefficient magnitudes certify that every intermediate fits in int64 (see
int64_safe), both run on machine integers.  The census kernel is one
vectorized numpy pass over the triples (i, j, k), j < k, of a run of
(i, j) pairs, in lexicographic i<j<k order, with the same formula as the
exact path: area D^2 / (2*|w12*w13*w23|), D the coefficient determinant
and w the pair weights from one n x n table; parallel pairs are dropped
before they are expanded into triples, the third lines of a pair skip the
large direction classes of its two lines (third_lines, so a
three-direction grid expands only its triples with a line of each
direction, about a third of the rows), and only proper triples are
reduced.  It returns masks per row, not positions (CensusRows), so a
census that writes no table never forms them.  census.py calls it block
by block, so its int64 temporaries are O(block) and not O(C(n,3)); called
without pairs it covers all C(n,3) triples.  combo_index_arrays and
combo_rank map between a rank in that order and its triple.  Facial
triangles have one algorithm for every field: sort the crossing points
along each line (crossing_ranks, one division-free routine for int64
columns and for numpy object columns of Python ints or tower elements)
and keep the triples whose three sides join consecutive crossings
(faces_from_ranks), O(n^2 log n) in all.  Exact arithmetic in census.py
remains the fallback and the ground truth.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import comb
from typing import NamedTuple

import numpy as np

from .scalars import exact_sign, float_ratio

# crossing rank of a parallel pair and of a line with itself
NO_CROSSING = -2


def int64_safe(coeffs: np.ndarray) -> bool:
    """True when every census and crossing-order intermediate provably fits
    in int64.

    With A = max(|a|,|b|) and C = max(|c|, A): pair weights w are at most
    2*A^2, the coefficient determinant |D| = |c1*w23 - c2*w13 + c3*w12| at
    most 6*A^2*C, its square at most 36*A^4*C^2 and the denominator
    2*|w12*w13*w23| at most 16*A^6.  The crossing order along a line
    compares N_p*W_q with N_q*W_p, where N = a*Y - b*X is at most 4*A^2*C
    and W at most 2*A^2: each product is at most 8*A^4*C and their
    difference 16*A^4*C.  The gate tests 48*A^4*C^2, which covers D^2 and,
    since C >= 1 whenever A >= 1, the crossing order.
    """
    a = np.abs(coeffs[:, 0]).max(initial=0)
    b = np.abs(coeffs[:, 1]).max(initial=0)
    c = np.abs(coeffs[:, 2]).max(initial=0)
    A = int(max(a, b))
    C = int(max(c, A))
    lim = 2**62
    return 48 * A**4 * C**2 < lim and 16 * A**6 < lim and 6 * A**2 * C < lim


def combo_index_arrays(n: int, ranks: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (I, J, K) of the i<j<k triples at the given ranks in
    lexicographic order, or of all C(n,3) triples when ranks is None."""
    # the triples (i, j, *) of one pair i<j are consecutive, the pairs come
    # in lexicographic order, and pair (i, j) has n-1-j of them
    i, j = np.triu_indices(n, k=1)
    if ranks is None:
        K, I, J = pair_triples(n, j, i, j)
        return I, J, K
    sizes = n - 1 - j
    start = np.cumsum(sizes) - sizes
    pair = np.searchsorted(start, ranks, side="right") - 1
    return i[pair], j[pair], j[pair] + 1 + ranks - start[pair]


def pair_triples(n: int, j: np.ndarray, *per_pair: np.ndarray) -> tuple[np.ndarray, ...]:
    """The third lines K of the triples (i, j, k), j < k < n, of pairs with
    the given second lines j, pair by pair and k increasing, then each
    array of per_pair values repeated along its pair's triples."""
    return _runs(n - 1 - j, j + 1, *per_pair)


def _runs(sizes: np.ndarray, first: np.ndarray, *per_pair: np.ndarray) -> tuple[np.ndarray, ...]:
    """The runs first[p], first[p] + 1, ..., of sizes[p] values, pair by
    pair, then each array of per_pair values repeated along its pair's run."""
    start = np.cumsum(sizes) - sizes
    K = np.arange(int(sizes.sum())) - np.repeat(start - first, sizes)
    return (K, *(np.repeat(x, sizes) for x in per_pair))


def combo_rank(n: int, i, j, k) -> np.ndarray:
    """Lexicographic rank of each triple {i, j, k} among the C(n,3) triples
    i<j<k, the inverse of combo_index_arrays; the three columns may come in
    any order."""
    i, j, k = (np.asarray(x, dtype=np.int64) for x in (i, j, k))
    lo = np.minimum(np.minimum(i, j), k)
    hi = np.maximum(np.maximum(i, j), k)
    i, j, k = lo, i + j + k - lo - hi, hi

    def c2(m):
        return m * (m - 1) // 2

    def c3(m):
        return m * (m - 1) * (m - 2) // 6

    # triples led by a line before i, then those led by (i, j') with i<j'<j
    return c3(n) - c3(n - i) + c2(n - i - 1) - c2(n - j) + (k - j - 1)


def pair_weights(coeffs: np.ndarray) -> np.ndarray:
    """The n x n table w[p, q] = a_p*b_q - a_q*b_p."""
    a, b = coeffs[:, 0], coeffs[:, 1]
    return np.outer(a, b) - np.outer(b, a)


class ThirdLines(NamedTuple):
    """The third lines of each crossing pair (i, j): lines[first[at] :
    first[at] + count[at]], increasing, with at = row[i] + col[j]."""

    row: np.ndarray
    col: np.ndarray
    first: np.ndarray
    count: np.ndarray
    lines: np.ndarray


# a direction class is split off when its triples with two lines in it and
# one outside are at least this share of the C(n,3) triples: a split costs
# one gather per expanded row, too little to measure, and the share keeps
# the classes split off few (each holds about 8.6% of the lines or more)
SPLIT_SHARE = 0.02


def third_lines(weights: np.ndarray) -> ThirdLines | None:
    """Third lines by direction, for census_int64, from the pair weights of
    an arrangement; None when no direction class is split off.

    A triple with two parallel lines is never proper, so the third lines of
    a crossing pair (i, j) need not include the lines parallel to i or j.
    Each direction class D whose triples with exactly two lines in D are at
    least SPLIT_SHARE of all triples is split off: its lines are third
    lines only of pairs with no line in D.  The other lines, the rest, are
    third lines of every pair, and census_int64 drops their parallel
    triples after D.  With L classes split off, a pair's third lines
    depend on the classes of i and j (one of L + 1, the rest counting as
    one) and on j, so they are a run of one of (L + 1)^2 sorted lists.  On
    a three-direction grid of m lines per direction a pair of two
    directions expands the m lines of the third: m^3 rows in all, against
    about 2/3 of C(3m,3) without the split.
    """
    n = len(weights)
    if n < 3:
        return None
    cls = np.argmax(weights == 0, axis=1)  # the first line parallel to each, itself included
    size = np.bincount(cls, minlength=n)
    split = np.flatnonzero(size * (size - 1) // 2 * (n - size) >= SPLIT_SHARE * comb(n, 3))
    if not len(split):
        return None
    m = len(split) + 1
    group = np.full(n, m - 1)
    group[split] = np.arange(m - 1)
    group = group[cls]  # the class of each line, m - 1 for the rest
    u = np.arange(m)
    rest = group == m - 1
    # the lines of each (class of i, class of j), one list per row
    keep = ((group != u[:, None, None]) & (group != u[None, :, None]) | rest).reshape(m * m, n)
    upto = np.cumsum(keep, axis=1)  # kept lines up to each j
    total = upto[:, -1:]
    first = np.cumsum(total) - total[:, 0]
    return ThirdLines(group * (m * n), group * n + np.arange(n),
                      (first[:, None] + upto).ravel(), (total - upto).ravel(), np.nonzero(keep)[1])


class CensusRows(NamedTuple):
    """census_int64's result: per crossing pair, ``base`` (its triple
    (i, j, k) sits at base + k) and ``size``, its rows; per row, one per
    third line, ``k`` and whether the triple is ``concurrent`` or
    ``proper``; per proper row, the reduced area ``num``/``den``."""

    base: np.ndarray
    size: np.ndarray
    k: np.ndarray
    concurrent: np.ndarray
    proper: np.ndarray
    num: np.ndarray
    den: np.ndarray

    def positions(self) -> np.ndarray:
        """The position of each row among the pairs' triples."""
        return np.repeat(self.base, self.size) + self.k


def census_int64(coeffs: np.ndarray, pairs: tuple[np.ndarray, np.ndarray] | None = None,
                 weights: np.ndarray | None = None, third: ThirdLines | None = None) -> CensusRows:
    """The triples (i, j, k), j < k, of the given (i, j) pairs, or of all
    C(n,3) triples when pairs is None, as CensusRows, with the pair weights
    from ``weights`` (pair_weights(coeffs) when not given): the reduced area
    D^2 / (2*|w12*w13*w23|) of arrangement.area_from_weights of each proper
    triple, and per row whether it is concurrent or proper.  A position
    counts the pairs' triples in lexicographic order, the rows' order; the
    others have a parallel pair.  Only the third lines k > j of ``third``
    (third_lines) are expanded, or every k > j when it is None."""
    n = len(coeffs)
    if weights is None:
        weights = pair_weights(coeffs)
    i, j = np.triu_indices(n, k=1) if pairs is None else pairs
    size = n - 1 - j
    base = np.cumsum(size) - size - j - 1  # triple (i, j, k) is at base + k
    w12 = weights[i, j]
    crossing = w12 != 0  # a pair of parallel lines has weight 0 and no proper triple
    if not crossing.all():
        i, j, w12, base = i[crossing], j[crossing], w12[crossing], base[crossing]
    if third is None:
        size, first = n - 1 - j, j + 1
    else:
        at = third.row[i] + third.col[j]
        size, first = third.count.take(at), third.first.take(at)
    c = coeffs[:, 2]
    # repeats of per-pair values and flat takes beat gathers and 2-D
    # indexing; w13 and w23 start as the flat offsets of rows i and j
    K, w13, w23, ci, cj, w12 = _runs(size, first, i * n, j * n, c[i], c[j], w12)
    if third is not None:
        K = third.lines.take(K)
    w13 = weights.ravel().take(w13 + K)
    w23 = weights.ravel().take(w23 + K)
    d = ci * w23 - cj * w13 + c[K] * w12
    den = w12 * w13
    den *= w23
    del ci, cj, w12, w13, w23
    # one filter after D beats one before it on its six inputs; a zero weight here joins
    # distinct parallel lines, (a_k, b_k) = t*(a_i, b_i), so D = w12*(c_k - t*c_i) != 0
    proper = den != 0
    conc = d == 0
    proper ^= conc
    if not proper.all():
        d, den = d[proper], den[proper]
    num = d * d
    np.abs(den, out=den)
    den *= 2
    g = np.gcd(num, den)
    num //= g
    den //= g
    return CensusRows(base, size, K, conc, proper, num, den)


def crossing_ranks(coeffs: np.ndarray) -> np.ndarray:
    """Rank matrix R for faces_from_ranks: R[i, j] is the rank of the point
    i∩j among the distinct crossing points on line i, ordered along the line.

    One routine, with no division in the field, for int64 columns inside
    the gate and for numpy object columns of ring elements
    (census.ring_coefficients).  The crossing sits at parameter N/W along
    line i, with N = a_i*Y - b_i*X for the homogeneous crossing (X, Y, W)
    and W made positive.  Rows are sorted by a float key near N/W (float64
    division on int64, float_ratio on objects); every adjacent pair is then
    compared exactly as N_p*W_q against N_q*W_p, which gives equal points
    one rank and sends a misordered row, or a crossing with an infinite
    key, to _exact_order.  Inside the gate 8*A^4*C < 2^50 (see int64_safe),
    so distinct crossings differ by more than 2^-50 of their size and their
    float keys never tie or misorder; the exact pass certifies this instead
    of relying on it.
    """
    a, b, c = (coeffs[:, m, None] for m in range(3))
    X = b * c.T - b.T * c
    Y = c * a.T - c.T * a
    W = a * b.T - a.T * b
    N = (a * Y - b * X) * np.sign(W)
    W = np.abs(W)
    crosses = W != 0
    if coeffs.dtype == object:
        key = np.frompyfunc(float_ratio, 2, 1)(N, W).astype(float)  # inf where W = 0
    else:
        key = np.divide(N, W, out=np.full(W.shape, np.inf), where=crosses)
    order = np.argsort(key, axis=1, kind="stable")
    # parallel lines sort last (key inf), so in a row whose crossings have
    # finite keys a valid right end means a valid pair
    resort = (crosses & np.isinf(key)).any(axis=1)
    del key
    Ns = np.take_along_axis(N, order, axis=1)
    Ws = np.take_along_axis(W, order, axis=1)
    valid = np.take_along_axis(crosses, order, axis=1)
    paired = valid[:, 1:]
    d = np.sign(Ns[:, :-1] * Ws[:, 1:] - Ns[:, 1:] * Ws[:, :-1])
    for i in np.flatnonzero(resort | ((d > 0) & paired).any(axis=1)):
        order[i] = _exact_order(N[i], W[i], crosses[i])
        Ns[i], Ws[i], valid[i] = N[i, order[i]], W[i, order[i]], crosses[i, order[i]]
        d[i] = np.sign(Ns[i, :-1] * Ws[i, 1:] - Ns[i, 1:] * Ws[i, :-1])
    ranks = np.zeros(order.shape, dtype=np.int64)
    np.cumsum((d < 0) & paired, axis=1, out=ranks[:, 1:])
    ranks[~valid] = NO_CROSSING
    R = np.empty_like(ranks)
    np.put_along_axis(R, order, ranks, axis=1)
    return R


def _exact_order(n: np.ndarray, w: np.ndarray, crosses: np.ndarray) -> np.ndarray:
    """The columns of one row: the crossings sorted exactly by n/w (w > 0),
    comparing n_p*w_q with n_q*w_p, then the others in index order."""
    n, w = n.tolist(), w.tolist()
    by_n_over_w = cmp_to_key(lambda p, q: exact_sign(n[p] * w[q] - n[q] * w[p]))
    cols = sorted(np.flatnonzero(crosses).tolist(), key=by_n_over_w)
    return np.concatenate((np.array(cols, dtype=np.int64), np.flatnonzero(~crosses)))


def faces_from_ranks(R: np.ndarray) -> np.ndarray:
    """Facial triangles (i, j, k), i<j<k, as an (m, 3) array in lexicographic
    order, from a crossing-rank matrix (NO_CROSSING for parallel pairs and
    the diagonal).

    A proper triple is facial iff, on each of its three lines, its two
    vertices are consecutive distinct crossing points: a line meeting the
    open triangle crosses an open side, and a line crossing an open side
    enters the triangle.  Concurrent triples have rank difference 0 and
    drop out.  Each face is found once, from its smallest line i, among
    the pairs j, k > i at ranks r and r+1 on line i.
    """
    n = len(R)
    upper = np.triu(R >= 0, k=1)
    i, j = np.nonzero(upper)
    g = i * n + R[i, j]  # one group per distinct crossing point on line i
    order = np.argsort(g, kind="stable")
    g, i, j = g[order], i[order], j[order]
    lo = np.searchsorted(g, g + 1, side="left")
    cnt = np.searchsorted(g, g + 1, side="right") - lo
    left = np.repeat(np.arange(len(g)), cnt)
    right = np.arange(int(cnt.sum())) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
    i, j, k = i[left], j[left], j[right]
    facial = (np.abs(R[j, i] - R[j, k]) == 1) & (np.abs(R[k, i] - R[k, j]) == 1)
    faces = np.stack([i, np.minimum(j, k), np.maximum(j, k)], axis=1)[facial]
    return faces[np.lexsort(faces.T[::-1])]


def facial_int64(coeffs: np.ndarray) -> np.ndarray:
    """Facial triangles of an int64-safe arrangement, as faces_from_ranks."""
    return faces_from_ranks(crossing_ranks(coeffs))
