"""Dual conics, tangency tests, equal-area hyperbola envelopes, and the
general-position validator.

A conic is carried in dual form: a symmetric 3x3 matrix D with a line
l = (a, b, c) tangent exactly when l D l^T = 0.  Dual form makes "six lines
tangent to one conic" a rank condition on the 6x6 matrix of squared/mixed
coefficient monomials, including degenerate conics (all lines through one
point have dual p p^T).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import List, Optional, Sequence, Tuple

from .arrangement import Arrangement, Line, coefficient_determinant, pair_weight
from .scalars import Scalar, _peel, exact_sign

Matrix = List[List[Scalar]]


def _echelon(rows: Matrix, ncols: int) -> Tuple[Matrix, List[int], int]:
    """Row echelon form by exact Gaussian elimination (any scalar field): the
    rows, the pivot column of each leading row, and the parity of the row
    swaps."""
    m = [list(r) for r in rows]
    cols: List[int] = []
    swaps = 0
    for col in range(ncols):
        row = len(cols)
        if row == len(m):
            break
        piv = next((r for r in range(row, len(m)) if exact_sign(m[r][col]) != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            swaps ^= 1
        top = m[row]
        for r in range(row + 1, len(m)):
            if exact_sign(m[r][col]) != 0:
                f = m[r][col] / top[col]
                m[r][col:] = [v - f * t for v, t in zip(m[r][col:], top[col:])]
        cols.append(col)
    return m, cols, swaps


def det_exact(rows: Matrix) -> Scalar:
    """Determinant by exact Gaussian elimination (any scalar field)."""
    m, cols, swaps = _echelon(rows, len(rows))
    det: Scalar = Fraction(-1 if swaps else 1)
    for row, col in enumerate(cols):
        det = det * m[row][col]
    # singular: zero, in the field of the pivots found
    return det if len(cols) == len(m) else Fraction(0) * det


def rank_exact(rows: Matrix) -> int:
    return len(_echelon(rows, len(rows[0]))[1])


def kernel_vector(rows: Matrix, ncols: int) -> Optional[List[Scalar]]:
    """A nonzero kernel vector of the (underdetermined) system, or None."""
    m, cols, _ = _echelon(rows, ncols)
    free = [c for c in range(ncols) if c not in cols]
    if not free:
        return None
    vec: List[Scalar] = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for row, col in reversed(list(enumerate(cols))):
        r = m[row]
        vec[col] = -sum((r[c] * vec[c] for c in range(col + 1, ncols)), Fraction(0)) / r[col]
    return vec


@dataclass(frozen=True)
class DualConic:
    """Symmetric dual form; tangent(l) iff l D l^T = 0."""

    d11: Scalar
    d12: Scalar
    d13: Scalar
    d22: Scalar
    d23: Scalar
    d33: Scalar

    def value(self, line: Line) -> Scalar:
        a, b, c = line.a, line.b, line.c
        return (
            self.d11 * a * a
            + self.d22 * b * b
            + self.d33 * c * c
            + 2 * (self.d12 * a * b + self.d13 * a * c + self.d23 * b * c)
        )

    def is_tangent(self, line: Line) -> bool:
        return exact_sign(self.value(line)) == 0

    def matrix(self) -> Matrix:
        return [
            [self.d11, self.d12, self.d13],
            [self.d12, self.d22, self.d23],
            [self.d13, self.d23, self.d33],
        ]

    def rank(self) -> int:
        return rank_exact(self.matrix())


UNIT_CIRCLE_DUAL = DualConic(
    Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(-1)
)


def tangent(line: Line, conic: DualConic) -> bool:
    return conic.is_tangent(line)


def _monomial_row(line: Line) -> List[Scalar]:
    a, b, c = line.a, line.b, line.c
    return [a * a, b * b, c * c, a * b, a * c, b * c]


def six_tangent_test(lines: Sequence[Line]) -> bool:
    """True iff the six lines are tangent to a common conic, possibly a
    degenerate one (exact singularity of the 6x6 monomial matrix)."""
    if len(lines) != 6 or len(set(lines)) != 6:
        raise ValueError("exactly 6 distinct lines required")
    return exact_sign(det_exact([_monomial_row(l) for l in lines])) == 0


def five_tangent_conic(lines: Sequence[Line]) -> DualConic:
    """A common tangent conic of any 5 lines (the 5x6 monomial system
    always has a nontrivial kernel)."""
    if len(lines) != 5:
        raise ValueError("exactly 5 lines required")
    vec = kernel_vector([_monomial_row(l) for l in lines], 6)
    assert vec is not None
    w1, w2, w3, w4, w5, w6 = vec
    half = Fraction(1, 2)
    return DualConic(w1, w4 * half, w5 * half, w2, w6 * half, w3)


QUADRANT_SIGNS = {1: (1, 1), 2: (1, -1), 3: (-1, -1), 4: (-1, 1)}
QUADRANT_OF_SIGNS = {signs: q for q, signs in QUADRANT_SIGNS.items()}


def equal_area_conic(
    l1: Line, l2: Line, quadrant: int, lam: Scalar
) -> DualConic:
    """Dual conic of the hyperbola whose tangents cut triangles of area
    ``lam`` from the given quadrant at l1 ^ l2.

    Quadrants are indexed by the sign pair (sign of l1, sign of l2) of the
    canonical coefficient functionals: 1=(+,+), 2=(+,-), 3=(-,-), 4=(-,+).
    In the affine chart (u, v) = (l2(p), l1(p)) the hyperbola is u*v = k
    with k = s1*s2*|J|*lam/2, J the Jacobian of the chart; its dual pulls
    back through the chart matrix.
    """
    if quadrant not in QUADRANT_SIGNS:
        raise ValueError("quadrant must be 1..4")
    if exact_sign(lam) <= 0:
        raise ValueError("area must be positive")
    jac = l2.a * l1.b - l2.b * l1.a
    if exact_sign(jac) == 0:
        raise ValueError("lines are parallel")
    s1, s2 = QUADRANT_SIGNS[quadrant]
    k = abs(jac) * lam * s1 * s2 / 2
    h = [
        [l2.a, l2.b, l2.c],
        [l1.a, l1.b, l1.c],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    hinv = _invert3(h)
    two_k = 2 * k
    canon = [
        [Fraction(0) * k, two_k, Fraction(0) * k],
        [two_k, Fraction(0) * k, Fraction(0) * k],
        [Fraction(0) * k, Fraction(0) * k, Fraction(-1)],
    ]
    d = _mat3(_mat3(hinv, canon), _transpose3(hinv))
    return DualConic(d[0][0], d[0][1], d[0][2], d[1][1], d[1][2], d[2][2])


def _invert3(m: Matrix) -> Matrix:
    det = det_exact(m)
    if exact_sign(det) == 0:
        raise ZeroDivisionError("singular matrix")
    cof = [
        [
            (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
            for i in range(3)
        ]
        for j in range(3)
    ]
    return [[cof[i][j] / det for j in range(3)] for i in range(3)]


def _mat3(x: Matrix, y: Matrix) -> Matrix:
    return [
        [sum((x[i][t] * y[t][j] for t in range(3)), Fraction(0)) for j in range(3)]
        for i in range(3)
    ]


def _transpose3(m: Matrix) -> Matrix:
    return [[m[j][i] for j in range(3)] for i in range(3)]


def triangle_quadrant(l1: Line, l2: Line, g: Line) -> Optional[int]:
    """Quadrant (w.r.t. l1, l2) holding the triangle (l1, l2, g); None when
    the triple is degenerate or g passes through l1 ^ l2.  With D the
    coefficient determinant of (l1, l2, g) and w the pair weights, l1 has
    the sign of D*w(l2, g) at l2 ^ g, and l2 that of -D*w(l1, g) at l1 ^ g."""
    w1g, w2g = pair_weight(l1, g), pair_weight(l2, g)
    if not (w1g and w2g):
        return None
    d = exact_sign(coefficient_determinant(_peel(l1.c), _peel(l2.c), _peel(g.c), pair_weight(l1, l2), w1g, w2g))
    if d == 0:
        return None
    return QUADRANT_OF_SIGNS[d * exact_sign(w2g), -d * exact_sign(w1g)]


@dataclass
class GeneralPositionReport:
    n: int
    parallel_pairs: List[Tuple[int, int]]
    concurrent_triples: List[Tuple[int, int, int]]
    tangent_six: List[Tuple[int, ...]]
    six_checked: int
    six_total: int
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return not (self.parallel_pairs or self.concurrent_triples or self.tangent_six)


def validate_general_position(
    arr: Arrangement,
    exhaustive_cap: int = 3000,
    samples: int = 3000,
    seed: int = 0,
) -> GeneralPositionReport:
    """Flag parallel pairs, concurrent triples, and 6-subsets with a common
    tangent conic.  All C(n,6) subsets are tested when their number is
    within the cap; beyond it, seeded random subsets are sampled and the
    coverage is reported.
    """
    parallel = [
        (i, j)
        for i, j in combinations(range(arr.n), 2)
        if arr.lines[i].is_parallel_to(arr.lines[j])
    ]
    concurrent = arr.concurrent_triples()
    tangent_six: List[Tuple[int, ...]] = []
    total = comb(arr.n, 6) if arr.n >= 6 else 0
    checked = 0
    exhaustive = total <= exhaustive_cap
    if total:
        if exhaustive:
            subsets = combinations(range(arr.n), 6)
        else:
            rng = random.Random(seed)
            pool = range(arr.n)
            subsets = (
                tuple(sorted(rng.sample(pool, 6))) for _ in range(samples)
            )
        for sub in subsets:
            checked += 1
            if six_tangent_test([arr.lines[i] for i in sub]):
                tangent_six.append(tuple(sub))
    return GeneralPositionReport(
        n=arr.n,
        parallel_pairs=parallel,
        concurrent_triples=concurrent,
        tangent_six=tangent_six,
        six_checked=checked,
        six_total=total,
        exhaustive=exhaustive,
    )
