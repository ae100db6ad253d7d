"""Closed-form bounds and structural invariants as executable checks.

The per-line bound on maximum-area triangles comes from a pair of graphs on
the lines crossing a reference line: edges mark maximum-area triangles
whose crossing order and angle order agree (plus graph) or disagree (minus
graph).  Both graphs are always forests, which caps the number of
maximum-area triangles on any line at 2(n-2).

The edge test is the frame formula with every denominator multiplied out:
one division-free identity between ring elements of the coefficients, for
rational and tower arrangements alike.  Its images in F_P filter the pairs
first, since a ring homomorphism preserves equality; P is 2^31 - 1, or the
first prime below it that suits a tower.  Only pairs whose images agree
take the exact test, and all do when no prime suits (see build_gell_graphs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _kernels
from .arrangement import Arrangement, coefficient_determinant
from .census import (
    AreaCensus,
    _ring_leaf,
    census,
    facial_triangles,
    per_line_counts,
    ring_coefficients,
    triples_with_area,
)
from .scalars import Scalar, _field_of, exact_sign, residue


def kobon_bound(n: int) -> int:
    """Maximum possible number of triangular faces of n lines."""
    if n < 3:
        raise ValueError("n >= 3 required")
    bound = n * (n - 2) // 3
    if n % 6 in (0, 2):
        bound -= 1
    return bound


def hexgrid_facial_formula(n: int) -> int:
    """Closed form for the kagome construction's facial count."""
    if n < 3:
        raise ValueError("n >= 3 required")
    l, j = divmod(n, 6)
    return 6 * l * l if j == 0 else 6 * l * l + 2 * j * l + j - 2


def trigrid_facial_formula(n: int) -> int:
    """Closed form for the triangular-grid construction's facial count.

    Known quirk: at n=4 the formula yields 0 while the construction (and
    the published small-case table) give 1; callers compare with that cell
    flagged instead of forced.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    r = n % 6
    if r == 3:
        l = n // 6
        return 6 * l * l + 6 * l
    if r in (0, 1, 2):
        l, j = n // 6, r
    elif r == 4:
        l, j = (n + 2) // 6, -2
    else:
        l, j = (n + 1) // 6, -1
    return 6 * l * l + 2 * j * l - 2


@dataclass(frozen=True)
class FormulaBounds:
    n: int
    m_lower_hex: int
    m_lower_tri: int
    m_upper: int
    M_lower: int
    M_upper: Fraction
    M_upper_remark: Fraction


def formula_bounds(n: int) -> FormulaBounds:
    """All closed-form bounds evaluated exactly at n."""
    if n < 3:
        raise ValueError("n >= 3 required")
    return FormulaBounds(
        n=n,
        m_lower_hex=hexgrid_facial_formula(n),
        m_lower_tri=trigrid_facial_formula(n),
        m_upper=kobon_bound(n),
        M_lower=5 + 7 * (n // 5 - 1) if n >= 5 else 1,
        M_upper=Fraction(2 * n * (n - 2), 3),
        M_upper_remark=Fraction(n * (n - 1), 3),
    )


@dataclass
class GellGraph:
    """Edge sets over the lines crossing a reference line: an edge is a
    maximum-area triangle on that line, split by whether the sign of the
    crossing-coordinate difference matches the sign of the cotangent
    difference."""

    ell_index: int
    vertices: List[int]
    e_plus: List[Tuple[int, int]]
    e_minus: List[Tuple[int, int]]
    max_area: Scalar

    @property
    def edge_total(self) -> int:
        return len(self.e_plus) + len(self.e_minus)


# the residue filter of build_gell_graphs: the prime for rational input and
# the first candidate for a tower, and how far below it a tower's prime may lie
PRIME = 2**31 - 1
PRIME_SEARCH = 1 << 18


def build_gell_graphs(
    arr: Arrangement, ell_index: int, max_area: Optional[Scalar] = None
) -> GellGraph:
    """Exact plus/minus graphs for the given reference line.

    ``max_area`` defaults to the arrangement's census maximum.  The total
    number of edges equals the number of maximum-area triangles supported
    by the reference line.

    A line p = (a, b, c) crossing the reference line (a0, b0, c0) sits at
    frame coordinate x_p = U_p / (w_p*d) with cotangent y_p = dot_p / cr_p,
    where (dx, dy) is the reference line's primitive direction, w = a0*b -
    a*b0, dot = dx*b - dy*a, cr = -dx*a - dy*b (w up to a nonzero factor),
    and d = dx, U = b0*c - b*c0 (d = dy, U = c0*a - c*a0 when dx = 0).  So
    x_p - x_q = NX/DX and y_p - y_q = NY/DY with NX = U_p*w_q - U_q*w_p,
    DX = w_p*w_q*d, NY = dot_p*cr_q - dot_q*cr_p and DY = cr_p*cr_q.  The
    pair's triangle has area s*(x_p - x_q)^2 / (2*|y_p - y_q|) with
    s = dx^2 + dy^2, so it is an edge exactly when NY != 0 and
    |s*NX^2*DY| = |2*max_area*NY*DX^2|, that is when the two products are
    equal or opposite: no division, and no sign per pair.

    All pairs are first tested at once in F_P, on int64 residues
    (_residue_ring).  A ring homomorphism preserves equality, so a pair
    whose sides map to residues neither equal nor opposite is no edge.
    P = PRIME = 2^31 - 1 for rational input; for a tower, the first prime
    = 3 (mod 4) from PRIME down, within PRIME_SEARCH, that maps every
    level's square root (_Field.residues) and inverts every denominator.
    The other pairs, or all when no prime suits, take the exact test on the
    cached ring_coefficients (Python ints for rational input, with the
    denominator of 2*max_area folded into s; peeled QuadExt values for
    towers).  An edge is plus when sign(NX)*sign(DX) = sign(NY)*sign(DY).
    The test never reads the census table, so the edge totals are an
    independent check of it.
    """
    if max_area is None:
        max_area = census(arr, table=False).max_area
        if max_area is None:
            raise ValueError("arrangement has no proper triangle")
    ring = ring_coefficients(arr)
    a0, b0, _ = ring[ell_index]
    dx, dy = map(_ring_leaf, arr.lines[ell_index].direction())
    s, t = dx * dx + dy * dy, _ring_leaf(2 * max_area)
    if isinstance(t, Fraction):
        s, t = s * t.denominator, t.numerator
    along_x = exact_sign(dx) != 0
    w = ring[:, 1] * a0 - ring[:, 0] * b0
    keep = np.flatnonzero(w.astype(bool))  # the lines crossing ell, ell itself not among them
    p, q = np.triu_indices(len(keep), 1)
    found = _residue_ring(arr)
    images = found and [residue(x, found[1], found[0]) for x in (dx, dy, s, t)]
    if images and None not in images:
        prime, _, phi = found
        lhs, rhs = _identity(phi[keep], phi[ell_index], *images, along_x, p, q, prime)[4:]
        agree = np.flatnonzero((lhs == rhs) | (lhs == prime - rhs))
        p, q = p[agree], q[agree]
    e_plus, e_minus = _exact_edges(keep.tolist(), ring[keep], ring[ell_index], dx, dy, s, t, along_x, p, q)
    return GellGraph(ell_index=ell_index, vertices=keep.tolist(), e_plus=e_plus, e_minus=e_minus, max_area=max_area)


def _identity(rows, ref, dx, dy, s, t, along_x, p, q, prime):
    """NX, DX, NY, DY, s*NX^2*DY and t*NY*DX^2 of build_gell_graphs (t =
    2*max_area) for the pairs (p, q) of rows: on ring elements when prime is
    None, else on int64 residues mod that prime (below 2^31) with every
    product reduced, so that products stay below 2^62 and their sums and
    differences inside int64."""
    red = (lambda x: x) if prime is None else (lambda x: x % prime)
    a, b, c = rows.T
    a0, b0, c0 = ref
    w = red(b * a0 - a * b0)
    u = red(c * b0 - b * c0 if along_x else a * c0 - c * a0)
    dot, cr = red(b * dx - a * dy), red(-(a * dx) - b * dy)
    (wp, up, dotp, crp), (wq, uq, dotq, crq) = ([v[i] for v in (w, u, dot, cr)] for i in (p, q))
    nx = red(up * wq - uq * wp)
    dxx = red(red(wp * wq) * (dx if along_x else dy))
    ny = red(dotp * crq - dotq * crp)
    dyy = red(crp * crq)
    return nx, dxx, ny, dyy, red(red(red(nx * nx) * dyy) * s), red(red(red(ny * dxx) * dxx) * t)


def _exact_edges(keep, rows, ref, dx, dy, s, t, along_x, p, q):
    """The pairs (p, q) of rows that are edges by the exact identity, as
    plus and minus lists of line pairs (keep[p], keep[q]), in order."""
    e_plus: List[Tuple[int, int]] = []
    e_minus: List[Tuple[int, int]] = []
    if not len(p):
        return e_plus, e_minus
    nx, dxx, ny, dyy, lhs, rhs = _identity(rows, ref, dx, dy, s, t, along_x, p, q, None)
    for h in np.flatnonzero((ny != 0) & ((lhs == rhs) | (lhs == -rhs))).tolist():
        plus = exact_sign(nx[h]) * exact_sign(dxx[h]) == exact_sign(ny[h]) * exact_sign(dyy[h])
        (e_plus if plus else e_minus).append((keep[p[h]], keep[q[h]]))
    return e_plus, e_minus


def _residue_ring(arr: Arrangement):
    """(P, field, int64 residues of ring_coefficients) for the filter of
    build_gell_graphs, found once per arrangement and cached on it; None
    when no prime in the search range suits the arrangement's tower."""
    if not hasattr(arr, "_residues"):
        arr._residues, ring = None, ring_coefficients(arr)
        f = None if arr.radicand is None else _field_of(arr.radicand)
        for prime in range(PRIME, max(PRIME - PRIME_SEARCH, 2), -4):
            if (f is None or f.residues(prime)) and _is_prime(prime):
                phi = [residue(x, f, prime) for x in ring.flat]
                if None not in phi:
                    arr._residues = prime, f, np.array(phi, dtype=np.int64).reshape(ring.shape)
                    break
    return arr._residues


def _is_prime(n: int) -> bool:
    """For n = 3 (mod 4), so n - 1 = 2*odd: the strong probable-prime test
    to the bases 2, 3, 5 and 7, which no composite below 3,215,031,751 passes."""
    return n in (3, 7) or n > 7 and all(pow(a, n >> 1, n) in (1, n - 1) for a in (2, 3, 5, 7))


def find_cycle(vertices: List[int], edges: List[Tuple[int, int]]) -> Optional[List[int]]:
    """A cycle's vertex list, or None when the graph is a forest."""
    parent: Dict[int, int] = {v: v for v in vertices}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    adj: Dict[int, List[int]] = {v: [] for v in vertices}
    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru == rv:
            # path u..v through the tree plus edge (u, v)
            return _tree_path(adj, u, v) + [u]
        parent[ru] = rv
        adj[u].append(v)
        adj[v].append(u)
    return None


def _tree_path(adj: Dict[int, List[int]], src: int, dst: int) -> List[int]:
    stack = [(src, [src])]
    seen = {src}
    while stack:
        node, path = stack.pop()
        if node == dst:
            return path
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
    return []


@dataclass
class CheckResult:
    name: str
    passed: bool
    skipped: bool = False
    detail: str = ""
    witnesses: List = field(default_factory=list)


@dataclass
class BoundsReport:
    n: int
    checks: List[CheckResult]
    max_area: Optional[str] = None
    min_area: Optional[str] = None
    remark_edge_bound_violations: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)


def verify_arrangement(arr: Arrangement, cen: Optional[AreaCensus] = None) -> BoundsReport:
    """Run every structural invariant on one arrangement, with witnesses.

    Hard checks: facial count within the Kobon bound; every minimum-area
    triangle facial; per-line maximum-area count at most 2(n-2) with both
    graphs forests and edge totals matching the census; every other line
    meets the interior of each maximum-area triangle or is parallel to one
    of its sides; and, in arrangements with no parallel pair, all
    maximum-area triangles on a line lying on one side of it.  The n-1
    edge-total remark is tallied separately and never fails the report.
    """
    from .scalars import format_scalar

    n = arr.n
    if n < 3:
        raise ValueError("n >= 3 required")
    if cen is None:
        cen = census(arr)
    checks: List[CheckResult] = []
    faces = facial_triangles(arr)
    kb = kobon_bound(n)
    checks.append(
        CheckResult(
            name="facial_count_within_kobon_bound",
            passed=len(faces) <= kb,
            detail=f"{len(faces)} <= {kb}",
        )
    )

    min_area = cen.min_area
    max_area = cen.max_area
    if min_area is None:
        checks.append(
            CheckResult(
                name="min_area_triangles_all_facial",
                passed=True,
                skipped=True,
                detail="no proper triangle",
            )
        )
    else:
        face_set = set(faces)
        bad = [t for t in triples_with_area(arr, min_area, cen) if t not in face_set]
        checks.append(
            CheckResult(
                name="min_area_triangles_all_facial",
                passed=not bad,
                detail=f"{cen.min_area_count} minimum-area triangles",
                witnesses=bad[:5],
            )
        )

    if max_area is None:
        for name in (
            "per_line_max_area_within_2n_minus_4",
            "edge_graphs_are_forests",
            "edge_totals_match_census",
            "interior_or_parallel_for_max_area",
            "max_area_same_side_per_line",
        ):
            checks.append(
                CheckResult(name=name, passed=True, skipped=True, detail="no proper triangle")
            )
        return BoundsReport(n=n, checks=checks)

    plc = per_line_counts(arr, max_area, cen=cen)
    cap = 2 * (n - 2)
    over = [i for i, c in enumerate(plc) if c > cap]
    checks.append(
        CheckResult(
            name="per_line_max_area_within_2n_minus_4",
            passed=not over,
            detail=f"max per-line count {max(plc)} <= {cap}",
            witnesses=over[:5],
        )
    )

    cycle_witness = []
    mismatch = []
    remark_viol: List[Tuple[int, int]] = []
    for idx in range(n):
        gg = build_gell_graphs(arr, idx, max_area)
        for tag, edges in (("plus", gg.e_plus), ("minus", gg.e_minus)):
            cyc = find_cycle(gg.vertices, edges)
            if cyc is not None:
                cycle_witness.append((idx, tag, cyc))
        if gg.edge_total != plc[idx]:
            mismatch.append((idx, gg.edge_total, plc[idx]))
        if gg.edge_total > n - 1:
            remark_viol.append((idx, gg.edge_total))
    checks.append(
        CheckResult(
            name="edge_graphs_are_forests",
            passed=not cycle_witness,
            witnesses=cycle_witness[:3],
        )
    )
    checks.append(
        CheckResult(
            name="edge_totals_match_census",
            passed=not mismatch,
            witnesses=mismatch[:5],
        )
    )

    # The sign of line g at the crossing of lines i and j, without the
    # vertex: g.(l_i x l_j) = D(l_i, l_j, g) and the crossing's homogeneous
    # weight is w_ij, so g's side there is sign(D)*sign(w_ij).
    ring = ring_coefficients(arr)
    c, w = ring[:, 2], _kernels.pair_weights(ring)
    crossing = w.astype(bool)

    def sides(i: int, j: int) -> np.ndarray:
        return np.sign(coefficient_determinant(c[i], c[j], c, w[i, j], w[i], w[j])) * exact_sign(w[i, j])

    bad_interior = []
    max_triples = list(triples_with_area(arr, max_area, cen))
    apex_sides = []  # each triple's lines i, j, k at the opposite vertex
    for (i, j, k) in max_triples:
        sij, sik, sjk = sides(i, j), sides(i, k), sides(j, k)
        # a line meets the open triangle when it separates two vertices;
        # lines parallel to a side, the triangle's own among them, are skipped
        meets = ((sij > 0) | (sik > 0) | (sjk > 0)) & ((sij < 0) | (sik < 0) | (sjk < 0))
        misses = crossing[i] & crossing[j] & crossing[k] & ~meets
        bad_interior += [(g, (i, j, k)) for g in np.flatnonzero(misses).tolist()]
        apex_sides.append((sjk[i], sik[j], sij[k]))
    checks.append(
        CheckResult(
            name="interior_or_parallel_for_max_area",
            passed=not bad_interior,
            detail=f"{len(max_triples)} maximum-area triangles",
            witnesses=bad_interior[:5],
        )
    )

    if arr.has_parallel_pair():
        checks.append(
            CheckResult(
                name="max_area_same_side_per_line",
                passed=True,
                skipped=True,
                detail="arrangement has parallel lines",
            )
        )
    else:
        side_bad = []
        for idx in range(n):
            # the side of each triangle on this line, none of them 0
            on_line = [(t, s[t.index(idx)]) for t, s in zip(max_triples, apex_sides) if idx in t]
            side_bad += [(idx, t) for t, s in on_line if s != on_line[0][1]]
        checks.append(
            CheckResult(
                name="max_area_same_side_per_line",
                passed=not side_bad,
                witnesses=side_bad[:5],
            )
        )

    return BoundsReport(
        n=n,
        checks=checks,
        max_area=format_scalar(max_area),
        min_area=format_scalar(min_area),
        remark_edge_bound_violations=remark_viol,
    )
