"""Chained maximum-area construction: 5(k+1) lines with >= 5+7k triangles
of maximum area.

One round combines the running arrangement L with a fresh pentagon K of the
same maximum area A:

 1. For each part, find a *safe strip*: two parallel boundary lines, not
    parallel to any line of the part, with no vertex of the part between
    them, such that each boundary would cut only sub-maximum triangles.
    Gate segments across the strip beyond all crossings give a rectangle;
    any line entering one gate and leaving the other crosses every line of
    the part inside the strip, and every triangle it forms with two part
    lines is strictly contained in a sub-maximum boundary triangle.  The
    strip search compares its probes by integer enclosures first, and
    exactly only where these meet.
 2. Place the parts by determinant-one maps: L's strip horizontal and tall,
    K's strip vertical and wide, so each part's lines thread the other's
    gates.  The union then has exactly T(L) + T(K) maximum triangles.  Each
    scale lam = 2^i is tested on the normalized lines alone, as a move by
    (x, y) -> (-mu*y, x/mu) with mu = lam^2, and the placed lines are built
    once, for the lam found.
 3. Slide K's image horizontally to the first parameter where some mixed
    triple reaches area A (smallest positive root of the per-triple
    quadratics; roots may require adjoining a square root to the scalar
    field).  Integer interval arithmetic on the bounds of the lines'
    offsets, slide rates and pair weights encloses each triple's slide
    determinant, then its two roots; exact determinants and roots are
    formed only for the triples whose enclosures can hold the smallest.
 4. Slide again along the contact triangle's own anchor line, which keeps
    that triangle rigid, until a second mixed triple reaches A.

Every within-part area is translation invariant, so the construction
certifies at least T(L) + T(K) + 2 maximum-area triangles, each an exact
root of its defining equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .arrangement import (
    AffineMap,
    Arrangement,
    Line,
    coefficient_determinant,
    horizontal_map,
    pair_weight,
)
from .constructions import pentagon
from .scalars import (
    QuadExt,
    Scalar,
    _bounds,
    _bounds_order,
    _isqrt_bounds,
    _peel,
    _precision_schedule,
    _product_bounds,
    exact_sign,
    lift_to,
    sqrt_exact,
)


class ChainError(RuntimeError):
    """Construction left its provable envelope (should not happen)."""


def _weights(l1: Line, l2: Line, l3: Line, weight=pair_weight) -> Optional[Tuple[Scalar, Scalar, Scalar]]:
    """Pair weights (w12, w13, w23), or None when two lines are parallel."""
    w = (weight(l1, l2), weight(l1, l3), weight(l2, l3))
    return None if 0 in map(exact_sign, w) else w


def _translate_line(line: Line, vx: Scalar, vy: Scalar) -> Line:
    return Line(line.a, line.b, line.c - (line.a * vx + line.b * vy))


@dataclass
class SafeStrip:
    """Horizontal safe strip of a part after normalization: boundaries
    y = lo and y = hi, gate x-positions at +-gate_x."""

    lo: Scalar
    hi: Scalar
    gate_x: Scalar


def _strip_direction(lines: Sequence[Line]) -> int:
    """Smallest integer r such that (1, r) is parallel to no line."""
    r = 0
    while any(exact_sign(l.a + l.b * r) == 0 for l in lines):
        r += 1
    return r


def _max_new_area(parabolas, tau: Scalar) -> Scalar:
    best = None
    for alpha, root in parabolas:
        d = tau - root
        val = alpha * d * d
        if best is None or exact_sign(val - best) > 0:
            best = val
    return best


def _max_new_area_bounds(enclosed, tau: Scalar, bits: int) -> Tuple[int, int]:
    """Integers enclosing _max_new_area at tau scaled by 2^(3*bits), from
    the enclosures (alpha, root) of the parabolas at 2^bits (_bounds)."""
    t_lo, t_hi = _bounds(tau, bits)
    vals = []
    for alpha, (r_lo, r_hi) in enclosed:
        d = (t_lo - r_hi, t_hi - r_lo)
        vals.append(_product_bounds(alpha, _product_bounds(d, d)))
    return max(lo for lo, _ in vals), max(hi for _, hi in vals)


def _find_safe_interval(
    lines: Sequence[Line], r: int, max_area: Scalar
) -> Tuple[Scalar, Scalar]:
    """Boundaries tau' < tau'' for strip lines -r*x + y = tau: no vertex
    offset inside, both boundary lines cut only sub-maximum triangles.

    The cutting areas form parabolas in tau, one per line pair, vanishing
    where the strip line meets that pair's vertex: sliding the strip line
    to tau gives D(tau) = D0 + tau*D1 (_slide_determinant), so the vertex
    offset is -D0/D1 and the area D(tau)^2/(2|W|) has leading coefficient
    D1^2/(2|W|).  Their max is convex and dips strictly below the maximum
    area (adding a minimizing line would otherwise support two maximum
    triangles on opposite sides, impossible when nothing is parallel).  A
    quartering search finds a sub-maximum point, then the interval shrinks
    until it clears all vertex offsets.  Each comparison of a probe's max
    with the maximum area or another probe's reads enclosures
    (_max_new_area_bounds) along the precision schedule, and exact values
    only where these still meet at its last precision.
    """
    strip_line = Line(Fraction(-r), Fraction(1), Fraction(0))
    offsets = []
    parabolas = []
    for l1, l2 in combinations(lines, 2):
        # r makes the strip line parallel to no line, so None means l1 || l2
        slide = _slide_determinant([l1, l2], [strip_line], Fraction(0), Fraction(1))
        if slide is None:
            raise ChainError("parts must have no parallel pair")
        d0, d1, w = slide
        root = -d0 / d1
        offsets.append(root)
        parabolas.append((d1 * d1 / (2 * abs(w)), root))

    enclosures = {}  # per precision: the parabolas' (alpha, root) and max_area's

    def order(s, t=None):
        """Order of the max at s against the max at t, or against max_area."""
        for bits in _precision_schedule():
            if bits not in enclosures:
                enclosures[bits] = (
                    [(_bounds(alpha, bits), _bounds(root, bits)) for alpha, root in parabolas],
                    _bounds(max_area, bits),
                )
            enclosed, (a_lo, a_hi) = enclosures[bits]
            s_lo, s_hi = _max_new_area_bounds(enclosed, s, bits)
            t_lo, t_hi = (a_lo << 2 * bits, a_hi << 2 * bits) if t is None else _max_new_area_bounds(enclosed, t, bits)
            if s_hi < t_lo or t_hi < s_lo:
                return -1 if s_hi < t_lo else 1
        return exact_sign(_max_new_area(parabolas, s) - (max_area if t is None else _max_new_area(parabolas, t)))

    lo = hi = offsets[0]
    for o in offsets[1:]:
        if exact_sign(o - lo) < 0:
            lo = o
        if exact_sign(o - hi) > 0:
            hi = o
    lo, hi = lo - 1, hi + 1
    tau = None
    for _ in range(300):
        quarter = (hi - lo) / 4
        probes = [lo + quarter, lo + 2 * quarter, lo + 3 * quarter]
        tau = next((t for t in probes if order(t) < 0), None)
        if tau is not None:
            break
        # keep the convex minimizer bracketed
        if order(probes[0], probes[2]) <= 0:
            hi = probes[2]
        else:
            lo = probes[0]
    if tau is None:
        raise ChainError("no sub-maximum strip position found")

    # nudge off a vertex offset if we landed on one
    gap = None
    for o in offsets:
        d = abs(o - tau)
        if exact_sign(d) != 0 and (gap is None or exact_sign(d - gap) < 0):
            gap = d
    if gap is None:
        gap = Fraction(1)
    while any(exact_sign(o - tau) == 0 for o in offsets):
        tau = tau + gap / 2
        gap = gap / 2
        if order(tau) >= 0:
            raise ChainError("vertex nudge left the sub-maximum region")

    delta = gap / 2
    while True:
        t1, t2 = tau - delta, tau + delta
        if order(t1) < 0 and order(t2) < 0:
            return t1, t2
        delta = delta / 2


def _normalize_part(lines: Sequence[Line], max_area: Scalar) -> Tuple[List[Line], SafeStrip]:
    """Map the part by one determinant-one map so its safe strip is the
    horizontal band lo <= y <= hi centered at zero, and compute gates."""
    r = _strip_direction(lines)
    t1, t2 = _find_safe_interval(lines, r, max_area)
    amap = horizontal_map(Line(Fraction(-r), Fraction(1), Fraction(0)))
    # amap's second row is the canonical strip line's (a, b) = +-(-r, 1), so
    # it sends the strip line -r*x + y = t to y = m22*t
    amap = AffineMap.translation(Fraction(0), -amap.m22 * (t1 + t2) / 2).compose(amap)
    moved = [amap.apply_line(l) for l in lines]
    half = (t2 - t1) / 2
    gate = None
    for l in moved:
        for yy in (-half, half):
            # crossing of l with the boundary y = yy (l is never horizontal)
            x = abs((-l.c - l.b * yy) / l.a)
            if gate is None or exact_sign(x - gate) > 0:
                gate = x
    return moved, SafeStrip(lo=-half, hi=half, gate_x=gate + 1)


_ROT90 = AffineMap(Fraction(0), Fraction(-1), Fraction(1), Fraction(0), Fraction(0), Fraction(0))


def _threads(line: Line, strip: SafeStrip, mu: Scalar) -> bool:
    """Does the line, moved by (x, y) -> (-mu*y, x/mu), cross both gate
    segments x = +-gate_x, lo < y < hi of the strip?  The moved line is
    -(b/mu)*x + a*mu*y + c = 0."""
    if exact_sign(line.a) == 0:
        return False
    for sgn in (1, -1):
        y = (line.b * strip.gate_x * sgn / mu - line.c) / (line.a * mu)
        if exact_sign(y - strip.lo) <= 0 or exact_sign(strip.hi - y) <= 0:
            return False
    return True


def _place_parts(
    part_l: Sequence[Line], part_k: Sequence[Line], max_area: Scalar
) -> Tuple[List[Line], List[Line]]:
    """Determinant-one placements making every line of each part thread the
    other part's gates, with no parallel pair across parts.

    The placements are L scaled by (x, y) -> (x/lam, lam*y) and K scaled
    alike, then turned by _ROT90, for the first lam = 2^i that works.  Seen
    from either part's unscaled frame, the other part's placed lines are
    its normalized lines moved by (x, y) -> (-mu*y, x/mu), mu = lam^2, up to
    a point reflection that keeps the centred strips.  So _threads tests
    each lam on the normalized lines, lines are parallel across the parts
    exactly when a_l*a_k*mu^2 + b_l*b_k = 0, and the placed lines are built
    once, after lam is found."""
    base_l, strip_l = _normalize_part(part_l, max_area)
    base_k, strip_k = _normalize_part(part_k, max_area)
    lam = 1
    for _ in range(64):
        mu = lam * lam
        if (
            all(_threads(g, strip_l, mu) for g in base_k)
            and all(_threads(l, strip_k, mu) for l in base_l)
            and all(exact_sign(l.a * g.a * mu * mu + l.b * g.b) for l in base_l for g in base_k)
        ):
            scale = AffineMap(Fraction(1, lam), Fraction(0), Fraction(0), Fraction(lam), Fraction(0), Fraction(0))
            turn = _ROT90.compose(scale)
            return [scale.apply_line(l) for l in base_l], [turn.apply_line(g) for g in base_k]
        lam *= 2
    raise ChainError("no unimodular placement found")


@dataclass
class _Root:
    """Candidate slide parameter: value = alpha + beta*sqrt(rad) over the
    current field (beta = 0, rad = None for in-field roots)."""

    alpha: Scalar
    beta: Scalar
    rad: Optional[Scalar]

    def value(self) -> Scalar:
        return self.alpha if self.rad is None else self._surd

    @cached_property
    def _surd(self) -> QuadExt:
        return QuadExt(self.alpha, self.beta, self.rad)


def _root_sign(root: _Root) -> int:
    return exact_sign(root.value())


def _roots_equal(r1: _Root, r2: _Root) -> bool:
    if r1.rad is None and r2.rad is None:
        return exact_sign(r1.alpha - r2.alpha) == 0
    if (r1.rad is None) != (r2.rad is None):
        return False  # an in-field value never equals a proper surd
    u = r1.alpha - r2.alpha
    if exact_sign(u) != 0:
        # equality would force sqrt(rad) into the base field
        return False
    if exact_sign(r1.beta) != exact_sign(r2.beta):
        return False
    return exact_sign(r1.beta * r1.beta * r1.rad - r2.beta * r2.beta * r2.rad) == 0


def _roots_compare(r1: _Root, r2: _Root) -> int:
    """Exact comparison of candidate roots, possibly across different
    radical extensions of the same base field."""
    if _roots_equal(r1, r2):
        return 0
    if r1.rad is not None and r2.rad is not None and _same_rad(r1.rad, r2.rad):
        return exact_sign(r1.value() - r2.value())
    order = _bounds_order(r1.value(), r2.value())
    if order is None:
        raise ChainError("slide roots did not separate at maximum precision")
    return order


def _same_rad(d1: Scalar, d2: Scalar) -> bool:
    try:
        return exact_sign(d1 - d2) == 0
    except (TypeError, ValueError):
        return False


def _field_height(x: Scalar) -> int:
    return x.height if isinstance(x, QuadExt) else 0


def _slide_determinant(
    fixed: Sequence[Line], moving: Sequence[Line], vx: Scalar, vy: Scalar, weight=pair_weight
) -> Optional[Tuple[Scalar, Scalar, Scalar]]:
    """(D0, D1, W) of the triple (fixed lines first) as the moving lines
    translate by t*(vx, vy): twice its signed area is D(t)^2/W with
    D(t) = D0 + t*D1.  None when degenerate for all t (parallel pair).

    A translation keeps a and b, so the pair weights and W = w12*w13*w23
    stay put, and moves each offset linearly, c(t) = c - t*(a*vx + b*vy);
    the coefficient determinant is linear in the offsets."""
    lines = list(fixed) + list(moving)
    w = _weights(*lines, weight=weight)
    if w is None:
        return None
    rates = [Fraction(0)] * len(fixed) + [-(_peel(l.a) * vx + _peel(l.b) * vy) for l in moving]
    d0 = coefficient_determinant(*(_peel(l.c) for l in lines), *w)
    d1 = coefficient_determinant(*rates, *w)
    return d0, d1, w[0] * w[1] * w[2]


def _slide_bounds(c, w, rate, w_rate) -> Tuple[Tuple[int, int], ...]:
    """Integer enclosures of a triple's (D0, D1, W) from the _bounds of its
    offsets c, its weights w = (w12, w13, w23), and the rate and weight
    whose product is D1 (see _first_contact)."""
    (c1, c2, c3), (w12, w13, w23) = c, w
    x, y, z = _product_bounds(c1, w23), _product_bounds(c2, w13), _product_bounds(c3, w12)
    d0 = (x[0] - y[1] + z[0], x[1] - y[0] + z[1])
    return d0, _product_bounds(rate, w_rate), _product_bounds(_product_bounds(w12, w13), w23)


def _contact_roots(d0: Scalar, d1: Scalar, den: Scalar, target: Scalar, field: Scalar) -> List[_Root]:
    """Exact roots t of D(t)^2/den = target, then of D(t)^2/den = -target,
    with D(t) = d0 + t*d1 and d1 nonzero, lifted into the ambient field.

    Each is the quadratic c2 t^2 + c1 t + c0 -+ target with (c0, c1, c2) =
    (d0^2, 2*d0*d1, d1^2)/den.  As c1^2 = 4*c0*c2, its discriminant is
    +-4*c2*target, which stays in the field of the weights.  Its square root
    is sought there first; only when there is none does the squareness test
    run on its lift into the ambient field, where the levels above may hold
    a root (5 has none in Q, but one in Q(sqrt 5)).
    """
    def root(alpha: Scalar, beta: Scalar = Fraction(0), rad: Optional[Scalar] = None) -> _Root:
        return _Root(lift_to(alpha, field), beta if rad is None else lift_to(beta, field), rad)

    over_den = 1 / den
    c2 = d1 * d1 * over_den
    c1 = 2 * d0 * d1 * over_den
    roots = []
    for sgn in (1, -1):
        disc = 4 * sgn * c2 * target
        if exact_sign(disc) < 0:
            continue
        own = _peel(disc)
        r = sqrt_exact(own)
        disc = lift_to(own, field)
        if r is None and _field_height(disc) > _field_height(own):
            r = sqrt_exact(disc)
        if r is not None:
            roots += [root((-c1 + r) / (2 * c2)), root((-c1 - r) / (2 * c2))]
        else:
            inv = 1 / (2 * c2)
            roots += [root(-c1 * inv, inv, disc), root(-c1 * inv, -inv, disc)]
    return roots


def _cross_triples(nl: int, nk: int):
    for i, j in combinations(range(nl), 2):
        for g in range(nk):
            yield ((i, j), (g,))
    for i in range(nl):
        for g, h in combinations(range(nk), 2):
            yield ((i,), (g, h))


def _candidate_bounds(d0, d1, den, target):
    """Integer enclosures (lo, hi, e_lo, e_hi) of the two real contact roots
    (c +- s)/e, with c = -d0*sign(d1), s = sqrt(|den|*target) and e = |d1|,
    from enclosures (lo, hi) of d0, d1, den and target, den*target scaled
    as d0^2: a root lies in [lo/e_hi, hi/e_lo] when lo > 0, and is <= 0
    when hi <= 0.  None when d1's or den's sign is left open."""
    (w_lo, w_hi), (e_lo, e_hi) = den, d1
    if w_lo <= 0 <= w_hi or e_lo <= 0 <= e_hi:
        return None
    c_lo, c_hi = d0
    if e_lo > 0:
        c_lo, c_hi = -c_hi, -c_lo
    w_lo, w_hi = sorted(map(abs, (w_lo, w_hi)))
    e_lo, e_hi = sorted(map(abs, (e_lo, e_hi)))
    t_lo, t_hi = target
    s_lo, s_hi = _isqrt_bounds(w_lo * max(t_lo, 0), w_hi * t_hi)
    return (c_lo + s_lo, c_hi + s_hi, e_lo, e_hi), (c_lo - s_hi, c_hi - s_lo, e_lo, e_hi)


def _first_contact(
    lines_l: Sequence[Line],
    lines_k: Sequence[Line],
    vx: Scalar,
    vy: Scalar,
    max_area: Scalar,
    field: Scalar,
) -> Tuple[_Root, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Smallest positive slide parameter at which a mixed triple reaches
    double area +-2*max_area, with the witnessing triple.

    Each triple's (D0, D1, W) is enclosed from bounds (_slide_bounds); a
    D1 enclosure of (0, 0) shows it rigid, and a triple whose D1 or W sign
    is open gets its exact determinant at once.  Exact roots are found
    only for triples with a root that may be positive and at most U, the
    smallest upper end of the certainly positive root enclosures, or with
    open signs; while more than one survives, the next precision of the
    scalars' schedule filters them again.  Every triple holding the
    smallest root is kept, in order, so on ties the earliest still wins."""
    target = 2 * max_area
    weight = cache(pair_weight)  # a slide keeps a and b, so each pair's weight holds throughout
    lines = list(lines_k) + list(lines_l)  # fixed lines first, as in _slide_determinant
    nk = len(lines_k)
    offsets = [_peel(l.c) for l in lines]
    # D1 = det[a b r], r = -(a*vx + b*vy) on the moving lines, is 0 with r on
    # all three, so also det[a b -r] with -r on the fixed lines alone.  On
    # the side with one line it is that line's rate times the weight of
    # the other two, and exactly 0 for a rigid triple.
    rates = [_peel(l.a) * vx + _peel(l.b) * vy for l in lines]
    rates[nk:] = [-x for x in rates[nk:]]

    def exact(triple):
        il, ik = triple
        return _slide_determinant([lines_k[g] for g in ik], [lines_l[i] for i in il], vx, vy, weight)

    slides = [((il, ik), (*ik, *(nk + i for i in il)), None) for il, ik in _cross_triples(len(lines_l), nk)]
    for bits in _precision_schedule():
        c = [_bounds(x, bits) for x in offsets]
        r = [_bounds(x, bits) for x in rates]
        w = {(p, q): _bounds(weight(lines[p], lines[q]), bits) for p, q in combinations(range(len(lines)), 2)}
        t = _bounds(target, bits)
        bounds = []
        for (il, ik), (p, q, s), slide in slides:
            single, pair = (p, (q, s)) if len(ik) == 1 else (s, (p, q))
            d0, d1, den = _slide_bounds((c[p], c[q], c[s]), (w[p, q], w[p, s], w[q, s]), r[single], w[pair])
            if d1 == (0, 0):
                continue  # rigid under this slide
            cands = _candidate_bounds(d0, d1, den, t)
            if cands is None and slide is None:
                slide = exact((il, ik))
                if slide is None or not slide[1]:
                    continue  # a parallel pair, or rigid under this slide
            bounds.append((((il, ik), (p, q, s), slide), cands))
        u_num, u_den = 1, 0  # U as a fraction, +infinity until a root is certainly positive
        for lo, hi, e_lo, _ in (cand for _, cands in bounds for cand in cands or ()):
            if lo > 0 and hi * u_den < u_num * e_lo:
                u_num, u_den = hi, e_lo
        slides = [
            s for s, cands in bounds
            if cands is None or any(hi > 0 and lo * u_den <= u_num * e_hi for lo, hi, _, e_hi in cands)
        ]
        if len(slides) <= 1:
            break

    best: Optional[_Root] = None
    best_triple = None
    for triple, _, slide in slides:
        for root in _contact_roots(*(slide or exact(triple)), target, field):
            if _root_sign(root) <= 0:
                continue
            if best is None or _roots_compare(root, best) < 0:
                best = root
                best_triple = triple
    if best is None:
        raise ChainError("slide never reaches the maximum area")
    return best, best_triple


def _ambient_field(lines: Sequence[Line], max_area: Scalar) -> Scalar:
    """Deepest-tower scalar in play, used as the lifting template."""
    field = max_area
    h = _field_height(field)
    for l in lines:
        for c in (l.a, l.b, l.c):
            hc = _field_height(c)
            if hc > h:
                field, h = c, hc
    return field


def combine(part_l: Arrangement, part_k: Arrangement, max_area: Scalar) -> Arrangement:
    """One chaining round; both parts must have no parallel pair and share
    the same exact maximum triangle area."""
    lines_l, lines_k = _place_parts(list(part_l.lines), list(part_k.lines), max_area)
    field = _ambient_field(lines_l + lines_k, max_area)

    # slide 1: horizontal, to the first mixed maximum-area triangle
    t1, triple1 = _first_contact(
        lines_l, lines_k, Fraction(1), Fraction(0), max_area, field
    )
    tv = t1.value()
    zero = tv - tv
    lines_l = [_translate_line(l, tv, zero) for l in lines_l]
    if t1.rad is not None:
        field = tv

    # slide 2: along the contact triangle's anchor so it stays rigid
    il, ik = triple1
    anchor = lines_k[ik[0]] if len(ik) == 1 else lines_l[il[0]]
    dx, dy = anchor.direction()
    t2, _ = _first_contact(lines_l, lines_k, dx, dy, max_area, field)
    sv = t2.value()
    lines_l = [_translate_line(l, dx * sv, dy * sv) for l in lines_l]

    return Arrangement(lines_l + lines_k)


def max_chain(k: int) -> Arrangement:
    """Arrangement of 5(k+1) lines with at least 5+7k maximum-area
    triangles, all of area equal to the pentagon's maximum."""
    if k < 0:
        raise ValueError("k >= 0 required")
    arr = pentagon()
    if k == 0:
        return arr
    a_max = pentagon_max_area()
    for _ in range(k):
        arr = combine(arr, pentagon(), a_max)
    return arr


def pentagon_max_area() -> Scalar:
    """Exact maximum triangle area of the pentagon model: 5/4 + (5/8)*sqrt 5."""
    return QuadExt(Fraction(5, 4), Fraction(5, 8), Fraction(5))
