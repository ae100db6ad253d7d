"""Arrangement generators: three-direction grids, the pentagon, the
incidence-extremal instance, scalings, and seeded random arrangements.

The grids use directions (1,0), (0,1), (1,-1) -- an affine image of the
60-degree triangular/kagome grids.  Face counts, concurrences and
area-equality classes are affine invariants, so every combinatorial claim
about the true grids holds verbatim for these rational models.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .arrangement import Arrangement, Line
from .scalars import QuadExt, Scalar, exact_sign


def _famA(o: Scalar) -> Line:
    """y = o"""
    return Line(Fraction(0), Fraction(1), -o)


def _famB(o: Scalar) -> Line:
    """x = o"""
    return Line(Fraction(1), Fraction(0), -o)


def _famC(o: Scalar) -> Line:
    """x + y = o"""
    return Line(Fraction(1), Fraction(1), -o)


def hexgrid(n: int) -> Arrangement:
    """First n lines of the kagome stream: three families at half-integer
    offsets, added layer by layer from the center, each layer's six lines in
    a fixed clockwise order.  No three lines are concurrent (offsets of a
    concurrent triple would satisfy o_A + o_B = o_C with all three
    half-integers, impossible mod 1).
    """
    if n < 3:
        raise ValueError("hexgrid needs n >= 3")
    lines: List[Line] = []
    i = 1
    while len(lines) < n:
        o = Fraction(2 * i - 1, 2)
        layer = [_famA(o), _famC(o), _famB(o), _famA(-o), _famC(-o), _famB(-o)]
        lines.extend(layer)
        i += 1
    return Arrangement(lines[:n])


def trigrid(n: int) -> Arrangement:
    """First n lines of the triangular grid closest to a fixed center.

    For n = 3 mod 6 the center is a grid vertex: three concurrent center
    lines, then complete six-line layers.  Otherwise the center is a face
    center, and lines arrive in groups of three at increasing distance.
    """
    if n < 3:
        raise ValueError("trigrid needs n >= 3")
    lines: List[Line] = []
    if n % 6 == 3:
        zero = Fraction(0)
        lines = [_famA(zero), _famB(zero), _famC(zero)]
        i = 1
        while len(lines) < n:
            o = Fraction(i)
            lines.extend(
                [_famA(o), _famB(o), _famC(o), _famA(-o), _famB(-o), _famC(-o)]
            )
            i += 1
    else:
        t = 0
        while len(lines) < n:
            up, down = Fraction(t + 1), Fraction(-t)
            lines.extend([_famA(down), _famB(down), _famC(up)])
            lines.extend([_famA(up), _famB(up), _famC(down)])
            t += 1
    return Arrangement(lines[:n])


def pentagon() -> Arrangement:
    """Side lines of a regular pentagon, squashed vertically into Q(sqrt 5).

    The true pentagon needs sin 36 which is not quadratic over Q; scaling
    one axis is an affine map, so the size of the maximum-area group (5) and
    all incidence structure survive exactly.
    """
    r5 = QuadExt(Fraction(0), Fraction(1), Fraction(5))
    c36 = (1 + r5) / 4  # cos 36
    two_c36 = (1 + r5) / 2
    one = Fraction(1)
    rows = [
        (c36, one, -c36),
        ((1 - r5) / 4, two_c36, -c36),
        (Fraction(-1), Fraction(0), -c36),
        ((1 - r5) / 4, -two_c36, -c36),
        (c36, -one, -c36),
    ]
    return Arrangement([Line(*row) for row in rows])


def st_extremal(k: int) -> Tuple[Arrangement, Line]:
    """Arrangement of 3k^3 lines plus a reference line supporting >= k^4
    unit-area triangles.

    The grid points {1..k} x {1..2k^2} and the lines y = m*x + b for
    m in {1..k}, b in {1..k^2} meet in exactly k^4 incidences; pulling both
    through the inverse lift turns each incidence into a unit-area triangle
    on the reference line.  A parameter pair (x0, y0) becomes the line
    through (x0, 0) with cotangent y0: x - y0*y - x0 = 0.
    """
    if k < 1:
        raise ValueError("st_extremal needs k >= 1")
    params: List[Tuple[Fraction, Fraction]] = []
    for p in range(1, k + 1):
        for q in range(1, 2 * k * k + 1):
            params.append((Fraction(p), Fraction(q + p * p, 2)))
    for m in range(1, k + 1):
        for b in range(1, k * k + 1):
            params.append((Fraction(-m, 2), Fraction(4 * b - m * m, 8)))
    assert len(set(params)) == len(params)
    lines = [param_line(x0, y0) for (x0, y0) in params]
    ell = Line(Fraction(0), Fraction(1), Fraction(0))
    return Arrangement(lines + [ell]), ell


def param_line(x0: Scalar, y0: Scalar) -> Line:
    """Line crossing the x-axis at x0 with cotangent y0 (vertical if y0=0)."""
    return Line(Fraction(1), -y0, -x0)


def scale(arr: Arrangement, factor: Scalar) -> Arrangement:
    """Uniform scaling about the origin; every area gains a factor^2."""
    if exact_sign(factor) <= 0:
        raise ValueError("scale factor must be positive")
    return Arrangement([Line(l.a, l.b, l.c * factor) for l in arr.lines])


def scale_to_unit_min(arr: Arrangement) -> Arrangement:
    """Area-rescale so the minimum triangle area becomes exactly 1.

    Uses the anisotropic unit-determinant-breaking map (x, y) -> (x/m, y)
    with m the current minimum area: every area is multiplied by exactly
    1/m, which stays inside the field even when 1/m has no square root
    there.  Census group structure is unchanged.
    """
    from .census import census

    cen = census(arr)
    m = cen.min_area
    if m is None:
        raise ValueError("arrangement has no proper triangle")
    return Arrangement([Line(l.a * m, l.b, l.c) for l in arr.lines])


def random_arrangement(
    n: int,
    seed: int,
    coeff_bound: int = 40,
    offset_bound: int = 400,
) -> Arrangement:
    """Seeded random rational arrangement of n distinct lines.

    Bounds keep canonical coefficients small enough for the int64 census
    fast path.
    """
    rng = random.Random(seed)
    lines: List[Line] = []
    seen = set()
    while len(lines) < n:
        a = rng.randint(-coeff_bound, coeff_bound)
        b = rng.randint(-coeff_bound, coeff_bound)
        c = rng.randint(-offset_bound, offset_bound)
        if a == 0 and b == 0:
            continue
        ln = Line(Fraction(a), Fraction(b), Fraction(c))
        if ln in seen:
            continue
        seen.add(ln)
        lines.append(ln)
    return Arrangement(lines)


def random_general_position(
    n: int,
    seed: int,
    coeff_bound: int = 40,
    offset_bound: int = 400,
) -> Arrangement:
    """Seeded random arrangement with no parallel pair and no concurrent
    triple (enforced by rejection during incremental construction).

    The crossings of the accepted lines are kept as homogeneous integer
    vertices (X, Y, W); a candidate (a, b, c) is concurrent with two of them
    when a*X + b*Y + c*W = 0 at one vertex.  That sum is at most
    6*coeff_bound^2*offset_bound in size, so it runs on int64 when this is
    below 2^62 and on Python ints otherwise.
    """
    rng = random.Random(seed)
    lines: List[Line] = []
    directions = set()
    dtype = np.int64 if 6 * coeff_bound**2 * abs(offset_bound) < 2**62 else object
    abc = np.zeros((3, n), dtype=dtype)  # drawn coefficients of the accepted lines
    xyw = np.zeros((3, n * (n - 1) // 2), dtype=dtype)  # their crossings
    m = 0  # crossings so far
    while len(lines) < n:
        a = rng.randint(-coeff_bound, coeff_bound)
        b = rng.randint(-coeff_bound, coeff_bound)
        c = rng.randint(-offset_bound, offset_bound)
        if a == 0 and b == 0:
            continue
        ln = Line(Fraction(a), Fraction(b), Fraction(c))
        d = ln.direction()
        if d in directions:
            continue
        x, y, w = xyw[:, :m]
        if (a * x + b * y + c * w == 0).any():
            continue
        k = len(lines)
        pa, pb, pc = abc[:, :k]
        xyw[:, m : m + k] = (b * pc - pb * c, c * pa - pc * a, a * pb - pa * b)
        abc[:, k] = (a, b, c)
        m += k
        directions.add(d)
        lines.append(ln)
    return Arrangement(lines)
