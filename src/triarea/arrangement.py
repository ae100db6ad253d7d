"""Lines, arrangements, exact intersections and triangle areas.

A line is the zero set of ``a*x + b*y + c`` and is stored in a canonical
scaling: all scalar components cleared to integer leaves with overall
content 1, and the first nonzero coefficient positive.  Two Line objects
are equal exactly when they describe the same line, so arrangements can
rely on hashing.

Triangle areas are computed by two independent routes: the coefficient
determinant ``D^2 / (2*|w12*w13*w23|)`` (primary; D = det[a b c] and w the
pair weights a_p*b_q - a_q*b_p) and the reference-frame formula
``scale * (x_j - x_i)^2 / (2*|y_i - y_j|)`` (cross-check), where the frame
parameters of a line are its crossing coordinate along the reference line
and the cotangent of the directed crossing angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from .scalars import (
    QuadExt,
    Scalar,
    ScalarSyntaxError,
    _leaf_numerators,
    _one_like,
    _peel,
    _same_scalar,
    _zero_like,
    exact_sign,
    format_scalar,
    is_rational,
    lift_to,
    parse_scalar,
    rad_equal,
    scalar_floor,
    scalar_radicand,
)

Point = Tuple[Scalar, Scalar]

PROPER = "proper"
CONCURRENT = "concurrent"
HAS_PARALLEL_PAIR = "has_parallel_pair"


class InvalidLineError(ValueError):
    pass


class ArrangementError(ValueError):
    pass


class ArrangementParseError(ArrangementError):
    pass


def _canonical_scale(values: Sequence[Scalar]) -> Fraction:
    """Positive rational multiplier clearing the leaves to content one."""
    parts = [_leaf_numerators(v) for v in values]
    big = lcm(*(d for _, d in parts))
    g = gcd(*(gcd(*nums) * (big // d) for nums, d in parts))
    if g == 0:
        return Fraction(1)
    return Fraction(big, g)


def canonical_tuple(*values: Scalar) -> Tuple[Scalar, ...]:
    """Scale a coefficient tuple to canonical form (content one, first
    nonzero entry positive)."""
    vals = [Fraction(v) if isinstance(v, int) else v for v in values]
    mult = _canonical_scale(vals)
    vals = [v * mult for v in vals]
    for v in vals:
        s = exact_sign(v)
        if s < 0:
            vals = [-u for u in vals]
            break
        if s > 0:
            break
    return tuple(vals)


class Line:
    """A line ``a*x + b*y + c = 0`` in canonical scaling."""

    __slots__ = ("a", "b", "c", "_hash")

    def __init__(self, a, b, c) -> None:
        a, b, c = canonical_tuple(a, b, c)
        if exact_sign(a) == 0 and exact_sign(b) == 0:
            raise InvalidLineError("a and b cannot both vanish")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_hash", hash((a, b, c)))

    def __setattr__(self, *args) -> None:
        raise AttributeError("Line is immutable")

    def coefficients(self) -> Tuple[Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c)

    def direction(self) -> Tuple[Scalar, Scalar]:
        """Primitive canonical direction vector of the line."""
        return canonical_tuple(self.b, -self.a)

    def evaluate(self, p: Point) -> Scalar:
        return self.a * p[0] + self.b * p[1] + self.c

    def is_parallel_to(self, other: "Line") -> bool:
        return exact_sign(self.a * other.b - other.a * self.b) == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Line):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Line({format_scalar(self.a)}, {format_scalar(self.b)}, {format_scalar(self.c)})"


def intersect(l1: Line, l2: Line) -> Optional[Point]:
    """Intersection point, or None for parallel (including equal) lines."""
    w = l1.a * l2.b - l2.a * l1.b
    if exact_sign(w) == 0:
        return None
    px = l1.b * l2.c - l2.b * l1.c
    py = l1.c * l2.a - l2.c * l1.a
    return (px / w, py / w)


def pair_weight(l1: Line, l2: Line) -> Scalar:
    """w = a1*b2 - a2*b1, the homogeneous weight of the crossing of l1 and
    l2; zero exactly for parallel lines.  Zero tower layers are peeled off
    a and b first, so the weight lives in the smallest field that holds it."""
    a1, b1, a2, b2 = _peel(l1.a), _peel(l1.b), _peel(l2.a), _peel(l2.b)
    return a1 * b2 - a2 * b1


def coefficient_determinant(c1, c2, c3, w12, w13, w23) -> Scalar:
    """D = det[a b c] of three lines, expanded along c: c1*w23 - c2*w13 + c3*w12.

    The matrix of the three homogeneous vertices has determinant D^2, so
    twice the signed area of the triangle is D^2 / (w12*w13*w23)."""
    return c1 * w23 - c2 * w13 + c3 * w12


def area_from_weights(c1, c2, c3, w12, w13, w23) -> Tuple[Optional[Scalar], str]:
    """Triangle area D^2 / (2*|w12*w13*w23|) of lines with offsets c1, c2, c3
    and pair weights w (see pair_weight), plus the status; the area is None
    unless the status is PROPER."""
    s = exact_sign(w12) * exact_sign(w13) * exact_sign(w23)
    if s == 0:
        return None, HAS_PARALLEL_PAIR
    d = coefficient_determinant(c1, c2, c3, w12, w13, w23)
    if not d:
        return None, CONCURRENT
    den = w12 * w13 * w23 * 2
    return d * d / (den if s > 0 else -den), PROPER


def triple_area(l1: Line, l2: Line, l3: Line) -> Tuple[Scalar, str]:
    """Triangle area of three lines plus a degeneracy status.

    Returns ``(area, status)`` with status one of PROPER, CONCURRENT,
    HAS_PARALLEL_PAIR; the area is zero unless the status is PROPER.
    """
    area, status = area_from_weights(
        _peel(l1.c), _peel(l2.c), _peel(l3.c),
        pair_weight(l1, l2), pair_weight(l1, l3), pair_weight(l2, l3),
    )
    return (_zero_like(l1.a) if area is None else area), status


@dataclass(frozen=True)
class FrameParam:
    """Crossing coordinate and angle cotangent of a line, relative to a
    reference line's frame."""

    index: int
    x: Scalar
    y: Scalar


def frame_scale(ell: Line) -> Scalar:
    """Squared length of the primitive direction used for frame x."""
    dx, dy = ell.direction()
    return dx * dx + dy * dy


def _base_point(ell: Line) -> Point:
    if exact_sign(ell.b) != 0:
        return (Fraction(0) * ell.b, -ell.c / ell.b)
    return (-ell.c / ell.a, Fraction(0) * ell.a)


def frame_params(ell: Line, others: Iterable[Line]) -> list[FrameParam]:
    """Frame parameters of every line crossing ``ell``.

    Lines parallel to ``ell`` have no crossing and are skipped.  For a
    returned pair, ``frame_scale(ell) * (x_j - x_i)^2 / (2*|y_i - y_j|)``
    is the exact area of the triangle the two lines cut with ``ell``.
    """
    dx, dy = ell.direction()
    p0 = _base_point(ell)
    along_x = exact_sign(dx) != 0
    out: list[FrameParam] = []
    for idx, li in enumerate(others):
        p = intersect(ell, li)
        if p is None:
            continue
        if along_x:
            x = (p[0] - p0[0]) / dx
        else:
            x = (p[1] - p0[1]) / dy
        dot = dx * li.b - dy * li.a
        cross = dx * (-li.a) - dy * li.b
        out.append(FrameParam(index=idx, x=x, y=dot / cross))
    return out


def triple_area_frame(ell: Line, li: Line, lj: Line) -> Tuple[Scalar, str]:
    """Area of the triangle (ell, li, lj) via the frame formula.

    Independent of the coefficient-determinant route; used for cross-checking.
    """
    params = frame_params(ell, [li, lj])
    zero = Fraction(0) * ell.a
    if len(params) < 2:
        return zero, HAS_PARALLEL_PAIR
    (pi, pj) = params
    dy = pi.y - pj.y
    if exact_sign(dy) == 0:
        return zero, HAS_PARALLEL_PAIR
    if exact_sign(pi.x - pj.x) == 0:
        return zero, CONCURRENT
    dxn = pj.x - pi.x
    area = frame_scale(ell) * dxn * dxn / (abs(dy) * 2)
    return area, PROPER


@dataclass(frozen=True)
class AffineMap:
    """Exact affine map ``p -> M p + t``."""

    m11: Scalar
    m12: Scalar
    m21: Scalar
    m22: Scalar
    tx: Scalar
    ty: Scalar

    @staticmethod
    def identity() -> "AffineMap":
        one, zero = Fraction(1), Fraction(0)
        return AffineMap(one, zero, zero, one, zero, zero)

    @staticmethod
    def translation(tx: Scalar, ty: Scalar) -> "AffineMap":
        one, zero = Fraction(1), Fraction(0)
        return AffineMap(one, zero, zero, one, tx, ty)

    @staticmethod
    def vertical_shear(lam: Scalar) -> "AffineMap":
        """(x, y) -> (x, y + lam*x); determinant one."""
        one, zero = Fraction(1), Fraction(0)
        return AffineMap(one, zero, lam, one, zero, zero)

    def det(self) -> Scalar:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply_point(self, p: Point) -> Point:
        x, y = p
        return (self.m11 * x + self.m12 * y + self.tx, self.m21 * x + self.m22 * y + self.ty)

    def inverse(self) -> "AffineMap":
        return self._inverse

    @cached_property
    def _inverse(self) -> "AffineMap":
        """Computed once per map: apply_line reads it for every line."""
        d = self.det()
        i11 = self.m22 / d
        i12 = -self.m12 / d
        i21 = -self.m21 / d
        i22 = self.m11 / d
        return AffineMap(
            i11, i12, i21, i22,
            -(i11 * self.tx + i12 * self.ty),
            -(i21 * self.tx + i22 * self.ty),
        )

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner."""
        return AffineMap(
            self.m11 * inner.m11 + self.m12 * inner.m21,
            self.m11 * inner.m12 + self.m12 * inner.m22,
            self.m21 * inner.m11 + self.m22 * inner.m21,
            self.m21 * inner.m12 + self.m22 * inner.m22,
            self.m11 * inner.tx + self.m12 * inner.ty + self.tx,
            self.m21 * inner.tx + self.m22 * inner.ty + self.ty,
        )

    def apply_line(self, line: Line) -> Line:
        inv = self._inverse
        a, b, c = line.a, line.b, line.c
        return Line(
            a * inv.m11 + b * inv.m21,
            a * inv.m12 + b * inv.m22,
            a * inv.tx + b * inv.ty + c,
        )


def horizontal_map(ell: Line) -> AffineMap:
    """Determinant-one map sending ``ell`` to a horizontal line.

    Areas are exactly preserved, and the primitive direction of the image
    is (1, 0), so the frame of the image has scale one.
    """
    a, b = ell.a, ell.b
    s = a * a + b * b
    zero = Fraction(0) * a
    return AffineMap(b / s, -a / s, a, b, zero, zero)


class Arrangement:
    """A finite set of distinct lines over one scalar field.

    Coefficients may sit at different levels of one radical tower (a chain
    Q, Q(sqrt d1), Q(sqrt d1)(sqrt d2), ...); genuinely incompatible
    radicands are rejected.  ``radicand`` records the deepest level seen.
    """

    def __init__(self, lines: Iterable[Line]) -> None:
        lines = tuple(lines)
        if len(set(lines)) != len(lines):
            raise ArrangementError("duplicate lines in arrangement")
        rad = None
        for line in lines:
            for coeff in line.coefficients():
                r = scalar_radicand(coeff)
                if r is None:
                    continue
                if rad is None or _tower_member(rad, r):
                    rad = r
                elif not _tower_member(r, rad):
                    raise ArrangementError("mixed radicands in one arrangement")
        self.lines = _canonical_field(lines, rad)
        self.radicand = rad
        self._parallel_classes: Optional[dict] = None

    @property
    def n(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[Line]:
        return iter(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.lines == other.lines

    def field_name(self) -> str:
        if self.radicand is None:
            return "Q"
        if isinstance(self.radicand, Fraction) and self.radicand.denominator == 1:
            return f"Q(sqrt {self.radicand.numerator})"
        return "tower"

    def parallel_classes(self) -> dict:
        """Direction key -> list of line indices, cached."""
        if self._parallel_classes is None:
            classes: dict = {}
            for i, line in enumerate(self.lines):
                classes.setdefault(line.direction(), []).append(i)
            self._parallel_classes = classes
        return self._parallel_classes

    def has_parallel_pair(self) -> bool:
        return any(len(v) > 1 for v in self.parallel_classes().values())

    def concurrent_triples(self) -> list[Tuple[int, int, int]]:
        """All index triples meeting in one point (computed on demand): the
        three pair weights are nonzero and the coefficient determinant is 0."""
        c = [_peel(line.c) for line in self.lines]
        w = {(i, j): pair_weight(li, lj) for (i, li), (j, lj) in combinations(enumerate(self.lines), 2)}
        return [
            (i, j, k)
            for i, j, k in combinations(range(self.n), 3)
            if w[i, j] and w[i, k] and w[j, k]
            and not coefficient_determinant(c[i], c[j], c[k], w[i, j], w[i, k], w[j, k])
        ]

    def transform(self, amap: AffineMap) -> "Arrangement":
        return Arrangement([amap.apply_line(line) for line in self.lines])

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        rows = [f"# field: {self.field_name()}"]
        for line in self.lines:
            rows.append(
                f"{format_scalar(line.a)} {format_scalar(line.b)} {format_scalar(line.c)}"
            )
        return "\n".join(rows) + "\n"

    @staticmethod
    def from_text(text: str) -> "Arrangement":
        field: Optional[str] = None
        lines: list[Line] = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            row = raw.strip()
            if not row:
                continue
            if row.startswith("#"):
                body = row[1:].strip()
                if body.lower().startswith("field:"):
                    field = body[len("field:"):].strip()
                continue
            parts = row.split()
            if len(parts) != 3:
                raise ArrangementParseError(f"line {ln}: expected 3 coefficients")
            try:
                coeffs = [parse_scalar(p) for p in parts]
            except ScalarSyntaxError as e:
                raise ArrangementParseError(f"line {ln}: {e}") from e
            try:
                lines.append(Line(*coeffs))
            except InvalidLineError as e:
                raise ArrangementParseError(f"line {ln}: {e}") from e
        if not lines:
            raise ArrangementParseError("no lines in input")
        try:
            arr = Arrangement(lines)
        except ArrangementError as e:
            raise ArrangementParseError(str(e)) from e
        _check_declared_field(field, arr)
        return arr

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @staticmethod
    def load(path: str) -> "Arrangement":
        with open(path, "r", encoding="ascii") as fh:
            return Arrangement.from_text(fh.read())


def _canonical_field(lines: Tuple[Line, ...], rad: Optional[Scalar]) -> Tuple[Line, ...]:
    """Lift all surd coefficients into the deepest tower present.

    Serialized files collapse zero tower layers, so parsed lines can sit in
    sibling representations of one field (sqrt(r2) over Q(sqrt 5) next to
    sqrt(r2) over Q(sqrt 5)(sqrt r1)); arithmetic between them needs one
    shared shape.  Rational coefficients stay rational: they coerce
    anywhere.
    """
    if rad is None or not isinstance(rad, QuadExt):
        return lines
    template = QuadExt(_zero_like(rad), _one_like(rad), rad)
    out = []
    rebuilt = False
    for line in lines:
        coeffs = line.coefficients()
        if all(
            isinstance(c, Fraction) or _same_scalar(scalar_radicand(c), rad)
            for c in coeffs
        ):
            out.append(line)
            continue
        out.append(
            Line(*(c if isinstance(c, Fraction) else lift_to(c, template) for c in coeffs))
        )
        rebuilt = True
    return tuple(out) if rebuilt else lines


def _tower_member(rad: Scalar, deep: Scalar) -> bool:
    """Is rad one of the radicands along deep's tower chain?"""
    probe: Optional[Scalar] = deep
    while probe is not None:
        if rad_equal(rad, probe):
            return True
        probe = probe.rad if isinstance(probe, QuadExt) else None
    return False


def _check_declared_field(field: Optional[str], arr: Arrangement) -> None:
    if field is None:
        return
    actual = arr.field_name()
    normalized = " ".join(field.split())
    if normalized != actual:
        raise ArrangementParseError(
            f"declared field {normalized!r} does not match coefficients ({actual})"
        )


@dataclass(frozen=True)
class ReferenceFrame:
    """Result of choose_reference_frame: a determinant-one change of
    coordinates, the transformed arrangement, and a horizontal reference
    line strictly below every intersection."""

    transform: AffineMap
    arrangement: Arrangement
    ref_line: Line
    shear: int


def choose_reference_frame(arr: Arrangement) -> ReferenceFrame:
    """Shear away horizontal lines, then pick a reference line below all
    intersection points.

    The shear (x, y) -> (x, y + lam*x) has determinant one, so all areas
    are unchanged; lam is the smallest positive integer such that no input
    line becomes (or stays) horizontal.
    """
    lam = 0
    if any(exact_sign(line.a) == 0 for line in arr.lines):
        lam = 1
        while any(exact_sign(line.a - line.b * lam) == 0 for line in arr.lines):
            lam += 1
    amap = AffineMap.vertical_shear(Fraction(lam)) if lam else AffineMap.identity()
    moved = arr.transform(amap) if lam else arr
    y_min: Optional[Scalar] = None
    for l1, l2 in combinations(moved.lines, 2):
        p = intersect(l1, l2)
        if p is None:
            continue
        if y_min is None or exact_sign(p[1] - y_min) < 0:
            y_min = p[1]
    if y_min is None or exact_sign(y_min - Fraction(-1)) > 0:
        y0 = Fraction(-1)
    else:
        y0 = Fraction(scalar_floor(y_min) - 1)
    ref = Line(Fraction(0), Fraction(1), -y0)
    return ReferenceFrame(transform=amap, arrangement=moved, ref_line=ref, shear=lam)
