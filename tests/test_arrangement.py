"""Lines, intersections, areas by two routes, frames and file round-trips."""

import math
from fractions import Fraction as F
from functools import cache
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triarea.arrangement import (
    CONCURRENT,
    HAS_PARALLEL_PAIR,
    PROPER,
    AffineMap,
    Arrangement,
    ArrangementError,
    ArrangementParseError,
    FrameParam,
    InvalidLineError,
    Line,
    choose_reference_frame,
    frame_params,
    frame_scale,
    horizontal_map,
    intersect,
    triple_area,
    triple_area_frame,
)
from triarea.chain import max_chain
from triarea.scalars import QuadExt, exact_sign, format_scalar


def q5(a, b):
    return QuadExt(F(a), F(b), F(5))


coords = st.integers(min_value=-30, max_value=30)


def random_lines(seed_ints):
    out = []
    for a, b, c in seed_ints:
        if a == 0 and b == 0:
            continue
        ln = Line(F(a), F(b), F(c))
        if ln not in out:
            out.append(ln)
    return out


line_triples = st.lists(
    st.tuples(coords, coords, coords), min_size=3, max_size=3
).filter(lambda ts: all(a or b for a, b, c in ts))


def shoelace_float(l1, l2, l3):
    """Float oracle: intersect numerically, apply the shoelace formula."""

    def pt(u, v):
        det = u.a * v.b - v.a * u.b
        if det == 0:
            return None
        x = (u.b * v.c - v.b * u.c) / det
        y = (u.c * v.a - v.c * u.a) / det
        return (float(x), float(y))

    ps = [pt(l1, l2), pt(l1, l3), pt(l2, l3)]
    if any(p is None for p in ps):
        return None
    (x1, y1), (x2, y2), (x3, y3) = ps
    return abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) / 2


class TestLine:
    def test_canonical_scaling(self):
        assert Line(F(1, 2), F(-1, 3), F(5)) == Line(3, -2, 30)
        assert Line(-2, 4, -6) == Line(1, -2, 3)
        assert Line(0, -3, 6) == Line(0, 1, -2)

    def test_sign_rule_first_nonzero_positive(self):
        ln = Line(0, -3, 6)
        assert exact_sign(ln.b) > 0
        ln2 = Line(-1, 5, 0)
        assert exact_sign(ln2.a) > 0

    def test_invalid(self):
        with pytest.raises(InvalidLineError):
            Line(0, 0, 1)

    def test_hash_consistency(self):
        assert hash(Line(2, 4, 6)) == hash(Line(1, 2, 3))
        assert len({Line(2, 4, 6), Line(1, 2, 3)}) == 1

    def test_quadext_canonicalization(self):
        ln = Line(q5(F(1, 2), F(1, 2)), q5(1, 0), q5(0, 0))
        assert ln == Line(q5(1, 1), q5(2, 0), q5(0, 0))

    def test_direction_primitive(self):
        assert Line(0, 2, -1).direction() == (F(1), F(0))
        assert Line(3, -6, 1).direction() == (F(-2), F(-1)) or Line(
            3, -6, 1
        ).direction() == (F(2), F(1))

    def test_evaluate(self):
        assert Line(1, 1, -1).evaluate((F(1), F(0))) == 0
        assert Line(1, 1, -1).evaluate((F(0), F(0))) == -1


class TestIntersect:
    def test_basic(self):
        assert intersect(Line(1, 0, 0), Line(0, 1, 0)) == (F(0), F(0))
        assert intersect(Line(1, 0, -2), Line(1, -1, 0)) == (F(2), F(2))

    def test_parallel_none(self):
        assert intersect(Line(1, 1, 0), Line(1, 1, -3)) is None
        assert intersect(Line(1, 1, 0), Line(2, 2, 0)) is None

    @given(line_triples)
    def test_point_on_both(self, ts):
        lines = random_lines(ts)
        if len(lines) < 2:
            return
        p = intersect(lines[0], lines[1])
        if p is not None:
            assert lines[0].evaluate(p) == 0
            assert lines[1].evaluate(p) == 0


class TestTripleArea:
    def test_unit_right_triangle(self):
        area, status = triple_area(Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1))
        assert status == PROPER
        assert area == F(1, 2)

    def test_statuses(self):
        assert triple_area(Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 0))[1] == CONCURRENT
        assert (
            triple_area(Line(1, 0, 0), Line(1, 0, -3), Line(0, 1, 0))[1]
            == HAS_PARALLEL_PAIR
        )

    def test_area_positive_and_orientation_free(self):
        l1, l2, l3 = Line(1, 0, 0), Line(0, 1, 0), Line(2, 3, -6)
        a0 = triple_area(l1, l2, l3)[0]
        for perm in [(l1, l3, l2), (l2, l1, l3), (l3, l2, l1)]:
            assert triple_area(*perm)[0] == a0
        assert exact_sign(a0) > 0

    def test_quadext_area(self):
        r5 = q5(0, 1)
        area, status = triple_area(
            Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -r5)
        )
        assert status == PROPER
        assert area == q5(F(5, 2), 0)

    @given(line_triples)
    @settings(max_examples=150)
    def test_matches_float_oracle(self, ts):
        lines = random_lines(ts)
        if len(lines) < 3:
            return
        area, status = triple_area(*lines)
        want = shoelace_float(*lines)
        if want is None:
            assert status == HAS_PARALLEL_PAIR
        elif status == PROPER:
            assert float(area) == pytest.approx(want, rel=1e-9, abs=1e-9)
        else:
            assert want == pytest.approx(0, abs=1e-7)

    @given(line_triples)
    @settings(max_examples=150)
    def test_two_routes_agree(self, ts):
        lines = random_lines(ts)
        if len(lines) < 3:
            return
        a1, s1 = triple_area(*lines)
        a2, s2 = triple_area_frame(*lines)
        if s1 == HAS_PARALLEL_PAIR or s2 == HAS_PARALLEL_PAIR:
            # the frame route cannot see triangles whose two non-reference
            # lines are parallel to each other only if they miss ell
            assert s1 != PROPER or s2 != PROPER or a1 == a2
        else:
            assert s1 == s2
            assert a1 == a2


def vertex_determinant_area(l1, l2, l3):
    """Oracle: the area from the 3x3 determinant of the three homogeneous
    vertices, det / (2*w12*w13*w23), with every product in the lines' own
    tower."""

    def vertex(p, q):
        return (p.b * q.c - q.b * p.c, p.c * q.a - q.c * p.a, p.a * q.b - q.a * p.b)

    p1, p2, p3 = vertex(l1, l2), vertex(l1, l3), vertex(l2, l3)
    if any(exact_sign(p[2]) == 0 for p in (p1, p2, p3)):
        return None, HAS_PARALLEL_PAIR
    det = (
        p1[0] * (p2[1] * p3[2] - p2[2] * p3[1])
        - p1[1] * (p2[0] * p3[2] - p2[2] * p3[0])
        + p1[2] * (p2[0] * p3[1] - p2[1] * p3[0])
    )
    if exact_sign(det) == 0:
        return None, CONCURRENT
    return abs(det / (p1[2] * p2[2] * p3[2] * 2)), PROPER


def assert_matches_vertex_oracle(l1, l2, l3):
    area, status = triple_area(l1, l2, l3)
    want, want_status = vertex_determinant_area(l1, l2, l3)
    assert status == want_status
    if status == PROPER:
        assert area == want
        assert format_scalar(area) == format_scalar(want)
    else:
        assert exact_sign(area) == 0


@st.composite
def near_gate_triples(draw):
    # integer lines at the edge of the int64 gate (48*A^4*C^2 < 2^62), with
    # a shared direction or a shared crossing drawn in often enough to hit
    # the parallel and concurrent branches
    A = draw(st.integers(1, 600))
    C = isqrt((2**62 - 1) // (48 * A**4))
    ab = st.one_of(st.sampled_from([-A, A]), st.integers(-A, A))
    c = st.one_of(st.sampled_from([-C, C, 1 - C, C - 1]), st.integers(-C, C))
    rows = [(draw(ab), draw(ab), draw(c)) for _ in range(2)]
    kind = draw(st.sampled_from(["free", "parallel", "concurrent"]))
    if kind == "free":
        rows.append((draw(ab), draw(ab), draw(c)))
    elif kind == "parallel":
        rows.append((rows[0][0], rows[0][1], draw(c)))
    else:  # a combination of the first two passes through their crossing
        lam = draw(st.integers(-3, 3))
        rows.append(tuple(u + lam * v for u, v in zip(*rows)))
    return rows


@st.composite
def q5_triples(draw):
    q = st.builds(q5, st.integers(-6, 6), st.integers(-6, 6))
    rows = [(draw(q), draw(q), draw(q)) for _ in range(2)]
    if draw(st.booleans()):
        rows.append((draw(q), draw(q), draw(q)))
    else:  # through the crossing of the first two, or parallel to the first
        lam = draw(q)
        rows.append(tuple(u + lam * v for u, v in zip(*rows)))
    return rows


class TestCoefficientDeterminantArea:
    """triple_area's D^2 / (2*|w12*w13*w23|) against the vertex determinant."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(near_gate_triples(), q5_triples()))
    def test_matches_vertex_oracle(self, rows):
        try:
            lines = [Line(*row) for row in rows]
        except InvalidLineError:
            return
        assert_matches_vertex_oracle(*lines)

    def test_branches_are_reached(self):
        l1, l2 = Line(3, -1, 7), Line(q5(1, 2), 1, q5(0, -3))
        assert triple_area(l1, l2, Line(3, -1, -2))[1] == HAS_PARALLEL_PAIR
        through = Line(*(u + 2 * v for u, v in zip(l1.coefficients(), l2.coefficients())))
        assert triple_area(l1, l2, through)[1] == CONCURRENT
        assert vertex_determinant_area(l1, l2, through)[1] == CONCURRENT

    def test_every_triple_of_a_chain(self):
        for l1, l2, l3 in combinations(_chain_lines(), 3):
            assert_matches_vertex_oracle(l1, l2, l3)


@cache
def _chain_lines():
    return max_chain(1).lines


class TestFrames:
    def test_params_example(self):
        # reference y=0; the 45-degree line through the origin has x=0, y=1
        ps = frame_params(Line(0, 1, 0), [Line(1, -1, 0)])
        assert ps == [FrameParam(index=0, x=F(0), y=F(1))]

    def test_scale_one_for_horizontal(self):
        assert frame_scale(Line(0, 1, 0)) == 1
        assert frame_scale(Line(0, 2, -1)) == 1
        assert frame_scale(Line(1, 1, 0)) == 2

    def test_parallel_skipped(self):
        ps = frame_params(Line(0, 1, 0), [Line(0, 1, -5), Line(1, 0, 0)])
        assert [p.index for p in ps] == [1]

    def test_area_formula(self):
        # y=0 with x-y=0 (x=0, cot 1) and x=2 (x=2, cot 0): area 2^2/(2*1)=2
        ell = Line(0, 1, 0)
        area, status = triple_area_frame(ell, Line(1, -1, 0), Line(1, 0, -2))
        assert status == PROPER
        assert area == F(2)
        assert triple_area(ell, Line(1, -1, 0), Line(1, 0, -2))[0] == F(2)


class TestAffineMap:
    def test_identity_and_translation(self):
        p = (F(3), F(-2))
        assert AffineMap.identity().apply_point(p) == p
        assert AffineMap.translation(F(1), F(2)).apply_point(p) == (F(4), F(0))

    def test_shear(self):
        sh = AffineMap.vertical_shear(F(2))
        assert sh.apply_point((F(1), F(0))) == (F(1), F(2))
        assert sh.det() == 1

    def test_inverse_compose(self):
        m = AffineMap(F(2), F(1), F(1), F(1), F(3), F(-1))
        mi = m.inverse()
        c = m.compose(mi)
        p = (F(5), F(7))
        assert c.apply_point(p) == p

    def test_line_transport(self):
        m = AffineMap(F(2), F(1), F(1), F(1), F(3), F(-1))
        ln = Line(1, -2, 3)
        img = m.apply_line(ln)
        for t in [F(0), F(1), F(-3, 2)]:
            # points of ln: parametrized via direction
            dx, dy = ln.direction()
            if ln.b != 0:
                p0 = (F(0), -ln.c / ln.b)
            else:
                p0 = (-ln.c / ln.a, F(0))
            p = (p0[0] + t * dx, p0[1] + t * dy)
            assert img.evaluate(m.apply_point(p)) == 0

    def test_unimodular_preserves_area(self):
        m = AffineMap(F(2), F(1), F(1), F(1), F(3), F(-1))
        tri = [Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1)]
        before = triple_area(*tri)[0]
        after = triple_area(*[m.apply_line(t) for t in tri])[0]
        assert before == after == F(1, 2)

    def test_horizontal_map(self):
        ln = Line(3, 4, -7)
        hm = horizontal_map(ln)
        img = hm.apply_line(ln)
        assert exact_sign(img.a) == 0
        assert hm.det() == 1
        assert frame_scale(img) == 1


class TestReferenceFrame:
    def test_worked_example(self):
        arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1)])
        rf = choose_reference_frame(arr)
        assert rf.shear == 2
        assert all(exact_sign(t.a) != 0 for t in rf.arrangement.lines)
        # areas preserved by the unit shear
        assert triple_area(*rf.arrangement.lines)[0] == F(1, 2)
        # reference line lies strictly below every intersection
        for u, v in combinations(rf.arrangement.lines, 2):
            p = intersect(u, v)
            assert p is not None
            assert exact_sign(rf.ref_line.evaluate(p)) != 0
        assert rf.ref_line == Line(0, 1, 1)

    def test_no_shear_needed(self):
        arr = Arrangement([Line(1, 0, 0), Line(1, -1, 0)])
        rf = choose_reference_frame(arr)
        assert rf.shear == 0
        assert rf.arrangement == arr

    def test_ref_below_all(self):
        arr = Arrangement([Line(1, 0, 5), Line(1, -1, 20), Line(2, 1, 3)])
        rf = choose_reference_frame(arr)
        for u, v in combinations(rf.arrangement.lines, 2):
            p = intersect(u, v)
            if p is None:
                continue
            assert exact_sign(p[1] - (-rf.ref_line.c / rf.ref_line.b)) > 0


class TestArrangement:
    def test_duplicates_rejected(self):
        with pytest.raises(ArrangementError):
            Arrangement([Line(1, 2, 3), Line(2, 4, 6)])

    def test_mixed_radicands_rejected(self):
        l5 = Line(q5(1, 1), q5(1, 0), q5(0, 0))
        l7 = Line(QuadExt(F(1), F(1), F(7)), F(1), F(0))
        with pytest.raises(ArrangementError):
            Arrangement([l5, l7])

    def test_parallel_classes(self):
        arr = Arrangement([Line(1, 0, 0), Line(1, 0, -1), Line(0, 1, 0)])
        classes = arr.parallel_classes()
        assert sorted(len(v) for v in classes.values()) == [1, 2]
        assert arr.has_parallel_pair()

    def test_concurrent_triples(self):
        arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 0), Line(1, 1, -2)])
        assert arr.concurrent_triples() == [(0, 1, 2)]

    def test_field_names(self):
        assert Arrangement([Line(1, 0, 0)]).field_name() == "Q"
        arr5 = Arrangement([Line(q5(1, 1), F(1), F(0))])
        assert arr5.field_name() == "Q(sqrt 5)"


class TestSerialization:
    def test_round_trip_rational(self):
        arr = Arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(F(1, 3), F(-2), F(7))])
        text = arr.to_text()
        assert text.startswith("# field: Q\n")
        back = Arrangement.from_text(text)
        assert back == arr
        assert back.to_text() == text

    def test_round_trip_quadext(self):
        arr = Arrangement(
            [Line(q5(1, 1), q5(F(5, 2), 0), q5(-1, 0)), Line(1, 0, 0)]
        )
        text = arr.to_text()
        assert "# field: Q(sqrt 5)" in text
        back = Arrangement.from_text(text)
        assert back == arr
        assert back.to_text() == text

    def test_comments_and_blanks_ignored(self):
        text = "# field: Q\n\n# a comment\n1 0 0\n0 1 0\n"
        arr = Arrangement.from_text(text)
        assert arr.n == 2

    def test_parse_errors(self):
        with pytest.raises(ArrangementParseError):
            Arrangement.from_text("# field: Q\n1 0\n")
        with pytest.raises(ArrangementParseError):
            Arrangement.from_text("# field: Q\n1 0 zebra\n")
        with pytest.raises(ArrangementParseError):
            Arrangement.from_text("# field: Q\n")
        with pytest.raises(ArrangementParseError):
            Arrangement.from_text("# field: Q\n0 0 3\n")

    def test_field_mismatch(self):
        with pytest.raises(ArrangementParseError):
            Arrangement.from_text("# field: Q(sqrt 5)\n1 0 0\n")

    def test_missing_header_accepted(self):
        arr = Arrangement.from_text("1 0 0\n0 1 0\n")
        assert arr.n == 2

    def test_file_round_trip(self, tmp_path):
        arr = Arrangement([Line(1, 2, 3), Line(3, -1, F(1, 2))])
        p = tmp_path / "arr.txt"
        arr.save(str(p))
        assert Arrangement.load(str(p)) == arr
