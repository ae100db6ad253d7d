"""Tests for the pentagon-chaining construction of many maximum-area
triangles.

Each round glues a fresh pentagon onto the arrangement so that the shared
maximum area gains seven more witnesses.  One round costs well under a
tenth of a second of exact arithmetic, and three rounds well under one.
"""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from triarea import (
    PROPER,
    Arrangement,
    ChainError,
    Line,
    census,
    combine,
    max_chain,
    pentagon,
    pentagon_max_area,
    triple_area,
)
import triarea.chain as chain
import triarea.scalars as scalars
from triarea.chain import _contact_roots, _cross_triples, _first_contact, _place_parts, _slide_determinant
from triarea.scalars import exact_sign, lift_to, sqrt_exact

from test_cli import MAX_CHAIN_1_SHA256


def test_pentagon_max_area_value():
    arr = pentagon()
    cen = census(arr)
    assert exact_sign(cen.max_area - pentagon_max_area()) == 0
    assert cen.count(cen.max_area) == 5


def test_chain_depth_zero_is_pentagon():
    arr = max_chain(0)
    assert arr.n == 5
    assert arr.lines == pentagon().lines


def test_chain_rejects_negative_depth():
    with pytest.raises(ValueError):
        max_chain(-1)


def test_chain_error_is_runtime_error():
    assert issubclass(ChainError, RuntimeError)


def test_one_round():
    arr = max_chain(1)
    assert arr.n == 10
    cen = census(arr)
    # the glued arrangement stays in general position, so another round
    # can start from it
    assert cen.parallel_count == 0
    assert cen.concurrent_count == 0
    # the maximum is still the pentagon's, now with 5 + 7 witnesses
    target = pentagon_max_area()
    assert exact_sign(cen.max_area - target) == 0
    assert cen.count(cen.max_area) == 12


def test_combine_preserves_part_areas():
    target = pentagon_max_area()
    arr = combine(pentagon(), pentagon(), target)
    assert arr.n == 10
    base = {}
    for (i, j, k) in combinations(range(5), 3):
        lines = pentagon().lines
        area, status = triple_area(lines[i], lines[j], lines[k])
        assert status == PROPER
        base[(i, j, k)] = area
    # both halves carry an unscaled congruent copy of the pentagon's
    # census: the glue maps have determinant +-1
    for offset in (0, 5):
        got = []
        for (i, j, k) in combinations(range(5), 3):
            a, b, c = (arr.lines[offset + t] for t in (i, j, k))
            area, status = triple_area(a, b, c)
            assert status == PROPER
            got.append(area)
        assert sorted(got) == sorted(base.values())


# sha256 of max_chain(k).to_text() for deeper chains; k = 1 is pinned with
# the CLI (MAX_CHAIN_1_SHA256)
MAX_CHAIN_TEXT_SHA256 = {
    2: "621f74a5a4c88c0e3e3d29f9762f91a2732d35854a95309135116323c6da1e33",
    3: "2d855f90455f36e2f9b42ed1d3a3868611d7d1b4e55cf3250512a101035ae131",
    4: "46a1b8c5c30bb141ed0b3e0f79bbd4b10872c170096b15ea4f843300a8f50c66",
}


@pytest.mark.parametrize("k", sorted(MAX_CHAIN_TEXT_SHA256))
def test_deep_chain_text_is_pinned(k):
    text = max_chain(k).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == MAX_CHAIN_TEXT_SHA256[k]


def test_three_rounds():
    arr = max_chain(3)
    assert arr.n == 20
    cen = census(arr)
    assert cen.parallel_count == 0
    assert exact_sign(cen.max_area - pentagon_max_area()) == 0
    assert cen.count(cen.max_area) == 5 + 7 * 3


def test_serialization_round_trip():
    # chained towers print with zero layers peeled, so parsing yields lines
    # in mixed sibling shapes; the arrangement must still reconstruct the
    # same field, the same census, and the same bytes on re-serialization
    # (k <= 2; deeper chains do not parse yet, see the README's file format)
    for k in (1, 2):
        arr = max_chain(k)
        text = arr.to_text()
        back = Arrangement.from_text(text)
        assert back.to_text() == text
        assert back.lines == arr.lines
        c1, c2 = census(arr), census(back)
        assert dict(c1.area_counts) == dict(c2.area_counts)
        assert c2.count(c2.max_area) == 5 + 7 * k


def three_point_polynomial(fixed, moving, vx, vy):
    """Oracle: the slide quadratic interpolated from the signed double area
    at t = -1, 0, 1, each from translated lines and the determinant of their
    homogeneous vertices."""

    def signed_double_area(l1, l2, l3):
        def vertex(p, q):
            return (p.b * q.c - q.b * p.c, p.c * q.a - q.c * p.a, p.a * q.b - q.a * p.b)

        p1, p2, p3 = vertex(l1, l2), vertex(l1, l3), vertex(l2, l3)
        if any(exact_sign(p[2]) == 0 for p in (p1, p2, p3)):
            return None
        det = (
            p1[0] * (p2[1] * p3[2] - p2[2] * p3[1])
            - p1[1] * (p2[0] * p3[2] - p2[2] * p3[0])
            + p1[2] * (p2[0] * p3[1] - p2[1] * p3[0])
        )
        return det / (p1[2] * p2[2] * p3[2])

    def at(t):
        moved = [Line(l.a, l.b, l.c - (l.a * vx * t + l.b * vy * t)) for l in moving]
        return signed_double_area(*fixed, *moved)

    qm, q0, qp = at(Fraction(-1)), at(Fraction(0)), at(Fraction(1))
    if q0 is None:
        return None
    return (q0, (qp - qm) / 2, (qp + qm) / 2 - q0)


def generic_roots(c2, c1, c0, field):
    """Oracle: roots of c2 t^2 + c1 t + c0 by the quadratic formula, every
    coefficient lifted into the ambient field first, as (alpha, beta, rad)
    with the root alpha + beta*sqrt(rad) (rad None when in the field)."""
    c2, c1, c0 = (lift_to(c, field) for c in (c2, c1, c0))
    if exact_sign(c2) == 0:
        return [] if exact_sign(c1) == 0 else [(-c0 / c1, Fraction(0), None)]
    disc = c1 * c1 - 4 * c2 * c0
    if exact_sign(disc) < 0:
        return []
    if exact_sign(disc) == 0:
        return [(-c1 / (2 * c2), Fraction(0), None)]
    r = sqrt_exact(disc)
    if r is not None:
        return [((-c1 + r) / (2 * c2), Fraction(0), None), ((-c1 - r) / (2 * c2), Fraction(0), None)]
    inv = 1 / (2 * c2)
    return [(-c1 * inv, inv, disc), (-c1 * inv, -inv, disc)]


@pytest.fixture(scope="module")
def pentagon_slides():
    """The slides of the first chaining round on the pentagon placement: the
    horizontal one, then the one along the anchor after the first contact,
    where the moving lines' offsets sit in a deeper tower; as (moving
    lines, fixed lines, vx, vy, field)."""
    target = pentagon_max_area()
    lines_l, lines_k = _place_parts(list(pentagon().lines), list(pentagon().lines), target)
    t1, (il, ik) = _first_contact(lines_l, lines_k, Fraction(1), Fraction(0), target, target)
    tv = t1.value()
    assert tv.height == 2  # the contact adjoins a square root to Q(sqrt 5)
    moved = [Line(l.a, l.b, l.c - l.a * tv) for l in lines_l]
    anchor = lines_k[ik[0]] if len(ik) == 1 else lines_l[il[0]]
    return [(lines_l, lines_k, Fraction(1), Fraction(0), target), (moved, lines_k, *anchor.direction(), tv)]


def slide_triples(lines, lines_k):
    for il, ik in _cross_triples(len(lines), len(lines_k)):
        yield [lines_k[g] for g in ik], [lines[i] for i in il]


def test_slide_polynomial_matches_three_point_evaluation(pentagon_slides):
    checked = 0
    for lines, lines_k, vx, vy, _ in pentagon_slides:
        for fixed, moving in slide_triples(lines, lines_k):
            slide = _slide_determinant(fixed, moving, vx, vy)
            want = three_point_polynomial(fixed, moving, vx, vy)
            assert (slide is None) == (want is None)
            if slide is not None:
                d0, d1, den = slide
                got = (d0 * d0 / den, 2 * d0 * d1 / den, d1 * d1 / den)
                assert all(exact_sign(g - w) == 0 for g, w in zip(got, want))
                checked += 1
    assert checked == 2 * 100


def test_contact_roots_match_quadratic_formula(pentagon_slides):
    target = 2 * pentagon_max_area()
    rooted = 0
    for lines, lines_k, vx, vy, field in pentagon_slides:
        for fixed, moving in slide_triples(lines, lines_k):
            d0, d1, den = _slide_determinant(fixed, moving, vx, vy)
            if not d1:
                continue
            want = []
            for sgn in (1, -1):
                c0, c1, c2 = d0 * d0 / den - sgn * target, 2 * d0 * d1 / den, d1 * d1 / den
                want += generic_roots(c2, c1, c0, field)
            got = [(r.alpha, r.beta, r.rad) for r in _contact_roots(d0, d1, den, target, field)]
            assert [tuple(map(repr, r)) for r in got] == [tuple(map(repr, r)) for r in want]
            rooted += bool(got)
    assert rooted > 100


def test_precision_env_sets_first_root_comparison():
    # sqrt 2 against sqrt 3 in different extensions: only intervals separate them
    code = (
        "from fractions import Fraction as F\n"
        "import triarea.chain as c\n"
        "import triarea.scalars as s\n"
        "bits, bounds = [], s._bounds\n"
        "def recording(x, b):\n"
        "    bits.append(b)\n"
        "    return bounds(x, b)\n"
        "s._bounds = recording\n"
        "print(c._roots_compare(c._Root(F(0), F(1), F(2)), c._Root(F(0), F(1), F(3))), bits[0])\n"
    )
    env = dict(os.environ, TRIAREA_PRECISION_BITS="8")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.split() == ["-1", "8"], out.stderr


def test_roots_compare_raises_when_undecided(monkeypatch):
    # 275807/195025 is a continued-fraction convergent of sqrt 2, within
    # 2^-36 of it: a schedule that stops at 32 bits cannot separate the two
    sqrt2 = chain._Root(Fraction(0), Fraction(1), Fraction(2))
    near = chain._Root(Fraction(275807, 195025), Fraction(0), None)
    assert chain._roots_compare(near, sqrt2) == -1
    monkeypatch.setattr(scalars, "DEFAULT_PRECISION_BITS", 16)
    monkeypatch.setattr(scalars, "MAX_PRECISION_BITS", 32)
    with pytest.raises(ChainError, match="did not separate"):
        chain._roots_compare(near, sqrt2)


def first_contact_unfiltered(lines_l, lines_k, vx, vy, max_area, field):
    """Oracle: the first contact from the exact roots of every mixed triple,
    the smallest positive one kept (the earliest triple on ties)."""
    target = 2 * max_area
    best = best_triple = None
    for il, ik in _cross_triples(len(lines_l), len(lines_k)):
        slide = _slide_determinant([lines_k[g] for g in ik], [lines_l[i] for i in il], vx, vy)
        if slide is None or not slide[1]:
            continue
        for root in _contact_roots(*slide, target, field):
            if chain._root_sign(root) > 0 and (best is None or chain._roots_compare(root, best) < 0):
                best, best_triple = root, (il, ik)
    return best, best_triple


def root_text(root):
    return repr(root.alpha), repr(root.beta), repr(root.rad)


@pytest.fixture
def contact_calls(monkeypatch):
    """The slides (d0, d1, den) that reach the exact root finder."""
    calls = []

    def recording(*args):
        calls.append(args[:3])
        return _contact_roots(*args)

    monkeypatch.setattr(chain, "_contact_roots", recording)
    return calls


@pytest.fixture(scope="module")
def max_chain_2_slides():
    """The arguments of every first-contact search in building max_chain(2):
    the two slides of max_chain(1)'s round, then the two of the next round."""
    slides = []

    def recording(*args):
        slides.append(args)
        return _first_contact(*args)

    chain._first_contact = recording
    try:
        max_chain(2)
    finally:
        chain._first_contact = _first_contact
    assert len(slides) == 4
    return slides


def test_filtered_first_contact_matches_unfiltered(max_chain_2_slides, contact_calls):
    for args in max_chain_2_slides:
        want_root, want_triple = first_contact_unfiltered(*args)
        del contact_calls[:]
        root, triple = _first_contact(*args)
        assert (root_text(root), triple) == (root_text(want_root), want_triple)
        assert 1 <= len(contact_calls) <= 2


def tied_slide():
    """Two lines sliding right past two fixed ones, all four symmetric under
    y -> -y: triples swapped by the mirror reach the maximum area together."""
    lines_l = [Line(Fraction(1), Fraction(-1), Fraction(0)), Line(Fraction(1), Fraction(1), Fraction(0))]
    lines_k = [Line(Fraction(2), Fraction(-1), Fraction(-10)), Line(Fraction(2), Fraction(1), Fraction(-10))]
    return lines_l, lines_k, Fraction(1), Fraction(0), Fraction(1), Fraction(1)


def test_exact_tie_goes_to_the_earlier_triple(contact_calls):
    root, triple = _first_contact(*tied_slide())
    want_root, want_triple = first_contact_unfiltered(*tied_slide())
    assert triple == want_triple == ((0,), (0, 1))
    assert root_text(root) == root_text(want_root)
    # both mirror triples hold the smallest root, so both pass the filter;
    # the other mirror pair's roots are certainly later
    assert [c[1] for c in contact_calls] == [Fraction(-4)] * 2


def test_undecided_bounds_keep_the_triple(monkeypatch, contact_calls):
    slide_bounds = chain._slide_bounds

    def straddling(*args):
        # the slide rate d1 = 4 of triples ((0, 1), (g,)), the only positive
        # one of this slide, gets an enclosure that includes 0, as a tiny
        # nonzero rate would
        d0, d1, den = slide_bounds(*args)
        return d0, (-1, 1) if d1[0] > 0 else d1, den

    monkeypatch.setattr(chain, "_slide_bounds", straddling)
    root, triple = _first_contact(*tied_slide())
    want_root, want_triple = first_contact_unfiltered(*tied_slide())
    assert (root_text(root), triple) == (root_text(want_root), want_triple)
    assert [c[1] for c in contact_calls] == [Fraction(4), Fraction(4), Fraction(-4), Fraction(-4)]


def test_coarse_precision_keeps_chain_bytes():
    env = dict(os.environ, TRIAREA_PRECISION_BITS="8")
    out = subprocess.run(
        [sys.executable, "-m", "triarea.cli", "generate", "max-chain", "-k", "1"],
        capture_output=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == MAX_CHAIN_1_SHA256


def test_coarse_precision_filter_refines_to_one_or_two_triples():
    # at 8 bits the contact-root filter doubles its precision on the
    # survivors, so max_chain(2) still sends at most 2 triples per slide to
    # the exact roots, and builds the same text as at 64 bits
    code = (
        "import hashlib\n"
        "import triarea.chain as c, triarea.scalars as s\n"
        "per_slide, first, roots = [], c._first_contact, c._contact_roots\n"
        "def slide(*args):\n"
        "    per_slide.append(0)\n"
        "    return first(*args)\n"
        "def contact(*args):\n"
        "    per_slide[-1] += 1\n"
        "    return roots(*args)\n"
        "c._first_contact, c._contact_roots = slide, contact\n"
        "text = c.max_chain(2).to_text()\n"
        "print(s.DEFAULT_PRECISION_BITS, hashlib.sha256(text.encode()).hexdigest(), *per_slide)\n"
    )
    env = dict(os.environ, TRIAREA_PRECISION_BITS="8")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    bits, digest, *per_slide = out.stdout.split()
    assert bits == "8"
    assert digest == hashlib.sha256(max_chain(2).to_text().encode()).hexdigest()
    assert len(per_slide) == 4 and all(1 <= int(k) <= 2 for k in per_slide)


def test_coarse_precision_needs_no_algebraic_sign(tmp_path):
    # the precision schedule doubles from 8 bits until the bounds separate,
    # so neither the max_chain(2) build nor its census falls back to the
    # algebraic sign test, and both print the 64-bit bytes
    code = (
        "import contextlib, hashlib, io, os, sys\n"
        "import triarea.chain as c, triarea.cli as cli, triarea.scalars as s\n"
        "undecided, sign = [], s._bounds_sign\n"
        "def counting(x):\n"
        "    got = sign(x)\n"
        "    undecided.append(got is None)\n"
        "    return got\n"
        "s._bounds_sign = counting\n"
        "text = c.max_chain(2).to_text()\n"
        "path = os.path.join(sys.argv[1], 'chain.lines')\n"
        "with open(path, 'w') as fh:\n"
        "    fh.write(text)\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(['census', '--json', path])\n"
        "digests = [hashlib.sha256(t.encode()).hexdigest() for t in (text, out.getvalue())]\n"
        "print(code, len(undecided), sum(undecided), *digests)\n"
    )
    runs = {}
    for bits in ("8", "64"):
        env = dict(os.environ, TRIAREA_PRECISION_BITS=bits)
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        runs[bits] = out.stdout.split()
    for exit_code, signs, undecided, *_ in runs.values():
        assert (exit_code, undecided) == ("0", "0") and int(signs) > 1000
    assert runs["8"][3:] == runs["64"][3:]


@pytest.fixture
def exact_slides(monkeypatch):
    """The (fixed, moving) lines of every exact (D0, D1, W) built."""
    calls = []

    def recording(fixed, moving, *args):
        calls.append((fixed, moving))
        return _slide_determinant(fixed, moving, *args)

    monkeypatch.setattr(chain, "_slide_determinant", recording)
    return calls


def test_exact_determinants_only_for_survivors(max_chain_2_slides, exact_slides):
    # every mixed triple is enclosed, but only the one or two that survive
    # the root filter get an exact tower determinant
    for args in max_chain_2_slides:
        del exact_slides[:]
        _first_contact(*args)
        assert len(list(_cross_triples(len(args[0]), len(args[1])))) >= 100
        assert 1 <= len(exact_slides) <= 2


def test_rigid_triples_are_dropped_by_their_enclosure(max_chain_2_slides, monkeypatch, exact_slides):
    # the first slide of max_chain(1) moves 10 triples rigidly (D1 = 0); their
    # D1 enclosures are exactly (0, 0), so no exact determinant is built
    lines_l, lines_k, vx, vy = max_chain_2_slides[0][:4]
    rigid = [
        (il, ik) for fixed, moving, (il, ik) in (
            ([lines_k[g] for g in ik], [lines_l[i] for i in il], (il, ik))
            for il, ik in _cross_triples(len(lines_l), len(lines_k))
        )
        if _slide_determinant(fixed, moving, vx, vy)[1] == 0
    ]
    assert len(rigid) == 10
    d1_zero, slide_bounds = [], chain._slide_bounds

    def recording(*args):
        got = slide_bounds(*args)
        d1_zero.append(got[1] == (0, 0))
        return got

    monkeypatch.setattr(chain, "_slide_bounds", recording)
    del exact_slides[:]
    root, triple = _first_contact(*max_chain_2_slides[0])
    assert sum(d1_zero) == 10 and triple not in rigid
    assert len(exact_slides) == 1


def find_safe_interval_exact(lines, r, max_area):
    """Oracle: the safe strip search with every parabola value exact."""
    strip_line = Line(Fraction(-r), Fraction(1), Fraction(0))
    offsets, parabolas = [], []
    for l1, l2 in combinations(lines, 2):
        d0, d1, w = _slide_determinant([l1, l2], [strip_line], Fraction(0), Fraction(1))
        offsets.append(-d0 / d1)
        parabolas.append((d1 * d1 / (2 * abs(w)), offsets[-1]))

    def below(tau):
        return exact_sign(chain._max_new_area(parabolas, tau) - max_area) < 0

    lo = hi = offsets[0]
    for o in offsets[1:]:
        lo = o if exact_sign(o - lo) < 0 else lo
        hi = o if exact_sign(o - hi) > 0 else hi
    lo, hi = lo - 1, hi + 1
    tau = None
    for _ in range(300):
        quarter = (hi - lo) / 4
        probes = [lo + quarter, lo + 2 * quarter, lo + 3 * quarter]
        tau = next((t for t in probes if below(t)), None)
        if tau is not None:
            break
        vals = [chain._max_new_area(parabolas, t) for t in probes]
        if exact_sign(vals[0] - vals[2]) <= 0:
            hi = probes[2]
        else:
            lo = probes[0]
    assert tau is not None
    gap = None
    for o in offsets:
        d = abs(o - tau)
        if exact_sign(d) != 0 and (gap is None or exact_sign(d - gap) < 0):
            gap = d
    gap = Fraction(1) if gap is None else gap
    while any(exact_sign(o - tau) == 0 for o in offsets):
        tau, gap = tau + gap / 2, gap / 2
        assert below(tau)
    delta = gap / 2
    while not (below(tau - delta) and below(tau + delta)):
        delta = delta / 2
    return tau - delta, tau + delta


@pytest.fixture(scope="module")
def max_chain_3_parts():
    """The arguments of every safe strip search in building max_chain(3):
    both parts of each of its three rounds (those of max_chain(1) and (2)
    come first)."""
    parts = []

    def recording(*args):
        parts.append(args)
        return find(*args)

    find = chain._find_safe_interval
    chain._find_safe_interval = recording
    try:
        max_chain(3)
    finally:
        chain._find_safe_interval = find
    assert len(parts) == 6
    return parts


def test_filtered_safe_interval_matches_exact(max_chain_3_parts):
    for args in max_chain_3_parts:
        got = chain._find_safe_interval(*args)
        assert list(map(repr, got)) == list(map(repr, find_safe_interval_exact(*args)))


def test_overlapping_enclosures_take_the_exact_path(max_chain_3_parts, monkeypatch):
    # an enclosure that meets every other at every precision of the schedule
    # sends each comparison to the exact parabola values, which decide it as
    # before; max_area's bound is scaled by 2^(3*bits), so the stand-in grows
    # with bits to meet it
    want = [chain._find_safe_interval(*args) for args in max_chain_3_parts[:4]]
    exact_calls, max_new_area = [], chain._max_new_area

    def counting(*args):
        exact_calls.append(args[1])
        return max_new_area(*args)

    def meeting(enclosed, tau, bits):
        return -1 << 4096 + 3 * bits, 1 << 4096 + 3 * bits

    monkeypatch.setattr(chain, "_max_new_area_bounds", meeting)
    monkeypatch.setattr(chain, "_max_new_area", counting)
    for args, (t1, t2) in zip(max_chain_3_parts, want):
        del exact_calls[:]
        assert list(map(repr, chain._find_safe_interval(*args))) == [repr(t1), repr(t2)]
        assert exact_calls


def test_safe_interval_climbs_the_schedule_before_exact_values():
    # at 8 bits the enclosures of close probes meet; the next precisions of
    # the schedule separate them, so the max_chain(3) build evaluates no
    # parabola exactly and prints the pinned text
    code = (
        "import hashlib\n"
        "import triarea.chain as c\n"
        "import triarea.scalars as s\n"
        "calls, exact = [], c._max_new_area\n"
        "def counting(*args):\n"
        "    calls.append(args)\n"
        "    return exact(*args)\n"
        "c._max_new_area = counting\n"
        "text = c.max_chain(3).to_text()\n"
        "print(s.DEFAULT_PRECISION_BITS, len(calls), hashlib.sha256(text.encode()).hexdigest())\n"
    )
    env = dict(os.environ, TRIAREA_PRECISION_BITS="8")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    bits, calls, digest = out.stdout.split()
    assert (bits, calls) == ("8", "0"), out.stderr
    assert digest == MAX_CHAIN_TEXT_SHA256[3]


@pytest.fixture(scope="module")
def max_chain_3_normalized():
    """The normalized parts (L, K) of each of max_chain(3)'s three rounds,
    each a (lines, strip) pair."""
    parts = []

    def recording(*args):
        parts.append(normalize(*args))
        return parts[-1]

    normalize = chain._normalize_part
    chain._normalize_part = recording
    try:
        max_chain(3)
    finally:
        chain._normalize_part = normalize
    assert len(parts) == 6
    return list(zip(parts[::2], parts[1::2]))


def crosses_gates(line, strip, turned=False):
    """Oracle: does the line cross both gate segments of the strip, at
    x = +-gate_x with lo < y < hi, or, turned, at y = +-gate_x with
    lo < x < hi?"""
    u, v = (line.b, line.a) if turned else (line.a, line.b)
    if exact_sign(v) == 0:
        return False
    for sgn in (1, -1):
        t = (-line.c - u * strip.gate_x * sgn) / v
        if exact_sign(t - strip.lo) <= 0 or exact_sign(strip.hi - t) <= 0:
            return False
    return True


def test_threads_matches_gates_of_scaled_and_turned_parts(max_chain_3_normalized):
    # the placement tests lam on the normalized lines with mu = lam^2; here
    # both parts are scaled by (x, y) -> (x/lam, lam*y), K is turned by
    # _ROT90 (its centred strip turns into the band lo < x < hi), and the
    # gates are tested on the placed lines themselves
    for (base_l, strip_l), (base_k, strip_k) in max_chain_3_normalized:
        for lam in range(1, 65):
            def scaled(lines, strip):
                return (
                    [Line(l.a * lam, l.b / lam, l.c) for l in lines],
                    chain.SafeStrip(lo=strip.lo * lam, hi=strip.hi * lam, gate_x=strip.gate_x / lam),
                )

            lines_l, sl = scaled(base_l, strip_l)
            lines_k, sk = scaled(base_k, strip_k)
            lines_k = [chain._ROT90.apply_line(g) for g in lines_k]
            mu = lam * lam
            assert [chain._threads(g, strip_l, mu) for g in base_k] == [crosses_gates(g, sl) for g in lines_k]
            assert [chain._threads(l, strip_k, mu) for l in base_l] == [crosses_gates(l, sk, True) for l in lines_l]
            assert [exact_sign(l.a * g.a * mu * mu + l.b * g.b) == 0 for l in base_l for g in base_k] == [
                l.is_parallel_to(g) for l in lines_l for g in lines_k
            ]


def test_placement_builds_each_placed_line_once(monkeypatch):
    # each part is normalized by one map and the placed lines are built
    # after lam is found, not for every lam tried: max_chain(1) builds 24
    # lines in _place_parts and max_chain(3) 102
    built, active, init, place = [], [], Line.__init__, chain._place_parts

    def counting(self, *args):
        if active:
            built.append(1)
        init(self, *args)

    def placing(*args):
        active.append(True)
        try:
            return place(*args)
        finally:
            active.pop()

    monkeypatch.setattr(Line, "__init__", counting)
    monkeypatch.setattr(chain, "_place_parts", placing)
    for k, most in ((1, 32), (3, 126)):
        del built[:]
        max_chain(k)
        assert 0 < len(built) <= most
