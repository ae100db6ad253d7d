"""Independent checks of the program's outputs.

Nothing here compares against stored copies of earlier output, and no
arithmetic is imported from ``triarea``: areas are recomputed with this
file's own shoelace routine over exact Cartesian vertices (rational inputs)
or over 200-digit mpmath values (the Q(sqrt 5) tower of the chain), and the
closed forms for grid faces are transcribed here.  The one exception is the
round-trip check of the chain file, which is a property of the program's own
parser and printer.

Run as a script on a manifest written by ``run.py``; it prints one JSON
object ``{"problems": [[...], ...]}`` with a list of problems per command
and exits 1 if any list is non-empty.
"""

from __future__ import annotations

import json
import operator
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

IntLine = Tuple[int, int, int]

PENTAGON_MAX_AREA = "5/4+5/8*sqrt(5)"


# -- closed forms (transcribed from the paper's facial-count formulas) -------

def kobon_bound(n: int) -> int:
    """Most triangular faces n lines can have: floor(n(n-2)/3), minus one
    when n = 0 or 2 mod 6."""
    return n * (n - 2) // 3 - (1 if n % 6 in (0, 2) else 0)


def kagome_faces(n: int) -> int:
    """Facial triangles of the first n kagome lines, n = 6l + j."""
    l, j = divmod(n, 6)
    return 6 * l * l if j == 0 else 6 * l * l + 2 * j * l + j - 2


def triangular_faces(n: int) -> int:
    """Facial triangles of the first n triangular-grid lines (n != 4)."""
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


GRID_FACES = {"kagome": kagome_faces, "triangular": triangular_faces}


# -- exact rational geometry ------------------------------------------------

def vertex(l1: IntLine, l2: IntLine) -> Optional[Tuple[Fraction, Fraction]]:
    """Cartesian crossing of two lines a*x + b*y + c = 0, None if parallel."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    w = a1 * b2 - a2 * b1
    if w == 0:
        return None
    return (Fraction(b1 * c2 - b2 * c1, w), Fraction(c1 * a2 - c2 * a1, w))


def shoelace_areas(
    lines: Sequence[IntLine], triples=None
) -> Tuple[Dict[Tuple[int, int, int], Fraction], int, int]:
    """Area of every proper triple, plus the concurrent and parallel counts.

    A triple with a parallel pair has a missing vertex; a concurrent one has
    three equal vertices and so a zero shoelace sum.
    """
    n = len(lines)
    pts = {(i, j): vertex(lines[i], lines[j]) for i, j in combinations(range(n), 2)}
    areas = {}
    concurrent = parallel = 0
    for t in triples if triples is not None else combinations(range(n), 3):
        i, j, k = t
        p, q, r = pts[(i, j)], pts[(i, k)], pts[(j, k)]
        if p is None or q is None or r is None:
            parallel += 1
            continue
        twice = p[0] * (q[1] - r[1]) + q[0] * (r[1] - p[1]) + r[0] * (p[1] - q[1])
        if twice == 0:
            concurrent += 1
        else:
            areas[t] = abs(twice) / 2
    return areas, concurrent, parallel


def distinct_slope_triples(lines: Sequence[IntLine]) -> int:
    """Triples of lines with three different directions."""
    classes = Counter()
    for a, b, _ in lines:
        g = gcd(a, b)
        a, b = a // g, b // g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        classes[(a, b)] += 1
    e1 = e2 = e3 = 0
    for s in classes.values():
        e3 += e2 * s
        e2 += e1 * s
        e1 += s
    return e3


def read_lines(text: str) -> List[IntLine]:
    out = []
    for row in text.splitlines():
        if row.strip() and not row.lstrip().startswith("#"):
            a, b, c = (int(t) for t in row.split())
            out.append((a, b, c))
    return out


# -- report checks ----------------------------------------------------------

def _expect(problems: List[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def census_problems(report: dict, n: int, value: Callable[[str], object], less) -> List[str]:
    """Internal consistency of a census report: sorted classes, extremes at
    the ends, counts adding up to C(n,3)."""
    p: List[str] = []
    res = report.get("results", {})
    _expect(p, report.get("command") == "census", "command is not census")
    _expect(p, report.get("n") == n, f"n is {report.get('n')}, input has {n}")
    _expect(p, res.get("total_triples") == comb(n, 3), "total_triples is not C(n,3)")
    _expect(
        p,
        res.get("proper", 0) + res.get("concurrent", 0) + res.get("parallel_triples", 0)
        == res.get("total_triples"),
        "proper + concurrent + parallel != total",
    )
    entries = res.get("areas", [])
    vals = [value(e["area"]) for e in entries]
    counts = [e["count"] for e in entries]
    _expect(p, all(c >= 1 for c in counts), "an area class has count < 1")
    _expect(p, all(less(u, v) for u, v in zip(vals, vals[1:])), "areas not strictly increasing")
    _expect(p, res.get("distinct_areas") == len(entries), "distinct_areas != number of classes")
    _expect(p, sum(counts) == res.get("proper"), "class counts do not sum to proper")
    if entries:
        _expect(p, res.get("min_area") == entries[0]["area"], "min_area is not the first class")
        _expect(p, res.get("min_area_count") == counts[0], "min_area_count is not the first count")
        _expect(p, res.get("max_area") == entries[-1]["area"], "max_area is not the last class")
        _expect(p, res.get("max_area_count") == counts[-1], "max_area_count is not the last count")
    return p


def check_census_random(report: dict, lines: Sequence[IntLine]) -> List[str]:
    """Full recomputation of the area multiset and the degeneracy counts."""
    p = census_problems(report, len(lines), Fraction, operator.lt)
    res = report.get("results", {})
    areas, concurrent, parallel = shoelace_areas(lines)
    want = Counter(areas.values())
    got = Counter()
    for e in res.get("areas", []):
        got[Fraction(e["area"])] += e["count"]
    _expect(p, got == want, "area multiset differs from the shoelace recomputation")
    _expect(p, res.get("proper") == len(areas), "proper count differs from recomputation")
    _expect(p, res.get("concurrent") == concurrent, "concurrent count differs from recomputation")
    _expect(p, res.get("parallel_triples") == parallel, "parallel count differs from recomputation")
    _expect(p, res.get("unit_count") == want.get(Fraction(1), 0), "unit_count differs")
    return p


def check_facial_grid(report: dict, lines: Sequence[IntLine], grid: str) -> List[str]:
    """Facial count against the closed form and the Kobon bound; proper plus
    concurrent triples against the distinct-direction triples of the input."""
    n = len(lines)
    p = census_problems(report, n, Fraction, operator.lt)
    res = report.get("results", {})
    faces = res.get("facial_count")
    _expect(p, faces == GRID_FACES[grid](n), f"facial_count {faces} != {grid} closed form {GRID_FACES[grid](n)}")
    _expect(p, faces is not None and faces <= kobon_bound(n), "facial_count exceeds the Kobon bound")
    _expect(
        p,
        faces is not None and res.get("min_area_count", 0) <= faces,
        "more minimum-area triangles than facial triangles",
    )
    e3 = distinct_slope_triples(lines)
    _expect(
        p,
        res.get("proper", 0) + res.get("concurrent", 0) == e3,
        f"proper + concurrent != {e3} distinct-direction triples",
    )
    return p


def check_verify_bounds(report: dict, lines: Sequence[IntLine]) -> List[str]:
    p: List[str] = []
    res = report.get("results", {})
    _expect(p, report.get("command") == "verify bounds", "command is not verify bounds")
    _expect(p, report.get("n") == len(lines), "n differs from the input")
    _expect(p, res.get("passed") is True, "verify bounds did not pass")
    _expect(
        p,
        all(c.get("passed") or c.get("skipped") for c in res.get("checks", [])),
        "a structural check failed",
    )
    areas, _, _ = shoelace_areas(lines)
    if areas:
        lo, hi = min(areas.values()), max(areas.values())
        _expect(p, res.get("min_area") == str(lo), f"min_area {res.get('min_area')} != {lo}")
        _expect(p, res.get("max_area") == str(hi), f"max_area {res.get('max_area')} != {hi}")
    return p


def check_extract_distinct(report: dict, lines: Sequence[IntLine], seed: int) -> List[str]:
    """The returned subset must span only proper triangles of pairwise
    different areas."""
    p: List[str] = []
    res = report.get("results", {})
    subset = res.get("subset", [])
    _expect(p, report.get("command") == "extract-distinct", "command is not extract-distinct")
    _expect(p, report.get("seed") == seed, "seed differs from the one passed")
    _expect(p, res.get("verified_all_distinct") is True, "program reports a non-rainbow subset")
    _expect(p, res.get("size") == len(subset), "size != len(subset)")
    _expect(p, subset == sorted(set(subset)), "subset not sorted and unique")
    _expect(p, all(0 <= v < len(lines) for v in subset), "subset index out of range")
    if not p:
        triples = list(combinations(subset, 3))
        areas, concurrent, parallel = shoelace_areas(lines, triples)
        _expect(p, concurrent == 0 and parallel == 0, "subset spans a degenerate triple")
        _expect(p, len(set(areas.values())) == len(triples), "subset has a repeated area")
    return p


# -- the chain, in 200-digit floating point ---------------------------------

def _mp():
    import mpmath

    mpmath.mp.dps = 200
    return mpmath


class _Eval:
    """Evaluate the program's scalar syntax (integers, + - * /, sqrt(),
    parentheses) as an mpmath number."""

    def __init__(self, text: str, mp) -> None:
        self.s = "".join(text.split())
        self.i = 0
        self.mp = mp

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def run(self):
        v = self.expr()
        if self.i != len(self.s):
            raise ValueError(f"trailing input in {self.s!r}")
        return v

    def expr(self):
        neg = self.peek() == "-"
        if self.peek() and self.peek() in "+-":
            self.i += 1
        v = self.term()
        v = -v if neg else v
        while self.peek() and self.peek() in "+-":
            op = self.s[self.i]
            self.i += 1
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self):
        v = self.factor()
        while self.peek() and self.peek() in "*/":
            op = self.s[self.i]
            self.i += 1
            f = self.factor()
            v = v * f if op == "*" else v / f
        return v

    def factor(self):
        if self.s.startswith("sqrt(", self.i):
            self.i += 5
            v = self.expr()
            self.i += 1
            return self.mp.sqrt(v)
        if self.peek() == "(":
            self.i += 1
            v = self.expr()
            self.i += 1
            return v
        j = self.i
        while self.peek().isdigit():
            self.i += 1
        if j == self.i:
            raise ValueError(f"expected a number in {self.s!r}")
        return self.mp.mpf(int(self.s[j : self.i]))


def evaluate(text: str, mp):
    return _Eval(text, mp).run()


def check_chain_census(report: dict, chain_text: str, k: int) -> List[str]:
    """n = 5(k+1), the pentagon's maximum area at least 5+7k times, and every
    area class against a 200-digit shoelace recomputation."""
    mp = _mp()
    tol = mp.mpf(10) ** -120
    rows = [r.split() for r in chain_text.splitlines() if r.strip() and not r.startswith("#")]
    lines = [tuple(evaluate(t, mp) for t in row) for row in rows]
    n = len(lines)
    close = lambda u, v: abs(u - v) <= tol * max(1, abs(u))  # noqa: E731
    p = census_problems(report, n, lambda s: evaluate(s, mp), lambda u, v: v - u > tol)
    res = report.get("results", {})
    _expect(p, n == 5 * (k + 1), f"chain has {n} lines, not {5 * (k + 1)}")
    _expect(p, res.get("max_area") == PENTAGON_MAX_AREA, "max_area is not 5/4+5/8*sqrt(5)")
    _expect(p, res.get("max_area_count", 0) >= 5 + 7 * k, "fewer than 5+7k maximum-area triangles")

    pts = {}
    for i, j in combinations(range(n), 2):
        (a1, b1, c1), (a2, b2, c2) = lines[i], lines[j]
        w = a1 * b2 - a2 * b1
        scale = max(abs(a1 * b2), abs(a2 * b1), 1)
        pts[(i, j)] = None if abs(w) <= tol * scale else ((b1 * c2 - b2 * c1) / w, (c1 * a2 - c2 * a1) / w)
    areas = []
    concurrent = parallel = 0
    for i, j, k3 in combinations(range(n), 3):
        a, b, c = pts[(i, j)], pts[(i, k3)], pts[(j, k3)]
        if a is None or b is None or c is None:
            parallel += 1
            continue
        area = abs(a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1])) / 2
        if area <= tol:
            concurrent += 1
        else:
            areas.append(area)
    _expect(p, res.get("proper") == len(areas), "proper count differs from recomputation")
    _expect(p, res.get("concurrent") == concurrent, "concurrent count differs from recomputation")
    _expect(p, res.get("parallel_triples") == parallel, "parallel count differs from recomputation")
    matched = 0
    for e in res.get("areas", []):
        v = evaluate(e["area"], mp)
        hits = sum(1 for a in areas if close(a, v))
        _expect(p, hits == e["count"], f"class {e['area'][:40]}... has {hits} triangles, report says {e['count']}")
        matched += hits
    _expect(p, matched == len(areas), "some recomputed areas match no reported class")
    return p


def check_chain_file(text: str, root: Path) -> List[str]:
    """The generated file must parse and print back byte for byte."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from triarea.arrangement import Arrangement

    again = Arrangement.from_text(text).to_text()
    return [] if again == text else ["chain file does not round-trip byte for byte"]


def schema_problems(report_text: str, root: Path) -> Tuple[Optional[dict], List[str]]:
    import jsonschema

    try:
        report = json.loads(report_text)
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]
    schema = json.loads((root / "src/triarea/schemas/report.schema.json").read_text())
    errors = [e.message for e in jsonschema.Draft7Validator(schema).iter_errors(report)]
    return report, [f"schema: {m}" for m in errors]


def check_op(spec: dict, stdout_text: str, root: Path) -> List[str]:
    """Problems with one command's output, as described by its check spec."""
    kind = spec["kind"]
    if kind == "chain-file":
        text = Path(spec["file"]).read_text(encoding="utf-8")
        return check_chain_file(text, root)
    report, p = schema_problems(stdout_text, root)
    if report is None:
        return p
    text = Path(spec["input"]).read_text(encoding="utf-8")
    if kind == "chain-census":
        return p + check_chain_census(report, text, spec["k"])
    lines = read_lines(text)
    if kind == "census-random":
        return p + check_census_random(report, lines)
    if kind == "facial-grid":
        return p + check_facial_grid(report, lines, spec["grid"])
    if kind == "verify-bounds":
        return p + check_verify_bounds(report, lines)
    if kind == "extract-distinct":
        return p + check_extract_distinct(report, lines, spec["seed"])
    raise ValueError(f"unknown check {kind!r}")


def main(argv: List[str]) -> int:
    manifest = json.loads(Path(argv[0]).read_text())
    root = Path(manifest["root"])
    problems = []
    for op in manifest["ops"]:
        stdout_text = Path(op["stdout"]).read_text(encoding="utf-8")
        try:
            problems.append(check_op(op["check"], stdout_text, root))
        except Exception as exc:  # a malformed report must fail the check, not the run
            problems.append([f"check raised {type(exc).__name__}: {exc}"])
    print(json.dumps({"problems": problems}))
    return 1 if any(problems) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
