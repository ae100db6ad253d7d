"""Command-line interface: construction, census, verification, reports.

Exit codes: 0 success, 1 a requested check failed, 2 parse or usage error
or a census too large for the available memory, 3 an interval comparison
could not be decided at the configured precision.

JSON reports follow the bundled schema (``triarea-report/1``).  They carry
exact scalar strings, never floats, and contain no timing, so identical
inputs, flags, and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .arrangement import Arrangement, ArrangementError, ArrangementParseError
from .bounds import trigrid_facial_formula, hexgrid_facial_formula, verify_arrangement
from .census import UNIT_AREA, AreaCensus, census, facial_triangle_count, per_line_counts
from .chain import ChainError, max_chain
from .conics import validate_general_position
from .constructions import (
    hexgrid,
    pentagon,
    random_arrangement,
    random_general_position,
    scale_to_unit_min,
    st_extremal,
    trigrid,
)
from .distinct import ColoredTripleSystem, extract_rainbow, is_rainbow
from .duality import lift, incidence_count, reference_params, unit_incidence_pairs
from .scalars import ScalarSyntaxError, format_scalar, parse_scalar

SCHEMA_ID = "triarea-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_UNDECIDED = 3


class _UsageError(Exception):
    pass


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _read_arrangement(path: str, min_lines: int = 1) -> Tuple[Arrangement, str]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    arr = Arrangement.from_text(text)
    if arr.n < min_lines:
        raise _UsageError(f"n >= {min_lines} required, file has {arr.n} lines")
    return arr, _digest(text)


def _emit(report: dict, as_json: bool, human: List[str], elapsed: Optional[float]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for row in human:
            print(row)
        if elapsed is not None:
            print(f"elapsed {elapsed:.3f}s")


def _base_report(command: str, digest: Optional[str], arr: Optional[Arrangement]) -> dict:
    report: dict = {"schema": SCHEMA_ID, "command": command}
    if digest is not None:
        report["input_digest"] = digest
    if arr is not None:
        report["field"] = arr.field_name()
        report["n"] = arr.n
    return report


def _require_seed(args) -> None:
    if args.json and args.seed is None:
        raise _UsageError("--seed is required with --json for randomized commands")


# -- generate ---------------------------------------------------------------

def _cmd_generate(args) -> int:
    name = args.construction
    if name == "hexgrid":
        arr = hexgrid(args.n)
    elif name == "trigrid":
        arr = trigrid(args.n)
    elif name == "pentagon":
        arr = pentagon()
    elif name == "st-extremal":
        arr, _ = st_extremal(args.k)
    elif name == "max-chain":
        arr = max_chain(args.k)
    elif name == "random":
        arr = random_arrangement(args.n, seed=args.seed or 0)
    else:  # random-general
        arr = random_general_position(args.n, seed=args.seed or 0)
    if args.scale_to_unit_min:
        arr = scale_to_unit_min(arr)
    text = arr.to_text()
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- census -----------------------------------------------------------------

def _cmd_census(args) -> int:
    start = time.monotonic()
    arr, digest = _read_arrangement(args.file, min_lines=3)
    area = parse_scalar(args.per_line) if args.per_line is not None else None
    if args.facial and not args.json:
        # pipe-friendly: the facial count alone, without the census
        print(facial_triangle_count(arr, backend=args.backend))
        return EXIT_OK
    cen = census(arr, backend=args.backend, table=area is not None)
    report = _base_report("census", digest, arr)
    report["backend"] = cen.backend
    results: dict = {
        "total_triples": cen.total_triples,
        "proper": cen.proper_count,
        "concurrent": cen.concurrent_count,
        "parallel_triples": cen.parallel_count,
        "distinct_areas": cen.distinct_count,
        "unit_count": cen.unit_count,
        "areas": None,  # written by _census_json
    }
    if cen.proper_count:
        results["min_area"] = format_scalar(cen.min_area)
        results["min_area_count"] = cen.min_area_count
        results["max_area"] = format_scalar(cen.max_area)
        results["max_area_count"] = cen.max_area_count
    if args.facial:
        results["facial_count"] = facial_triangle_count(arr, backend=args.backend)
    if area is not None:
        results["per_line_area"] = format_scalar(area)
        results["per_line_counts"] = per_line_counts(arr, area, cen=cen)
    report["results"] = results
    if args.json:
        print(_census_json(report, cen))
        return EXIT_OK

    human = [
        f"n {arr.n}  field {arr.field_name()}  backend {cen.backend}",
        f"triples {cen.total_triples}  proper {cen.proper_count}"
        f"  concurrent {cen.concurrent_count}  parallel {cen.parallel_count}",
        f"distinct areas {cen.distinct_count}",
        f"unit-area triangles {cen.unit_count}",
    ]
    if cen.proper_count:
        human.append(f"min area {results['min_area']} x{cen.min_area_count}")
        human.append(f"max area {results['max_area']} x{cen.max_area_count}")
    if area is not None:
        human.append(f"per-line counts for area {results['per_line_area']}:")
        for i, c in enumerate(results["per_line_counts"]):
            human.append(f"  line {i}: {c}")
    _emit(report, args.json, human, time.monotonic() - start)
    return EXIT_OK


# one entry of results["areas"] as json.dumps(indent=2) writes it; "%.0s"
# takes the den of an integer area and prints nothing
_AREA_ROW = '      {\n        "area": "%s",\n        "count": %d\n      }'
_FRACTION_ROW, _INTEGER_ROW = _AREA_ROW.replace("%s", "%d/%d"), _AREA_ROW.replace("%s", "%d%.0s")


def _census_json(report: dict, cen: AreaCensus) -> str:
    """json.dumps(report, indent=2) with results["areas"] written here by one
    % format over the classes' columns in increasing area order: the
    indenting encoder is slow on long lists, and area strings need no escapes."""
    report["results"]["areas"] = slot = "\0areas"
    order = cen._order
    if cen.num is None:
        rows = [_AREA_ROW] * len(order)
        values = [x for c in order.tolist() for x in (format_scalar(cen.areas[c]), cen.class_counts[c])]
    else:
        columns = np.stack((cen.num, cen.den, cen.class_counts), axis=1)[order]
        rows = [_INTEGER_ROW if q == 1 else _FRACTION_ROW for q in columns[:, 1].tolist()]
        values = columns.ravel().tolist()
    areas = "[\n" + ",\n".join(rows) % tuple(values) + "\n    ]" if rows else "[]"
    return json.dumps(report, indent=2).replace(json.dumps(slot), areas, 1)


# -- verify -----------------------------------------------------------------

def _cmd_verify_bounds(args) -> int:
    start = time.monotonic()
    arr, digest = _read_arrangement(args.file, min_lines=3)
    rep = verify_arrangement(arr)
    report = _base_report("verify bounds", digest, arr)
    report["results"] = {
        "passed": rep.passed,
        "max_area": rep.max_area,
        "min_area": rep.min_area,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "skipped": c.skipped,
                "detail": c.detail,
                "witnesses": [list(w) for w in c.witnesses],
            }
            for c in rep.checks
        ],
        "remark_edge_bound_violations": [
            list(w) for w in rep.remark_edge_bound_violations
        ],
    }
    human = [f"n {arr.n}  field {arr.field_name()}"]
    for c in rep.checks:
        status = "skip" if c.skipped else ("ok" if c.passed else "FAIL")
        suffix = f"  ({c.detail})" if c.detail else ""
        human.append(f"[{status}] {c.name}{suffix}")
    human.append("PASS" if rep.passed else "FAIL")
    _emit(report, args.json, human, time.monotonic() - start)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _cmd_verify_duality(args) -> int:
    start = time.monotonic()
    arr, digest = _read_arrangement(args.file, min_lines=3)
    indices = [args.line] if args.line is not None else list(range(arr.n))
    for i in indices:
        if not 0 <= i < arr.n:
            raise _UsageError(f"line index {i} out of range")
    census_side = per_line_counts(arr, UNIT_AREA)
    rows = []
    ok = True
    for i in indices:
        ell = arr.lines[i]
        params = reference_params(arr, ell)
        points, duals = lift(params)
        inc = incidence_count(points, duals)
        match = census_side[i] == inc
        ok = ok and match
        rows.append({"line": i, "census": census_side[i], "incidence": inc, "match": match})
    report = _base_report("verify duality", digest, arr)
    report["results"] = {"passed": ok, "per_line": rows}
    human = [f"n {arr.n}  field {arr.field_name()}"]
    for r in rows:
        mark = "ok" if r["match"] else "FAIL"
        human.append(
            f"[{mark}] line {r['line']}: census {r['census']}  incidence {r['incidence']}"
        )
    human.append("PASS" if ok else "FAIL")
    _emit(report, args.json, human, time.monotonic() - start)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_verify_general_position(args) -> int:
    start = time.monotonic()
    arr, digest = _read_arrangement(args.file, min_lines=3)
    _require_seed(args)
    seed = args.seed if args.seed is not None else 0
    rep = validate_general_position(
        arr, exhaustive_cap=args.exhaustive_cap, samples=args.samples, seed=seed
    )
    report = _base_report("verify general-position", digest, arr)
    if args.seed is not None:
        report["seed"] = seed
    report["results"] = {
        "passed": rep.passed,
        "parallel_pairs": [list(p) for p in rep.parallel_pairs],
        "concurrent_triples": [list(t) for t in rep.concurrent_triples],
        "tangent_six": [list(s) for s in rep.tangent_six],
        "six_checked": rep.six_checked,
        "six_total": rep.six_total,
        "exhaustive": rep.exhaustive,
    }
    human = [
        f"n {arr.n}  field {arr.field_name()}",
        f"parallel pairs: {len(rep.parallel_pairs)}",
        f"concurrent triples: {len(rep.concurrent_triples)}",
        f"tangent six-tuples: {len(rep.tangent_six)}"
        f" ({rep.six_checked}/{rep.six_total} checked,"
        f" {'exhaustive' if rep.exhaustive else 'sampled'})",
        "PASS" if rep.passed else "FAIL",
    ]
    _emit(report, args.json, human, time.monotonic() - start)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


# -- dualize ----------------------------------------------------------------

def _cmd_dualize(args) -> int:
    start = time.monotonic()
    arr, digest = _read_arrangement(args.file, min_lines=3)
    if not 0 <= args.line < arr.n:
        raise _UsageError(f"line index {args.line} out of range")
    ell = arr.lines[args.line]
    params = reference_params(arr, ell)
    points, duals = lift(params)
    inc = incidence_count(points, duals)
    pairs = unit_incidence_pairs(arr, ell)
    report = _base_report("dualize", digest, arr)
    report["results"] = {
        "line": args.line,
        "points": [
            {"line": p.index, "u": format_scalar(p.u), "v": format_scalar(p.v)}
            for p in points
        ],
        "duals": [
            {
                "line": d.index,
                "slope": format_scalar(d.slope),
                "intercept": format_scalar(d.intercept),
            }
            for d in duals
        ],
        "incidence_count": inc,
        "unit_pairs": [list(p) for p in pairs],
    }
    human = [f"n {arr.n}  reference line {args.line}"]
    for p, d in zip(points, duals):
        human.append(
            f"line {p.index}: point ({format_scalar(p.u)}, {format_scalar(p.v)})"
            f"  dual y = {format_scalar(d.slope)}*x + {format_scalar(d.intercept)}"
        )
    human.append(f"incidences {inc}")
    _emit(report, args.json, human, time.monotonic() - start)
    return EXIT_OK


# -- extract-distinct --------------------------------------------------------

def _cmd_extract_distinct(args) -> int:
    start = time.monotonic()
    arr, digest = _read_arrangement(args.file, min_lines=3)
    _require_seed(args)
    seed = args.seed if args.seed is not None else 0
    system = ColoredTripleSystem.from_arrangement(arr)
    strategy = args.strategy.replace("-", "_")
    subset = extract_rainbow(
        system, strategy=strategy, seed=seed, trials=args.trials
    )
    verified = is_rainbow(system, subset)
    report = _base_report("extract-distinct", digest, arr)
    if args.seed is not None:
        report["seed"] = seed
    report["results"] = {
        "strategy": args.strategy,
        "trials": args.trials,
        "subset": list(subset),
        "size": len(subset),
        "verified_all_distinct": verified,
    }
    human = [
        f"n {arr.n}  strategy {args.strategy}  trials {args.trials}",
        f"subset size {len(subset)}: {' '.join(map(str, subset))}",
        f"all triangle areas distinct: {verified}",
    ]
    _emit(report, args.json, human, time.monotonic() - start)
    return EXIT_OK if verified else EXIT_CHECK_FAILED


# -- reproduce ---------------------------------------------------------------

def _cmd_reproduce_table1(args) -> int:
    start = time.monotonic()
    ns = list(range(3, 13))
    hex_counts = [facial_triangle_count(hexgrid(n)) for n in ns]
    tri_counts = [facial_triangle_count(trigrid(n)) for n in ns]
    hex_formula = [hexgrid_facial_formula(n) for n in ns]
    tri_formula = [trigrid_facial_formula(n) for n in ns]
    flags = []
    for n, c, f in zip(ns, tri_counts, tri_formula):
        if c != f:
            flags.append({"row": "triangular", "n": n, "construction": c, "formula": f})
    for n, c, f in zip(ns, hex_counts, hex_formula):
        if c != f:
            flags.append({"row": "hexagonal", "n": n, "construction": c, "formula": f})
    report = {
        "schema": SCHEMA_ID,
        "command": "reproduce table1",
        "results": {
            "n": ns,
            "hexagonal": hex_counts,
            "triangular": tri_counts,
            "hexagonal_formula": hex_formula,
            "triangular_formula": tri_formula,
            "flags": flags,
        },
    }

    def row(label: str, values: Sequence[int]) -> str:
        return label.ljust(11) + " ".join(str(v).rjust(3) for v in values)

    human = [
        row("n", ns),
        row("hexagonal", hex_counts),
        row("triangular", tri_counts),
    ]
    for f in flags:
        human.append(
            f"flag: {f['row']} n={f['n']} construction count {f['construction']}"
            f" differs from closed formula {f['formula']}"
        )
    _emit(report, args.json, human, time.monotonic() - start)
    return EXIT_OK


# -- parser ------------------------------------------------------------------

@cache  # parse_args leaves the parser as it was, so one serves every main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triarea",
        description="Exact triangle-area census in planar line arrangements.",
    )
    parser.add_argument("--version", action="version", version=f"triarea {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a constructed arrangement")
    gen.add_argument(
        "construction",
        choices=[
            "hexgrid",
            "trigrid",
            "pentagon",
            "st-extremal",
            "max-chain",
            "random",
            "random-general",
        ],
    )
    gen.add_argument("-n", type=int, default=9, help="number of lines (grids, random)")
    gen.add_argument("-k", type=int, default=1, help="parameter k (st-extremal, max-chain)")
    gen.add_argument("--seed", type=int, default=None, help="RNG seed (random)")
    gen.add_argument(
        "--scale-to-unit-min",
        action="store_true",
        help="rescale so the minimum triangle area is 1",
    )
    gen.add_argument("-o", "--output", default="-", help="output file (default stdout)")
    gen.set_defaults(func=_cmd_generate)

    cen = sub.add_parser("census", help="triangle area census of an arrangement file")
    cen.add_argument("file", nargs="?", default="-", help="arrangement file or - for stdin")
    cen.add_argument("--facial", action="store_true", help="count facial triangles")
    cen.add_argument(
        "--per-line",
        metavar="AREA",
        default=None,
        help="per-line triangle counts for the given exact area",
    )
    cen.add_argument(
        "--backend",
        choices=["auto", "exact", "numpy"],
        default="auto",
    )
    cen.add_argument("--json", action="store_true")
    cen.set_defaults(func=_cmd_census)

    ver = sub.add_parser("verify", help="run verification suites")
    vsub = ver.add_subparsers(dest="verify_what", required=True)

    vb = vsub.add_parser("bounds", help="combinatorial bounds and forest checks")
    vb.add_argument("file", nargs="?", default="-")
    vb.add_argument("--json", action="store_true")
    vb.set_defaults(func=_cmd_verify_bounds)

    vd = vsub.add_parser("duality", help="unit count vs point-line incidences")
    vd.add_argument("file", nargs="?", default="-")
    vd.add_argument("--line", type=int, default=None, help="restrict to one line index")
    vd.add_argument("--json", action="store_true")
    vd.set_defaults(func=_cmd_verify_duality)

    vg = vsub.add_parser("general-position", help="no parallels, concurrences, tangent six-tuples")
    vg.add_argument("file", nargs="?", default="-")
    vg.add_argument("--exhaustive-cap", type=int, default=3000)
    vg.add_argument("--samples", type=int, default=3000)
    vg.add_argument("--seed", type=int, default=None)
    vg.add_argument("--json", action="store_true")
    vg.set_defaults(func=_cmd_verify_general_position)

    dua = sub.add_parser("dualize", help="lift a line's frame to points and dual lines")
    dua.add_argument("file", nargs="?", default="-")
    dua.add_argument("--line", type=int, required=True, help="reference line index")
    dua.add_argument("--json", action="store_true")
    dua.set_defaults(func=_cmd_dualize)

    ext = sub.add_parser("extract-distinct", help="subset of lines with all-distinct triangle areas")
    ext.add_argument("file", nargs="?", default="-")
    ext.add_argument("--strategy", choices=["greedy", "sample-delete"], default="greedy")
    ext.add_argument("--seed", type=int, default=None)
    ext.add_argument("--trials", type=int, default=8)
    ext.add_argument("--json", action="store_true")
    ext.set_defaults(func=_cmd_extract_distinct)

    rep = sub.add_parser("reproduce", help="reproduce published tables")
    rsub = rep.add_subparsers(dest="reproduce_what", required=True)
    rt1 = rsub.add_parser("table1", help="facial triangle counts for n=3..12")
    rt1.add_argument("--json", action="store_true")
    rt1.set_defaults(func=_cmd_reproduce_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ArrangementParseError, ScalarSyntaxError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ArrangementError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ChainError as exc:
        print(f"undecided at configured precision: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
