#!/usr/bin/env python3
"""triarea benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 benchmark/run.py --workload census-random --seed 1 --seconds 20 --trace 0

Each pass runs the workload's CLI commands in this process through
``triarea.cli.main(argv)``, with stdout captured in memory, so interpreter
start-up and pipes stay out of the timed region.  Passes repeat until
``--seconds`` of passes have run.  The first pass's outputs go through the
independent checks in ``checks.py`` (a child process, so its memory does not
count toward ``peak_rss_mb``); every later pass must reproduce them byte for
byte.  A command fails on a nonzero exit code, an exception or a failed
check; a failed command is counted and left out of the pass time.

``--trace 0`` reports the end-to-end metrics, times at the yardstick's
reference speed (see ``calibrate``):

* ``setup_s``: median over fresh processes of the time from process start to
  ready-to-run: importing triarea, writing the inputs, one warm-up pass of
  the same commands on tiny inputs; at the reference speed of a start-up
  yardstick (see ``setup_seconds``);
* ``pass_s``: median time of one pass;
* ``peak_rss_mb``: peak resident set of this process.

The unscaled wall times are printed above the result line.

``--trace 1`` reports the per-layer metrics of ``layers.py``: untraced
passes alternating with passes under span wrappers, then one pass under
counting wrappers.  Spans and counts go to a trace file (``--trace-file``, default
``benchmark/results/trace-<workload>-seed<seed>.json``).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_ROUNDS = 8
CHECK_TIMEOUT_S = 120

# The machine-speed yardstick.  On a shared 2-core VM the same pass runs 20-30%
# faster or slower for minutes at a time, as other tenants come and go; a
# fixed piece of pure-Python work timed next to every pass slows down with
# it.  End-to-end times are reported at the yardstick's reference speed:
# wall time * CAL_REF_S / (yardstick time around that pass).
CAL_REF_S = 0.1
# small rounds, so the yardstick adds about 1 MB to peak_rss_mb
CAL_ROUNDS, CAL_ITEMS = 10, 8_000

# The start-up yardstick for setup_s: a fresh interpreter importing a fixed
# set of standard modules, C extensions among them, much as set-up imports
# numpy and triarea.  Starting processes and loading modules speeds up and
# slows down by 15-25% over minutes in ways the pure-Python yardstick above
# follows only in part.
START_REF_S = 0.15
START_YARDSTICK = ("import argparse, ast, ctypes, decimal, email.parser, fractions, hashlib, "
                   "http.client, inspect, json, sqlite3, statistics, unittest, xml.dom.minidom")


class OpResult:
    __slots__ = ("ok", "seconds", "stdout", "output", "same")

    def __init__(self, ok: bool, seconds: float, stdout: str, output: Optional[str]) -> None:
        self.ok = ok
        self.seconds = seconds
        self.stdout = stdout
        self.output = output
        self.same = True  # output identical to the first pass's


def import_program():
    sys.path.insert(0, str(SRC))
    import triarea.cli

    if not Path(triarea.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"triarea imported from {triarea.cli.__file__}, not from {SRC}")
    return triarea.cli


def calibrate() -> float:
    """Wall time of the yardstick: big-int gcds, dict inserts and a keyed
    sort, never calling triarea, so no change to the program moves it."""
    rng = random.Random(7)
    t0 = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        xs = [rng.getrandbits(80) for _ in range(CAL_ITEMS)]
        table = {x % 1000003: gcd(x, 1234567891011121314) for x in xs}
        sorted(xs, key=lambda v: v % 65537)
        del table
    return time.perf_counter() - t0


def at_reference_speed(walls: List[float], cals: List[float], ref: float = CAL_REF_S) -> List[float]:
    """Each wall time rescaled by the yardstick timed before and after it."""
    return [w * 2 * ref / (before + after) for w, before, after in zip(walls, cals, cals[1:])]


def run_op(cli, op: workloads.Op, probe=None) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    sid = probe.begin(probe.ROOT) if probe is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except (Exception, SystemExit):
        rc = -1
    dt = time.perf_counter() - t0
    if sid is not None:
        probe.end(sid)
    output = None
    if op.output and rc == 0:
        output = Path(op.output).read_text(encoding="utf-8")
    return OpResult(rc == 0, dt, out.getvalue(), output)


def run_pass(cli, wl: workloads.Workload, first: Optional[List[OpResult]] = None, probe=None) -> List[OpResult]:
    """One pass; a later pass is compared with the first, then its outputs
    are dropped, so memory does not grow with the number of passes."""
    gc.collect()
    results = [run_op(cli, op, probe) for op in wl.ops]
    for res, ref in zip(results, first or []):
        res.same = res.stdout == ref.stdout and res.output == ref.output
        res.stdout = res.output = None
    return results


def set_up(name: str, seed: int, workdir: Path):
    """Import the program, write the inputs, warm up on tiny inputs."""
    cli = import_program()
    wl = workloads.build(name, seed, workdir)
    workloads.write_inputs(wl, workdir)
    warm_dir = workdir / "warmup"
    warm = workloads.build(name, seed, warm_dir, tiny=True)
    workloads.write_inputs(warm, warm_dir)
    run_pass(cli, warm)
    return cli, wl


def setup_seconds(name: str, seed: int, workdir: Path):
    """Wall times of SETUP_ROUNDS fresh processes doing only the set-up, and
    the start-up yardstick timed around each.  One more probe runs first and
    is not counted: it alone may find byte code and file caches cold."""

    def wall(cmd: List[str]) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return dt

    def probe(i: int) -> List[str]:
        return [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name,
                "--seed", str(seed), "--workdir", str(workdir / f"probe{i}")]

    yardstick = [sys.executable, "-c", START_YARDSTICK]
    wall(probe(0))
    times, cals = [], [wall(yardstick)]
    for i in range(1, SETUP_ROUNDS + 1):
        times.append(wall(probe(i)))
        cals.append(wall(yardstick))
    return times, cals


def check_outputs(wl: workloads.Workload, first: List[OpResult], workdir: Path) -> List[List[str]]:
    """Problems per command of the first pass, from checks.py in a child.
    Commands that already failed are not checked."""
    check_dir = workdir / "check"
    check_dir.mkdir()
    ops = []
    for i, (op, res) in enumerate(zip(wl.ops, first)):
        if not res.ok:
            continue
        spec = dict(op.check)
        if op.output:
            # judge the first pass's file, not whatever a later pass left
            saved = check_dir / Path(op.output).name
            saved.write_text(res.output or "", encoding="utf-8")
            spec = {k: str(saved) if v == op.output else v for k, v in spec.items()}
        (check_dir / f"op{i}.out").write_text(res.stdout, encoding="utf-8")
        ops.append({"stdout": str(check_dir / f"op{i}.out"), "check": spec})
    manifest = check_dir / "manifest.json"
    manifest.write_text(json.dumps({"root": str(ROOT), "ops": ops}))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "checks.py"), str(manifest)],
                              capture_output=True, text=True, timeout=CHECK_TIMEOUT_S)
        found = iter(json.loads(proc.stdout.strip().splitlines()[-1])["problems"])
    except (subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        found = iter([f"checker did not finish: {exc!r}"] for _ in ops)
    return [next(found) if res.ok else [] for res in first]


def judge(wl: workloads.Workload, passes: List[List[OpResult]], workdir: Path):
    """Mark failed commands; returns (correct, attempted, failed, problems)."""
    first = passes[0]
    problems = check_outputs(wl, first, workdir)
    wrong = [bool(p) for p in problems]
    attempted = failed = 0
    for p, results in enumerate(passes):
        for i, res in enumerate(results):
            attempted += 1
            if not res.same:
                problems[i].append(f"output of pass {p} differs from the first pass")
            if not (res.ok and res.same and first[i].ok and not wrong[i]):
                res.ok = False
                failed += 1
    return not any(problems), attempted, failed, problems


def pass_walls(passes: List[List[OpResult]]) -> List[float]:
    """Wall time of each pass, over the commands that did not fail."""
    return [sum(r.seconds for r in results if r.ok) for results in passes]


def timed_passes(cli, wl, seconds: float):
    """Passes for ``seconds``, with the yardstick timed between them."""
    passes, cals = [], [calibrate()]
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(cli, wl, passes[0] if passes else None))
        cals.append(calibrate())
    return passes, cals


def end_to_end(args, workdir: Path) -> dict:
    setups, setup_cals = setup_seconds(args.workload, args.seed, workdir)
    cli, wl = set_up(args.workload, args.seed, workdir / "run")
    passes, cals = timed_passes(cli, wl, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct, attempted, failed, problems = judge(wl, passes, workdir)
    walls = pass_walls(passes)
    metrics = {
        "setup_s": (statistics.median(at_reference_speed(setups, setup_cals, START_REF_S)), "s"),
        "pass_s": (statistics.median(at_reference_speed(walls, cals)), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {"passes": len(passes),
              "wall pass_s (median)": statistics.median(walls),
              "wall setup_s (median)": statistics.median(setups),
              "pass walls": walls, "setup walls": setups,
              "yardstick": cals, "start-up yardstick": setup_cals}
    return summary(correct, attempted, failed, metrics), problems, detail


def traced(args, workdir: Path) -> dict:
    import layers

    cli, wl = set_up(args.workload, args.seed, workdir / "run")
    # Untraced and traced passes alternate, so that both medians sample the
    # same stretch of machine time and their difference is the overhead.
    probe = layers.Probe()
    plain: List[List[OpResult]] = []
    spans_passes: List[List[OpResult]] = []
    per_pass: List[Dict[str, float]] = []
    t0 = time.perf_counter()
    while not per_pass or time.perf_counter() - t0 < args.seconds:
        plain.append(run_pass(cli, wl, plain[0] if plain else None))
        probe.install_spans()
        first_span = len(probe.spans)
        spans_passes.append(run_pass(cli, wl, plain[0], probe))
        probe.uninstall()
        per_pass.append(layers.span_metrics(layers.span_totals(probe.spans, first_span)))

    probe.install_counters()
    counted = run_pass(cli, wl, plain[0])
    probe.uninstall()

    passes = plain + spans_passes + [counted]
    correct, attempted, failed, problems = judge(wl, passes, workdir)
    untraced_s = statistics.median(pass_walls(plain))
    traced_s = statistics.median(pass_walls(spans_passes))
    metrics = {name: (statistics.median(p[name] for p in per_pass), "s") for name in layers.SPAN_METRICS}
    for name, value in layers.count_metrics(probe.counts).items():
        metrics[name] = (value, "MB" if name.endswith("_mb") else "count")
    metrics["cli.report_bytes"] = (sum(len(r.stdout.encode()) for r in passes[0]), "bytes")
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    trace_file = Path(args.trace_file) if args.trace_file else HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    base = probe.spans[0][2] if probe.spans else 0.0
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "columns": ["id", "name", "parent", "start_s", "end_s"],
        "spans": [[i, n, p, round(s - base, 9), round(e - base, 9)] for i, (n, p, s, e) in enumerate(probe.spans)],
        "counts": dict(sorted(probe.counts.items())),
        "untraced_pass_s": pass_walls(plain),
        "traced_pass_s": pass_walls(spans_passes),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }, indent=1))
    detail = {"untraced_passes": len(plain), "traced_passes": len(spans_passes), "trace_file": str(trace_file)}
    return summary(correct, attempted, failed, metrics), problems, detail


def summary(correct, attempted, failed, metrics) -> dict:
    """The result line: metrics as {name: {"value", "unit"}}."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="triarea benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "triarea" / "__init__.py").is_file():
        print(f"error: no triarea sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, args.seed, Path(args.workdir))
        return 0

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        out, problems, detail = traced(args, workdir) if args.trace else end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in out["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for key, value in detail.items():
        print(f"{key}: {value}")
    for i, found in enumerate(problems):
        for line in found:
            print(f"check failed, command {i}: {line}")
    print(f"attempted {out['attempted']}  failed {out['failed']}  correct {out['correct']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
