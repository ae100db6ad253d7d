"""The benchmark's own tests, at tiny sizes.

Each workload's checks must pass on the program's real output and fail on a
corrupted copy of it.  Run from the repository root:

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from triarea import cli  # noqa: E402


def run_tiny(name: str, tmp_path: Path, seed: int = 3):
    """Real outputs of the workload's commands on its tiny inputs."""
    wl = workloads.build(name, seed, tmp_path, tiny=True)
    workloads.write_inputs(wl, tmp_path)
    outs = []
    for op in wl.ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(op.argv) == 0
        outs.append(buf.getvalue())
    return wl, outs


def problems(op, stdout_text: str):
    return checks.check_op(op.check, stdout_text, ROOT)


def edit(report_text: str, change) -> str:
    report = json.loads(report_text)
    change(report["results"])
    return json.dumps(report, indent=2)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_real_output_passes(name, tmp_path):
    wl, outs = run_tiny(name, tmp_path)
    for op, out in zip(wl.ops, outs):
        assert problems(op, out) == []


def test_census_random_catches_a_changed_count(tmp_path):
    wl, (out,) = run_tiny("census-random", tmp_path)

    def bump(res):
        res["areas"][1]["count"] += 1
        res["proper"] += 1
        res["parallel_triples"] -= 1

    assert any("multiset" in p for p in problems(wl.ops[0], edit(out, bump)))


def test_census_random_catches_a_changed_area(tmp_path):
    wl, (out,) = run_tiny("census-random", tmp_path)

    def shift(res):
        lo, hi = res["areas"][0]["area"], res["areas"][1]["area"]
        from fractions import Fraction

        res["areas"][0]["area"] = res["min_area"] = str((Fraction(lo) + Fraction(hi)) / 2)

    assert any("multiset" in p for p in problems(wl.ops[0], edit(out, shift)))


def test_facial_grid_catches_an_off_by_one_face_count(tmp_path):
    wl, outs = run_tiny("facial-grid", tmp_path)
    for op, out in zip(wl.ops, outs):
        bad = edit(out, lambda res: res.update(facial_count=res["facial_count"] + 1))
        assert any("closed form" in p for p in problems(op, bad))


def test_facial_grid_catches_lost_concurrent_triples(tmp_path):
    wl, outs = run_tiny("facial-grid", tmp_path)

    def drop(res):
        res["parallel_triples"] += res["concurrent"] + 1
        res["concurrent"] = 0
        res["proper"] -= 1
        res["areas"][-1]["count"] -= 1
        res["max_area_count"] -= 1

    assert any("distinct-direction" in p for p in problems(wl.ops[1], edit(outs[1], drop)))


def test_closed_forms_match_small_table():
    # published small-case facial counts for n = 3..12
    assert [checks.kagome_faces(n) for n in range(3, 13)] == [1, 2, 3, 6, 7, 10, 13, 16, 19, 24]
    assert [checks.triangular_faces(n) for n in range(5, 13)] == [2, 4, 6, 8, 12, 14, 18, 22]


def test_verify_bounds_catches_a_wrong_maximum(tmp_path):
    wl, outs = run_tiny("verify-distinct", tmp_path)
    bad = edit(outs[0], lambda res: res.update(max_area=res["min_area"]))
    assert any("max_area" in p for p in problems(wl.ops[0], bad))
    bad = edit(outs[0], lambda res: res.update(passed=False))
    assert any("did not pass" in p for p in problems(wl.ops[0], bad))


def test_extract_distinct_catches_a_repeated_area():
    # triangles (0,1,2) and (0,1,3) both have area 18
    lines = [(0, 1, -3), (1, -2, -3), (1, -1, 0), (1, 2, -3)]
    report = {
        "command": "extract-distinct",
        "seed": 0,
        "results": {"subset": [0, 1, 2, 3], "size": 4, "verified_all_distinct": True},
    }
    assert any("repeated area" in p for p in checks.check_extract_distinct(report, lines, 0))
    report["results"].update(subset=[0, 1, 2], size=3)
    assert checks.check_extract_distinct(report, lines, 0) == []


def test_tower_chain_catches_a_perturbed_area(tmp_path):
    wl, outs = run_tiny("tower-chain", tmp_path)

    def perturb(res):
        # off by 10^-30, far below float precision
        area = res["areas"][0]["area"] + "+1/1000000000000000000000000000000"
        res["areas"][0]["area"] = res["min_area"] = area

    assert any("triangles, report says" in p for p in problems(wl.ops[1], edit(outs[1], perturb)))
    bad = edit(outs[1], lambda res: res.update(max_area_count=4))
    assert problems(wl.ops[1], bad)


def test_tower_chain_catches_a_file_that_does_not_round_trip(tmp_path):
    wl, outs = run_tiny("tower-chain", tmp_path)
    path = Path(wl.ops[0].output)
    path.write_text(path.read_text().replace("\n", "  \n", 1))
    assert problems(wl.ops[0], outs[0])


def test_schema_violation_is_caught(tmp_path):
    wl, (out,) = run_tiny("census-random", tmp_path)
    report = json.loads(out)
    report["elapsed"] = 1.0
    assert any(p.startswith("schema") for p in problems(wl.ops[0], json.dumps(report)))


def test_counts_repeat_and_wrappers_come_off(tmp_path):
    from triarea import scalars

    original = scalars.exact_sign
    wl = workloads.build("tower-chain", 0, tmp_path, tiny=True)
    seen = []
    for _ in range(2):
        probe = layers.Probe()
        probe.install_counters()
        for op in wl.ops:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(op.argv) == 0
        probe.uninstall()
        seen.append(layers.count_metrics(probe.counts))
    assert seen[0] == seen[1]
    assert seen[0]["scalars.quadext_mul_calls"] > 0
    assert scalars.exact_sign is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "census-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
