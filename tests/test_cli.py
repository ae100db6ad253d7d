"""End-to-end tests for the command-line interface.

Most tests drive ``triarea.cli.main`` in-process; one subprocess test
exercises the real pipe plumbing.  Exit code 3 (undecided interval
comparison) has no cheap honest trigger: every shipped construction
resolves exactly, so that path is covered by unit tests on the chain's
root separation instead.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from importlib import resources

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triarea import Arrangement, Line
from triarea.census import AreaCensus, census, facial_triangles
from triarea.chain import max_chain
from triarea.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_PARSE, main
from triarea.scalars import format_scalar

from test_census import oracle_facial_triangles

TABLE_HEX = [1, 2, 3, 6, 7, 10, 13, 16, 19, 24]
TABLE_TRI = [0, 1, 2, 4, 6, 8, 12, 14, 18, 22]


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture(scope="module")
def schema():
    text = resources.files("triarea").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def pentagon_file(tmp_path, capsys):
    path = tmp_path / "pent.lines"
    code = main(["generate", "pentagon", "-o", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    return str(path)


def _validated_report(schema, out):
    report = json.loads(out)
    jsonschema.Draft7Validator(schema).validate(report)
    return report


def test_generate_round_trip(tmp_path, capsys):
    path = tmp_path / "arr.lines"
    code, out, _ = run_cli(
        capsys, ["generate", "random", "-n", "8", "--seed", "3", "-o", str(path)]
    )
    assert code == EXIT_OK and out == ""
    text = path.read_text()
    # file format is canonical: parse and re-serialize reproduces it
    assert Arrangement.from_text(text).to_text() == text


def test_census_json_schema(schema, pentagon_file, capsys):
    code, out, _ = run_cli(capsys, ["census", pentagon_file, "--json"])
    assert code == EXIT_OK
    report = _validated_report(schema, out)
    assert report["command"] == "census"
    assert report["field"] == "Q(sqrt 5)"
    assert report["n"] == 5
    assert report["input_digest"].startswith("sha256:")
    res = report["results"]
    assert res["total_triples"] == 10
    assert res["proper"] == 10
    assert res["distinct_areas"] == 2
    assert res["max_area_count"] == 5
    # exact scalar strings, never floats
    for entry in res["areas"]:
        assert isinstance(entry["area"], str)


def test_census_per_line_round_trips_scalars(pentagon_file, capsys):
    code, out, _ = run_cli(capsys, ["census", pentagon_file, "--json"])
    assert code == EXIT_OK
    max_area = json.loads(out)["results"]["max_area"]
    code, out, _ = run_cli(
        capsys, ["census", pentagon_file, "--json", "--per-line", max_area]
    )
    assert code == EXIT_OK
    res = json.loads(out)["results"]
    assert res["per_line_area"] == max_area
    assert res["per_line_counts"] == [3, 3, 3, 3, 3]


def test_census_human_mode(pentagon_file, capsys):
    code, out, _ = run_cli(capsys, ["census", pentagon_file])
    assert code == EXIT_OK
    assert "distinct areas 2" in out
    assert "elapsed" in out


def test_census_human_mode_builds_no_area_list(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rand.lines"
    main(["generate", "random", "-n", "10", "--seed", "4", "-o", str(path)])
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("human mode prints no area list")

    monkeypatch.setattr(AreaCensus, "areas", property(refuse))
    monkeypatch.setattr(AreaCensus, "sorted_items", refuse)
    monkeypatch.setattr("triarea.cli._census_json", refuse)
    code, out, _ = run_cli(capsys, ["census", str(path), "--per-line", "1"])
    assert code == EXIT_OK
    assert "min area" in out and "line 9:" in out


_chain_lines = cache(lambda: max_chain(1).lines)


@st.composite
def census_arrangements(draw):
    small = st.integers(-3, 3)
    shape = draw(st.sampled_from(["grid", "parallel", "concurrent", "single", "tower"]))
    if shape == "grid":
        ab = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
        lines = [Line(*draw(ab), draw(small)) for _ in range(9)]
    elif shape == "parallel":  # every triple has a parallel pair: no areas
        cs = draw(st.lists(small, min_size=3, max_size=6, unique=True))
        lines = [Line(1, 2, c) for c in cs] + [Line(0, 1, c) for c in cs[:2]]
    elif shape == "concurrent":  # every triple meets in the origin: no areas
        slopes = draw(st.lists(small, min_size=3, max_size=6, unique=True))
        lines = [Line(m, 1, 0) for m in slopes]
    elif shape == "single":
        # x = -a, y = -b and x + y = -c with |a + b| < c never meet in one point
        lines = [Line(1, 0, draw(small)), Line(0, 1, draw(small)), Line(1, 1, draw(st.integers(7, 12)))]
    else:  # tower areas: sqrt(...) with nested parentheses
        picks = draw(st.lists(st.integers(0, 9), min_size=3, max_size=5, unique=True))
        lines = [_chain_lines()[i] for i in sorted(picks)]
    return Arrangement(dict.fromkeys(lines))


@settings(max_examples=40, deadline=None)
@given(census_arrangements(), st.booleans(), st.sampled_from([None, "min_area", "max_area", "1"]))
def test_census_json_bytes_match_json_dumps(arr, facial, per_line):
    assume(arr.n >= 3)
    text = arr.to_text()
    try:
        parsed = Arrangement.from_text(text)
    except ValueError:  # the canonical text of some chain subsets does not parse back
        assume(False)
    cen = census(parsed)
    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arr.lines")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["census", "--json", path] + (["--facial"] if facial else [])
        if per_line is not None:
            area = getattr(cen, per_line, None)  # None for "1" and without triangles
            argv += ["--per-line", "1" if area is None else format_scalar(area)]
        for backend in ("auto", "exact"):
            with redirect_stdout(io.StringIO()) as buf:
                assert main(argv + ["--backend", backend]) == EXIT_OK
            outs.append(buf.getvalue())
    for out in outs:
        report = json.loads(out)
        assert report["results"]["areas"] == [
            {"area": format_scalar(a), "count": c} for a, c in cen.sorted_items()
        ]
        assert out == json.dumps(report, indent=2) + "\n"
    # the exact writer spells rational areas as the int64 one does
    auto, exact = map(json.loads, outs)
    assert exact == {**auto, "backend": "exact"}


def test_census_facial_prints_bare_count(capsys, monkeypatch, tmp_path):
    path = tmp_path / "hex.lines"
    code = main(["generate", "hexgrid", "-n", "12", "-o", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK

    def no_census(*args, **kwargs):
        raise AssertionError("the bare facial count needs no census")

    monkeypatch.setattr("triarea.cli.census", no_census)
    code, out, _ = run_cli(capsys, ["census", str(path), "--facial"])
    assert code == EXIT_OK
    assert out == "24\n"


def test_pipe_subprocess():
    # the documented one-liner, via a real shell pipe
    cmd = (
        f"{sys.executable} -m triarea.cli generate hexgrid -n 12 | "
        f"{sys.executable} -m triarea.cli census --facial -"
    )
    got = subprocess.run(
        cmd, shell=True, capture_output=True, text=True, timeout=300
    )
    assert got.returncode == 0
    assert got.stdout.strip() == "24"



def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # census --json, then human census, in one process print the bytes of
    # two fresh processes, and the parser is built once
    path = tmp_path / "hex.lines"
    assert main(["generate", "hexgrid", "-n", "12", "-o", str(path)]) == EXIT_OK
    runs = [["census", "--json", str(path)], ["census", str(path)]]
    code = (
        "import sys\n"
        "from triarea import cli\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv) == cli.EXIT_OK\n"
        "print('parsers', cli._build_parser.cache_info().misses)\n"
    )

    def stdout(*argv):
        got = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=300)
        assert got.returncode == 0, got.stderr
        # the human report ends with its wall time
        return "".join(line for line in got.stdout.splitlines(True) if not line.startswith("elapsed "))

    fresh = "".join(stdout("-m", "triarea.cli", *argv) for argv in runs)
    assert '"command": "census"' in fresh
    assert stdout("-c", code) == fresh + "parsers 1\n"

# sha256 of `generate max-chain -k 1` and of `census --json` on its output,
# recorded before the census and the chain moved to the coefficient
# determinant; the tower arithmetic must not change a byte of either
MAX_CHAIN_1_SHA256 = "8b2ea13241aae02529cd2414f64727a181114fe2acda8abe530c4129673d22fd"
MAX_CHAIN_1_CENSUS_SHA256 = "2b6a63208b61e6058011ad619732312ac63da9af5dfab23dba932db3db30be04"


def test_max_chain_outputs_pinned(tmp_path, capsys):
    path = tmp_path / "chain.lines"
    code, out, _ = run_cli(capsys, ["generate", "max-chain", "-k", "1", "-o", str(path)])
    assert code == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MAX_CHAIN_1_SHA256
    code, out, _ = run_cli(capsys, ["census", "--json", str(path)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == MAX_CHAIN_1_CENSUS_SHA256


# sha256 of `verify bounds --json` on `generate max-chain -k 1` and on
# `generate random-general -n 30 --seed 1` (no parallel pair), recorded while
# the edge graphs still came from per-pair frame parameters
VERIFY_BOUNDS_SHA256 = {
    ("max-chain", "-k", "1"): "f15d4e07a7a1c0264f08dcdf0c9310934a92a1e2ea37eb3581f24f1df3733995",
    ("random-general", "-n", "30", "--seed", "1"): "2e574eb733cdf40fb43cff49574719c82eefe3ade73ada968d17418f892fe63e",
}


@pytest.mark.parametrize("construction", VERIFY_BOUNDS_SHA256, ids=lambda c: c[0])
def test_verify_bounds_outputs_pinned(construction, tmp_path, capsys):
    path = tmp_path / "input.lines"
    code, _, _ = run_cli(capsys, ["generate", *construction, "-o", str(path)])
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, ["verify", "bounds", "--json", str(path)])
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_BOUNDS_SHA256[construction]


# sha256 of `census --json` and `census --facial --json` on generated grids
# and random arrangements, recorded while the census still ran in one piece
# (random -n 100: 161,700 triples, so three blocks and a merge, recorded
# while the class order was still sorted apart from the grouping)
CENSUS_SHA256 = {
    ("hexgrid", "-n", "150"): (
        "fc7f628510edb3d476f1b58c67ab6dbb65aab9ad813e4becd0cb57ecc09b6638",
        "6211062828c597b16bdc5c70c639aea7b81c12ab3c8cde8da37d1ea59ea2bbfd",
    ),
    ("trigrid", "-n", "150"): (
        "b0c4d74cb9b33d2e3edd249fbe6ba4299224dbd0c3623e629ab3883d9eaf90b6",
        "f1adb04a0d9bdc1b3fbdf796350243efe4ff0b2149dd86ed0502dc3012068363",
    ),
    ("random", "-n", "64", "--seed", "1"): (
        "8637da868d0dd2db6298dcd4bb5fa240ea5d41410affac2b4e34236584b93f0d",
        "9dfd9e45aa0e44c6a17606d16e8fc613382a788570f9444540a0fb31f718e10c",
    ),
    ("random", "-n", "100", "--seed", "1"): (
        "1c87d58e024cbcd1edd0993ff82f81e20be65bddcebd86226f0526e5eb587e03",
        "bf29f89ad2e43b02775805690f162cbb48179749eaaa692a0ce21cdcf8013a61",
    ),
}


@pytest.mark.parametrize("construction", CENSUS_SHA256, ids=lambda c: c[0] if c[2] != "100" else "random-blocks")
def test_census_outputs_pinned(construction, tmp_path, capsys):
    path = tmp_path / "input.lines"
    code, _, _ = run_cli(capsys, ["generate", *construction, "-o", str(path)])
    assert code == EXIT_OK
    for flags, want in zip(([], ["--facial"]), CENSUS_SHA256[construction]):
        code, out, _ = run_cli(capsys, ["census", "--json", *flags, str(path)])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == want


# sha256 and exit code of `census --facial --json` and of `verify
# general-position --json --seed 7`, recorded while the exact facial test
# still divided out every crossing and the concurrent triples came from
# intersection points
SIGN_SHA256 = {
    (("max-chain", "-k", "1"), ("census", "--facial", "--json")): (
        EXIT_OK, "0c4310fcf109c8552dcd2f609e53c61ab0be0aa76d47e03da9e2bd7b287064fd"
    ),
    (("pentagon",), ("census", "--facial", "--json")): (
        EXIT_OK, "b86efedb9f040228b83d90a97e0609ee3725fac516a1a75178dd3910ccac2954"
    ),
    (("hexgrid", "-n", "30"), ("census", "--facial", "--json", "--backend", "exact")): (
        EXIT_OK, "7d8503649872e649ee61787bbfd098984bfcfa1feef256314e367c05b870ffcd"
    ),
    (("max-chain", "-k", "1"), ("verify", "general-position", "--json", "--seed", "7")): (
        EXIT_CHECK_FAILED, "3ac8f9df894e22d3f7c921bd09e0ff829afb6c8aa341674ab1ec92f80e76b16a"
    ),
    (("trigrid", "-n", "9"), ("verify", "general-position", "--json", "--seed", "7")): (
        EXIT_CHECK_FAILED, "5f662f09f5d2ed980aeda4665cade50aff14030b754f1b4eedeb87a162b91760"
    ),
}


@pytest.mark.parametrize("construction, command", SIGN_SHA256, ids=lambda c: "-".join(c[:2]))
def test_sign_predicate_outputs_pinned(construction, command, tmp_path, capsys):
    path = tmp_path / "input.lines"
    code, _, _ = run_cli(capsys, ["generate", *construction, "-o", str(path)])
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, [*command, str(path)])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == SIGN_SHA256[construction, command]


def test_areas_past_the_float_range(tmp_path, capsys):
    # areas near 10^400 overflow a float: the class order's key saturates,
    # and the exact comparisons order the classes
    path = tmp_path / "big.lines"
    path.write_text(f"1 0 0\n0 1 0\n1 1 -{10**200}\n1 -1 -3\n")
    for argv in (["census", "--json"], ["census", "--facial", "--json"], ["verify", "bounds", "--json"]):
        code, out, err = run_cli(capsys, [*argv, str(path)])
        assert (code, err) == (EXIT_OK, "")
        results = json.loads(out)["results"]
        if "areas" in results:
            areas = [Fraction(row["area"]) for row in results["areas"]]
            assert areas == sorted(set(areas)) and len(areas) == 4
    arr = Arrangement.load(str(path))
    assert facial_triangles(arr) == oracle_facial_triangles(arr)


# sha256 of `extract-distinct --json` (greedy and sample-delete) and of
# `verify bounds --json` on `generate random -n 60 --seed s`, recorded while
# every color was read through combo_rank
DISTINCT_SHA256 = {
    1: (
        "9cf0602c6f0ad8cb1214df4482f014e5fbcd7a034af1e4d0aea1b14ea2e9af1a",
        "63bcc18b08fb6fcb80e6fd6d4593a2e6b25552d23a7a0ca0fc3c43e4aaae42c9",
        "f77e63f3ca3c01289a44f7cf21ff580777c20d0ca0de182744007eb36dfd0ea8",
    ),
    2: (
        "5de619e415051834bddf0e0cccba305ad8bf4621ca26e9609de37382192b1735",
        "58e295942ecf99eedefe2fd12dbee9072f64a7db4cb88d3ab84a46935ab1bd21",
        "d39e3e925627d162985b357f3d17ea2848cac2473fe38486d6b4e39efd9208ff",
    ),
    3: (
        "b102080c04adad503eb4364fdf7a8bd7f37b13c43aba23ca192c3cd3e2a8d0f1",
        "801c732953f1cd7ff275672a97bd82ee602ca2f9db7c276635e5c8f148fbb130",
        "f0bfd03317b0c4626a4fe10b433c4c0fa7114381b5578f0304f11740520b7e1a",
    ),
}


@pytest.mark.parametrize("seed", DISTINCT_SHA256)
def test_extract_distinct_and_verify_bounds_pinned(seed, tmp_path, capsys):
    path = str(tmp_path / "input.lines")
    code, _, _ = run_cli(capsys, ["generate", "random", "-n", "60", "--seed", str(seed), "-o", path])
    assert code == EXIT_OK
    commands = (
        ["extract-distinct", "--json", "--strategy", "greedy", "--seed", str(seed), path],
        ["extract-distinct", "--json", "--strategy", "sample-delete", "--seed", str(seed), path],
        ["verify", "bounds", "--json", path],
    )
    for argv, want in zip(commands, DISTINCT_SHA256[seed]):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want


def test_census_too_large_exits_two(pentagon_file, capsys, monkeypatch):
    census_module = sys.modules["triarea.census"]
    monkeypatch.setattr(census_module, "available_memory", lambda: 39)  # the table needs 40
    code, out, err = run_cli(capsys, ["census", "--json", pentagon_file])
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: census of n=5 lines needs 40 bytes") and "only 39 bytes are available" in err


def test_census_stdin(capsys, monkeypatch, pentagon_file):
    text = open(pentagon_file).read()
    code, out, _ = run_cli(
        capsys, ["census", "-", "--json"], stdin_text=text, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 5


def test_census_byte_identical(pentagon_file, capsys):
    _, first, _ = run_cli(capsys, ["census", pentagon_file, "--json"])
    _, second, _ = run_cli(capsys, ["census", pentagon_file, "--json"])
    assert first == second


def test_verify_bounds_json(schema, pentagon_file, capsys):
    code, out, _ = run_cli(capsys, ["verify", "bounds", pentagon_file, "--json"])
    assert code == EXIT_OK
    report = _validated_report(schema, out)
    res = report["results"]
    assert res["passed"] is True
    assert len(res["checks"]) == 7


def test_verify_duality_json(schema, pentagon_file, capsys):
    code, out, _ = run_cli(capsys, ["verify", "duality", pentagon_file, "--json"])
    assert code == EXIT_OK
    report = _validated_report(schema, out)
    assert report["results"]["passed"] is True
    assert len(report["results"]["per_line"]) == 5
    # single-line restriction
    code, out, _ = run_cli(
        capsys, ["verify", "duality", pentagon_file, "--json", "--line", "2"]
    )
    assert code == EXIT_OK
    assert len(json.loads(out)["results"]["per_line"]) == 1


def test_verify_general_position_json(schema, tmp_path, capsys):
    path = tmp_path / "gen.lines"
    main(["generate", "random-general", "-n", "8", "--seed", "1", "-o", str(path)])
    capsys.readouterr()
    code, out, _ = run_cli(
        capsys, ["verify", "general-position", str(path), "--json", "--seed", "7"]
    )
    assert code == EXIT_OK
    report = _validated_report(schema, out)
    assert report["seed"] == 7
    assert report["results"]["passed"] is True


def test_verify_general_position_fails_on_grid(tmp_path, capsys):
    path = tmp_path / "hex.lines"
    main(["generate", "hexgrid", "-n", "9", "-o", str(path)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, ["verify", "general-position", str(path)])
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out


def test_dualize_json(schema, pentagon_file, capsys):
    code, out, _ = run_cli(
        capsys, ["dualize", pentagon_file, "--line", "0", "--json"]
    )
    assert code == EXIT_OK
    report = _validated_report(schema, out)
    res = report["results"]
    assert len(res["points"]) == len(res["duals"]) == 4
    assert res["incidence_count"] >= 0


def test_extract_distinct_json(schema, tmp_path, capsys):
    path = tmp_path / "rand.lines"
    main(["generate", "random", "-n", "10", "--seed", "4", "-o", str(path)])
    capsys.readouterr()
    for strategy in ("greedy", "sample-delete"):
        code, out, _ = run_cli(
            capsys,
            [
                "extract-distinct", str(path),
                "--strategy", strategy,
                "--seed", "5", "--json",
            ],
        )
        assert code == EXIT_OK
        report = _validated_report(schema, out)
        res = report["results"]
        assert res["verified_all_distinct"] is True
        assert res["size"] == len(res["subset"])
    # deterministic output for a fixed seed
    _, again, _ = run_cli(
        capsys,
        ["extract-distinct", str(path), "--strategy", "sample-delete",
         "--seed", "5", "--json"],
    )
    assert json.loads(again)["results"]["subset"] == res["subset"]


def test_reproduce_table1(schema, capsys):
    code, out, _ = run_cli(capsys, ["reproduce", "table1", "--json"])
    assert code == EXIT_OK
    report = _validated_report(schema, out)
    res = report["results"]
    assert res["n"] == list(range(3, 13))
    assert res["hexagonal"] == TABLE_HEX
    assert res["triangular"] == TABLE_TRI
    assert res["flags"] == [
        {"row": "triangular", "n": 4, "construction": 1, "formula": 0}
    ]
    code, out, _ = run_cli(capsys, ["reproduce", "table1"])
    assert code == EXIT_OK
    assert "flag: triangular n=4 construction count 1" in out


def test_exit_parse_paths(tmp_path, capsys, monkeypatch):
    two = tmp_path / "two.lines"
    two.write_text("1 0 0\n0 1 0\n")
    code, _, err = run_cli(capsys, ["census", str(two)])
    assert code == EXIT_PARSE and "n >= 3" in err

    code, _, err = run_cli(capsys, ["census", str(tmp_path / "missing.lines")])
    assert code == EXIT_PARSE

    garbage = tmp_path / "bad.lines"
    garbage.write_text("1 0 zebra\n0 1 0\n1 1 1\n")
    code, _, err = run_cli(capsys, ["census", str(garbage)])
    assert code == EXIT_PARSE

    code, _, err = run_cli(capsys, ["generate", "hexgrid", "-n", "2"])
    assert code == EXIT_PARSE


def test_zero_denominator_is_a_parse_error(tmp_path, pentagon_file, capsys):
    code, _, err = run_cli(capsys, ["census", "--per-line", "1/0", pentagon_file])
    assert code == EXIT_PARSE and "division by zero" in err
    zero = tmp_path / "zero.lines"
    zero.write_text("1 0 0\n0 1 1/(1-1)\n1 1 3\n")
    code, _, err = run_cli(capsys, ["census", str(zero)])
    assert code == EXIT_PARSE and "division by zero" in err


def test_numba_backend_choice_is_gone(pentagon_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--backend", "numba", pentagon_file])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_seed_required_with_json(pentagon_file, capsys):
    code, _, err = run_cli(capsys, ["extract-distinct", pentagon_file, "--json"])
    assert code == EXIT_PARSE and "--seed" in err
    code, _, err = run_cli(
        capsys, ["verify", "general-position", pentagon_file, "--json"]
    )
    assert code == EXIT_PARSE and "--seed" in err
    # human mode needs no seed
    code, _, _ = run_cli(capsys, ["extract-distinct", pentagon_file])
    assert code == EXIT_OK


def test_bad_line_index(pentagon_file, capsys):
    code, _, err = run_cli(capsys, ["dualize", pentagon_file, "--line", "9"])
    assert code == EXIT_PARSE and "out of range" in err
    code, _, err = run_cli(
        capsys, ["verify", "duality", pentagon_file, "--line", "-1"]
    )
    assert code == EXIT_PARSE


def test_unknown_flag_exits_two():
    got = subprocess.run(
        [sys.executable, "-m", "triarea.cli", "census", "--no-such-flag"],
        capture_output=True, text=True, timeout=120,
    )
    assert got.returncode == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "triarea" in capsys.readouterr().out
