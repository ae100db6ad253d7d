"""The benchmark's four workloads: seeded inputs and the CLI commands of one pass.

Inputs are generated here, not by ``triarea``: the program only ever sees
the arrangement files, and the independent checks in ``checks.py`` read the
same files.  Files use the program's text format (``a b c`` per line,
meaning ``a*x + b*y + c = 0``) with integer coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Dict, List, Tuple

IntLine = Tuple[int, int, int]

# Sizes of the timed inputs; the README says why each was chosen.
CENSUS_RANDOM_N = 64
GRID_N = 150
VERIFY_N = 30
EXTRACT_N = 60
CHAIN_K = 1

# Coefficient ranges of the random arrangements.  They keep every input
# inside the program's int64 gate, so the numpy kernels run.
COEFF_BOUND = 40
OFFSET_BOUND = 400


def canonical(a: int, b: int, c: int) -> IntLine:
    """Content one, first nonzero coefficient positive."""
    g = gcd(gcd(a, b), c)
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return (a, b, c)


def direction(line: IntLine) -> Tuple[int, int]:
    a, b, _ = line
    g = gcd(a, b)
    return canonical(a // g, b // g, 0)[:2]


def random_lines(n: int, rng: random.Random, parallel_free: bool = False) -> List[IntLine]:
    """n distinct random lines with small integer coefficients, optionally
    no two of them parallel."""
    lines: List[IntLine] = []
    seen = set()
    while len(lines) < n:
        a = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        b = rng.randint(-COEFF_BOUND, COEFF_BOUND)
        c = rng.randint(-OFFSET_BOUND, OFFSET_BOUND)
        if a == 0 and b == 0:
            continue
        line = canonical(a, b, c)
        key = direction(line) if parallel_free else line
        if key not in seen:
            seen.add(key)
            lines.append(line)
    return lines


# Grid lines in doubled coordinates: y = o, x = o, x + y = o become
# (0, 2, -2o), (2, 0, -2o), (2, 2, -2o), so half-integer offsets stay integer.
def _fam_a(o2: int) -> IntLine:
    return canonical(0, 2, -o2)


def _fam_b(o2: int) -> IntLine:
    return canonical(2, 0, -o2)


def _fam_c(o2: int) -> IntLine:
    return canonical(2, 2, -o2)


def kagome_lines(n: int) -> List[IntLine]:
    """First n lines of the kagome stream (offsets +-(2i-1)/2, layer i)."""
    lines: List[IntLine] = []
    i = 1
    while len(lines) < n:
        o2 = 2 * i - 1
        lines += [_fam_a(o2), _fam_c(o2), _fam_b(o2), _fam_a(-o2), _fam_c(-o2), _fam_b(-o2)]
        i += 1
    return lines[:n]


def triangular_lines(n: int) -> List[IntLine]:
    """First n lines of the triangular grid nearest a vertex (n = 3 mod 6)
    or a face centre (otherwise)."""
    lines: List[IntLine] = []
    if n % 6 == 3:
        lines = [_fam_a(0), _fam_b(0), _fam_c(0)]
        i = 1
        while len(lines) < n:
            o2 = 2 * i
            lines += [_fam_a(o2), _fam_b(o2), _fam_c(o2), _fam_a(-o2), _fam_b(-o2), _fam_c(-o2)]
            i += 1
    else:
        t = 0
        while len(lines) < n:
            up, down = 2 * (t + 1), -2 * t
            lines += [_fam_a(down), _fam_b(down), _fam_c(up)]
            lines += [_fam_a(up), _fam_b(up), _fam_c(down)]
            t += 1
    return lines[:n]


def shuffled_translate(lines: List[IntLine], rng: random.Random) -> List[IntLine]:
    """Seeded line order and integer translation.  Both preserve every area,
    concurrence and face, so the closed forms still apply."""
    tx, ty = rng.randint(-3, 3), rng.randint(-3, 3)
    # a*(x - tx) + b*(y - ty) + c = 0
    moved = [canonical(a, b, c - a * tx - b * ty) for a, b, c in lines]
    rng.shuffle(moved)
    return moved


def lines_text(lines: List[IntLine]) -> str:
    return "# field: Q\n" + "".join(f"{a} {b} {c}\n" for a, b, c in lines)


@dataclass
class Op:
    """One CLI command of a pass.  ``check`` tells ``checks.py`` how to judge
    its output; ``output`` names the file the command writes, when it writes
    one instead of a report on stdout."""

    argv: List[str]
    check: Dict[str, object]
    output: str = ""


@dataclass
class Workload:
    name: str
    ops: List[Op]
    # input file name -> text, written into the work directory at set-up
    inputs: Dict[str, str] = field(default_factory=dict)


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """The workload's inputs and commands; ``tiny`` gives the same commands
    on small inputs, used to warm up and in the benchmark's tests."""
    rng = random.Random(seed)

    def w(fname: str) -> str:
        return str(workdir / fname)

    if name == "census-random":
        n = 10 if tiny else CENSUS_RANDOM_N
        inputs = {"random.lines": lines_text(random_lines(n, rng))}
        ops = [Op(["census", "--json", w("random.lines")], {"kind": name, "input": w("random.lines")})]
    elif name == "facial-grid":
        n = 14 if tiny else GRID_N
        inputs = {
            "hexgrid.lines": lines_text(shuffled_translate(kagome_lines(n), rng)),
            "trigrid.lines": lines_text(shuffled_translate(triangular_lines(n), rng)),
        }
        ops = [
            Op(["census", "--facial", "--json", w(f)], {"kind": name, "input": w(f), "grid": grid})
            for f, grid in (("hexgrid.lines", "kagome"), ("trigrid.lines", "triangular"))
        ]
    elif name == "verify-distinct":
        # Parallel-free inputs run the same set of bound checks and nearly
        # the same extraction work for every seed.  A random parallel pair
        # skips a check and makes the greedy extraction drop a line at a
        # random point of its order, which moved the pass time by about 20%
        # from seed to seed.
        n1, n2 = (8, 12) if tiny else (VERIFY_N, EXTRACT_N)
        inputs = {
            "verify.lines": lines_text(random_lines(n1, rng, parallel_free=True)),
            "extract.lines": lines_text(random_lines(n2, rng, parallel_free=True)),
        }
        ops = [
            Op(["verify", "bounds", "--json", w("verify.lines")], {"kind": "verify-bounds", "input": w("verify.lines")}),
            Op(
                ["extract-distinct", "--json", "--seed", str(seed), w("extract.lines")],
                {"kind": "extract-distinct", "input": w("extract.lines"), "seed": seed},
            ),
        ]
    elif name == "tower-chain":
        # The chain's input is the program's own construction, fixed by k;
        # the seed does not enter.  The warm-up uses k=0 (the pentagon).
        k = 0 if tiny else CHAIN_K
        inputs = {}
        chain = w("chain.lines")
        ops = [
            Op(["generate", "max-chain", "-k", str(k), "-o", chain], {"kind": "chain-file", "file": chain}, output=chain),
            Op(["census", "--json", chain], {"kind": "chain-census", "input": chain, "k": k}),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name=name, ops=ops, inputs=inputs)


def write_inputs(wl: Workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in wl.inputs.items():
        (workdir / fname).write_text(text, encoding="utf-8")


NAMES = ["census-random", "facial-grid", "verify-distinct", "tower-chain"]
