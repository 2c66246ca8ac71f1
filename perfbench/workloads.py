"""The three workloads: seeded inputs, the CLI commands of one operation,
and the per-operation output checks.

An operation (op) is what a user waits for at the shell: one or two CLI
commands, each a fresh child process.  The package receives only the
generated arguments and grid file.

- verify_all: `verify-all` on the default grid and geometry, compared
  against golden/ -- the CI gate, where the kernel envelopes dominate.
- point_query: `constants --p P --q Q --d D` at seeded points -- the
  interactive query, where interpreter start-up and imports dominate.
- grid_sweep: `constants --config G` then `interp --config G` on a seeded
  80 x 40 x 4 grid -- bulk closed forms, assembly and table writing, sized so
  compute and output outweigh start-up.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import oracle

CLI = ("-m", "sobolev_constants.cli")


@dataclass(frozen=True)
class Op:
    """One operation: CLI argument lists run in order, the pairs they
    evaluate, and a key naming its inputs (ops with equal keys must write
    byte-identical tables)."""

    key: str
    commands: Tuple[Tuple[str, ...], ...]
    pairs: int


@dataclass(frozen=True)
class OracleTask:
    """A printed row of op `op` to recompute with mpmath after the timed loop."""

    op: int
    label: str
    p: float
    alpha: float
    d: int
    printed: Dict[str, str]


def _read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _failed_lines(stdouts: List[str]) -> List[str]:
    return [line for text in stdouts for line in text.splitlines() if line.startswith("[FAIL]")]


def _input_mismatches(row: Dict[str, str], p: float, alpha: float, d: int, label: str) -> List[str]:
    """The printed d, p and alpha columns must be the generated inputs."""
    expected = (("d", str(d)), ("p", f"{p:.12g}"), ("alpha", f"{alpha:.12g}"))
    return [f"{label} {col} = {row[col]}, expected {value}" for col, value in expected if row[col] != value]


def grid_fingerprint(p_values, fractions, d_values) -> str:
    """The package's grid fingerprint: sha256 over the axes at 17 digits."""
    text = ";".join(",".join(f"{v:.17g}" for v in axis) for axis in (p_values, fractions, d_values))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class VerifyAll:
    name = "verify_all"
    # default grid 13 x 9 x 4 and its refinement 25 x 17 x 4, swept once by
    # the constants family and once by the interpolation family
    PAIRS = 2 * (13 * 9 * 4 + 25 * 17 * 4)

    def __init__(self, seed: int, root: Path, work: Path) -> None:
        # verify-all has no inputs to draw: the default grid and geometry are
        # the gate; the seed only names the run
        self.golden = root / "golden"
        self.grid_hash = json.loads((self.golden / "fitted_constants.json").read_text())["grid_hash"]

    def manifest(self) -> dict:
        return {"grid_fingerprint": self.grid_hash, "golden_dir": "golden"}

    def op(self, index: int, out: Path) -> Op:
        cmd = ("verify-all", "--out", str(out), "--golden-dir", str(self.golden))
        return Op("default", (cmd,), self.PAIRS)

    def check(self, index: int, out: Path, stdouts: List[str]) -> Tuple[List[str], List[OracleTask]]:
        problems = [f"check failed: {line}" for line in _failed_lines(stdouts)]
        if not any(line.startswith("[PASS] golden snapshot comparison") for line in stdouts[0].splitlines()):
            problems.append("no passing golden snapshot comparison")
        header, rows = _read_csv(out / "summary.csv")
        if not rows:
            problems.append("summary.csv has no rows")
        col = header.index("pass")
        problems += [f"summary row not true: {row}" for row in rows if row[col] != "true"]
        return problems, []


def _point(rng: random.Random) -> Tuple[float, float, int]:
    """p in (1, 16] with p - 1 log-uniform over [0.01, 15], alpha fraction
    alpha p / d uniform over [0.01, 0.99], d in 1..8; q = p / (1 - fraction)
    solves the scaling relation."""
    d = rng.randint(1, 8)
    p = 1.0 + math.exp(rng.uniform(math.log(0.01), math.log(15.0)))
    fraction = rng.uniform(0.01, 0.99)
    return p, p / (1.0 - fraction), d


class PointQuery:
    name = "point_query"
    # distinct points per run, cycled so each recurs and is compared; odd, so
    # traced runs, which trace every other op, trace each point too
    POOL = 7

    def __init__(self, seed: int, root: Path, work: Path) -> None:
        rng = random.Random(seed)
        self.points = [_point(rng) for _ in range(self.POOL)]

    def manifest(self) -> dict:
        return {"grid_fingerprint": None, "points": [list(pt) for pt in self.points]}

    def op(self, index: int, out: Path) -> Op:
        k = index % self.POOL
        p, q, d = self.points[k]
        cmd = ("constants", "--p", repr(p), "--q", repr(q), "--d", str(d), "--out", str(out))
        return Op(f"point{k}", (cmd,), 1)

    def check(self, index: int, out: Path, stdouts: List[str]) -> Tuple[List[str], List[OracleTask]]:
        p, q, d = self.points[index % self.POOL]
        alpha = oracle.point_alpha(p, q, d)
        names = {"S": "S", "Q": "Q", "Q_dual": "Q_dual", "F": "F", "E_H_tilde": "E_H_tilde", "E_H_tilde/S": "ratio_EH_over_S"}
        printed = {}
        for line in stdouts[0].splitlines():
            key, sep, value = line.partition("=")
            if sep and key.strip() in names:
                printed[names[key.strip()]] = value.strip()
        header, rows = _read_csv(out / "constants.csv")
        problems = []
        if len(rows) != 1:
            problems.append(f"constants.csv has {len(rows)} rows, expected 1")
            return problems, []
        row = dict(zip(header, rows[0]))
        problems += _input_mismatches(row, p, alpha, d, "constants.csv")
        tasks = [
            OracleTask(index, "stdout", p, alpha, d, printed),
            OracleTask(index, "constants.csv", p, alpha, d, row),
        ]
        return problems, tasks


def _jittered(rng: random.Random, n: int) -> List[float]:
    """n sorted distinct points of [0, 1]: both ends, and one point within
    +-0.4 of a cell of each interior uniform node."""
    step = 1.0 / (n - 1)
    return [0.0] + [(i + rng.uniform(-0.4, 0.4)) * step for i in range(1, n - 1)] + [1.0]


class GridSweep:
    name = "grid_sweep"
    N_P, N_F, D_VALUES = 80, 40, (1, 2, 3, 4)
    SAMPLE = 32  # constants.csv rows recomputed by the oracle per op

    def __init__(self, seed: int, root: Path, work: Path) -> None:
        # The grid stays inside the default span (p - 1 in [0.05, 15],
        # fractions in [0.1, 0.9], d in 1..4) and keeps both ends of each
        # axis.  On wider, sparser grids the band refinement check fails
        # legitimately (e.g. a 20 x 19 x 6 grid reaching p = 1.03 and
        # fraction 0.05 moved the d = 1 band by 0.128 against its 5% bound),
        # and such an op would time the error path instead of the sweep.
        self.seed = seed
        rng = random.Random(seed)
        lo, hi = math.log(0.05), math.log(15.0)
        self.p_values = [1.0 + math.exp(lo + (hi - lo) * t) for t in _jittered(rng, self.N_P)]
        self.fractions = [0.1 + 0.8 * t for t in _jittered(rng, self.N_F)]
        self.config = work / "grid.cfg"
        self.config.write_text(
            f"p_values = {', '.join(map(repr, self.p_values))}\n"
            f"alpha_fractions = {', '.join(map(repr, self.fractions))}\n"
            f"d_values = {', '.join(map(str, self.D_VALUES))}\n"
        )
        n = self.N_P * self.N_F * len(self.D_VALUES)
        refined = (2 * self.N_P - 1) * (2 * self.N_F - 1) * len(self.D_VALUES)
        self.rows = n
        self.pairs = 2 * (n + refined)  # grid and refined grid, once per command

    def manifest(self) -> dict:
        return {
            "grid_fingerprint": grid_fingerprint(self.p_values, self.fractions, self.D_VALUES),
            "grid_shape": [self.N_P, self.N_F, len(self.D_VALUES)],
        }

    def op(self, index: int, out: Path) -> Op:
        cfg = str(self.config)
        return Op(
            "grid",
            (("constants", "--config", cfg, "--out", str(out)), ("interp", "--config", cfg, "--out", str(out))),
            self.pairs,
        )

    def point_of_row(self, i: int) -> Tuple[float, float, int]:
        """(p, alpha, d) of constants.csv row i: the package sweeps d, then p,
        then the fraction, each axis ascending."""
        per_d = self.N_P * self.N_F
        d = self.D_VALUES[i // per_d]
        p = self.p_values[(i % per_d) // self.N_F]
        return p, self.fractions[i % self.N_F] * d / p, d  # alpha as make_grid computes it

    def check(self, index: int, out: Path, stdouts: List[str]) -> Tuple[List[str], List[OracleTask]]:
        problems = [f"check failed: {line}" for line in _failed_lines(stdouts)]
        header, rows = _read_csv(out / "constants.csv")
        if len(rows) != self.rows:
            problems.append(f"constants.csv has {len(rows)} rows, expected {self.rows}")
            return problems, []
        tasks = []
        for i in sorted(random.Random(self.seed * 100_003 + index).sample(range(self.rows), self.SAMPLE)):
            p, alpha, d = self.point_of_row(i)
            row = dict(zip(header, rows[i]))
            problems += _input_mismatches(row, p, alpha, d, f"constants.csv row {i}")
            tasks.append(OracleTask(index, f"constants.csv row {i}", p, alpha, d, row))
        return problems, tasks


WORKLOADS = {w.name: w for w in (VerifyAll, PointQuery, GridSweep)}
