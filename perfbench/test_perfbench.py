"""Self-tests of the benchmark: python -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import oracle
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_point_generator_is_deterministic_per_seed(tmp_path):
    a = workloads.PointQuery(7, ROOT, tmp_path).points
    assert a == workloads.PointQuery(7, ROOT, tmp_path).points
    assert a != workloads.PointQuery(8, ROOT, tmp_path).points
    for p, q, d in a:
        assert 1.0 < p <= 16.0 and q > p and 1 <= d <= 8


def test_grid_generator_is_deterministic_and_inside_the_default_span(tmp_path):
    texts = []
    for seed in (7, 7, 8):
        work = tmp_path / f"w{len(texts)}"
        work.mkdir()
        grid = workloads.GridSweep(seed, ROOT, work)
        texts.append(grid.config.read_text())
        assert grid.p_values == sorted(set(grid.p_values)) and len(grid.p_values) == grid.N_P
        assert grid.fractions == sorted(set(grid.fractions)) and len(grid.fractions) == grid.N_F
        assert 0.05 - 1e-12 <= grid.p_values[0] - 1.0 and grid.p_values[-1] - 1.0 <= 15.0 + 1e-12
        assert 0.1 - 1e-12 <= grid.fractions[0] and grid.fractions[-1] <= 0.9 + 1e-12
    assert texts[0] == texts[1] != texts[2]


def _printed(want):
    return {col: f"{float(want[col]):.12g}" for col in oracle.COLUMNS}


@pytest.mark.parametrize("p, q, d", [(2.0, 4.0, 4), (1.0125, 1.05, 6), (15.5, 900.0, 1)])
def test_oracle_accepts_twelve_digits_and_rejects_s_off_by_1e9(p, q, d):
    want = oracle.expected(p, oracle.point_alpha(p, q, d), d)
    printed = _printed(want)
    assert oracle.mismatches(want, printed, "row") == []
    with mpmath.workdps(oracle.DIGITS):
        printed["S"] = f"{float(want['S'] * (1 + mpmath.mpf('1e-9'))):.12g}"
    assert [m.split(":")[1].split("=")[0].strip() for m in oracle.mismatches(want, printed, "row")] == ["S"]


def test_oracle_matches_a_hand_computed_point():
    # p = 2, q = 4, d = 4: alpha = 1, Q = 4^{1/2} = 2, Q(4/3, 2) = 2^{1/4}/(1/3)
    want = oracle.expected(2.0, 1.0, 4)
    assert float(want["q"]) == pytest.approx(4.0, rel=1e-15)
    assert float(want["Q"]) == pytest.approx(2.0, rel=1e-15)
    assert float(want["Q_dual"]) == pytest.approx(3.0 * 2.0**0.25, rel=1e-15)
    assert float(want["S"]) == pytest.approx(2.0, rel=1e-15)


def test_self_time_subtracts_child_coverage():
    names = ["root", "a", "b"]
    spans = [
        (0, -1, 0.0, 10.0),  # root
        (1, 0, 1.0, 4.0),  # a, child of root
        (1, 1, 2.0, 3.0),  # a again, nested in a: counted once in total_s
        (2, 0, 5.0, 6.5),  # b, child of root
    ]
    agg = tracer.aggregate(names, spans)
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 1.5}
    assert agg["a"] == {"calls": 2, "total_s": 3.0, "self_s": (3.0 - 1.0) + 1.0}
    assert agg["b"] == {"calls": 1, "total_s": 1.5, "self_s": 1.5}


def test_coverage_is_a_union_clipped_to_the_parent():
    assert tracer._covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == 5.0


def test_tail_is_the_eleventh_largest_sample():
    assert run.tail([float(v) for v in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([float(v) for v in range(1, 6)]) == (5.0, 100.0)


def test_install_wraps_every_binding(tmp_path):
    """verify binds green_kernel_upper through `from .kernel import`; the
    envelope table's calls must be counted too."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer, sobolev_constants.cli\n"
        "from sobolev_constants import kernel, verify, params\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "assert verify.green_kernel_upper is kernel.green_kernel_upper\n"
        "verify.envelope_table(kernel.GreenKernelParams(1.0, 3), params.GroupGeometry(), n_points=5)\n"
        "t.dump(sys.argv[2])\n"
    )
    env = run.child_env()
    subprocess.run([sys.executable, "-c", script, str(HERE), str(tmp_path / "s.json")], env=env, check=True, timeout=120)
    names, counters, spans = tracer.load_spans(tmp_path / "s.json")
    agg = tracer.aggregate(names, spans)
    assert agg["kernel.green_kernel_upper"]["calls"] == 5
    assert agg["kernel.quad"]["calls"] >= 10
    assert counters["kernel.quad.neval"] > 0


def test_benchmark_metric_names_are_known():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    imports = {f"import.{m}_s" for m in run.IMPORT_MODULES}
    for metric in spec["per_layer"]:
        assert metric["name"] in tracer.METRICS | imports | {"trace.overhead_s"}, metric["name"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_query", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spawn_kills_a_child_at_its_timeout(tmp_path):
    child = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, run.child_env(), timeout=0.5)
    assert child.code is None and child.wall_s < 10.0


def test_ops_with_equal_inputs_must_write_equal_tables():
    ops = [run.OpResult(i, "grid", False, 1.0, 1, 1, digest=d) for i, d in enumerate("aab")]
    run.check_ops(ops, [])
    assert [bool(r.problems) for r in ops] == [False, False, True]
