"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion."""

import time
from pathlib import Path

import pytest

from sobolev_constants.cli import main
from sobolev_constants.params import GroupGeometry, default_grid
from sobolev_constants.verify import (
    CheckResult,
    check_constants,
    check_interpolation,
    check_kernel,
    check_series,
    check_spectral,
)

REPO_GOLDEN = Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture(scope="module")
def constants_result() -> CheckResult:
    return check_constants(default_grid())


@pytest.fixture(scope="module")
def interpolation_result() -> CheckResult:
    return check_interpolation(default_grid())


@pytest.fixture(scope="module")
def kernel_result() -> CheckResult:
    return check_kernel(GroupGeometry())


@pytest.fixture(scope="module")
def series_result() -> CheckResult:
    return check_series()


@pytest.fixture(scope="module")
def spectral_result() -> CheckResult:
    return check_spectral(GroupGeometry())


def _criterion(num: int, description: str, result: CheckResult, *line_keys: str) -> None:
    selected = [line for line in result.lines if any(k in line for k in line_keys)]
    assert len(selected) >= len(line_keys), f"missing check lines for {line_keys}"
    ok = all(line.startswith("[PASS]") for line in selected)
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {description}")
    assert ok, f"criterion {num} failed: {[l for l in selected if not l.startswith('[PASS]')]}"


def test_criterion_01_duality_symmetries(constants_result):
    _criterion(
        1,
        "S and F duality symmetry at 1e-12 on 10^4 random pairs",
        constants_result,
        "duality symmetry",
    )


def test_criterion_02_pointwise_comparisons(constants_result):
    _criterion(
        2,
        "F within [Q/4, 4Q] (q >= p'), Q <= Q_dual, F >= S/4, zero violations",
        constants_result,
        "comparison claims",
    )


def test_criterion_03_comparability_band(constants_result):
    _criterion(
        3,
        "per-d band of E_H_tilde/S finite and 5%-stable under 2x refinement",
        constants_result,
        "comparability band",
    )


def test_criterion_04_interpolation_assembly(interpolation_result):
    _criterion(
        4,
        "theta identities at 1e-10; intermediate and final bounds pointwise; fitted C 5%-stable",
        interpolation_result,
        "assembly identities",
        "fitted strong-type ratio",
    )


def test_criterion_05_weak_sup_factor(interpolation_result):
    _criterion(
        5,
        "weak-type sup factor within 1e-6 below 1, never above 1 + 1e-12, 50 pairs",
        interpolation_result,
        "weak-type supremum",
    )


def test_criterion_06_kernel_envelopes(kernel_result):
    _criterion(
        6,
        "local sups 2%-stable under 10x tighter quadrature; global finite; "
        "shift precondition enforced; closed forms vs quadrature at 1e-8",
        kernel_result,
        "local kernel envelope",
        "global kernel envelope",
        "below-threshold shift",
        "closed-form kernel norms",
    )


def test_criterion_07_series_radius(series_result):
    _criterion(
        7,
        "radius within 2% of [e c^{p'} p']^{-1} on the (p, c) set; majorant to k = 200",
        series_result,
        "series radius",
        "counting majorant",
    )


def test_criterion_08_spectral_sanity(spectral_result):
    _criterion(
        8,
        "round-trip/Parseval at 1e-10; p=2 contraction; fitted ratios 10%-stable "
        "down to p = 1.05; small-gamma moment limit at 1%",
        spectral_result,
        "round-trip and Parseval",
        "contraction at p = 2",
        "stable under doubling",
        "small-gamma moment limit",
    )


def test_criterion_09_scaling_divergence(series_result):
    _criterion(
        9,
        "scaling comparison dominates on 10^3 random instances, equality at sigma=1 and k=p",
        series_result,
        "scaling comparison",
    )


def test_criterion_10_multiplier_bound(constants_result):
    _criterion(
        10,
        "multiplier bound equals 2 for alpha in {0.5, 1, 2} at 1e-10, finite to 3.5",
        constants_result,
        "multiplier total-variation",
    )


def test_criterion_11_determinism(tmp_path):
    start = time.time()
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code1 = main(["verify-all", "--out", str(out1), "--golden-dir", str(REPO_GOLDEN)])
    code2 = main(["verify-all", "--out", str(out2), "--golden-dir", str(REPO_GOLDEN)])
    elapsed = time.time() - start
    ok = code1 == 0 and code2 == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    ok = ok and files1 == files2
    for name in files1:
        ok = ok and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # two full runs comfortably inside the per-run wall-clock budget
    ok = ok and elapsed < 300.0
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance 11: repeated verify-all byte-identical "
          f"(2 runs in {elapsed:.1f}s)")
    assert ok
