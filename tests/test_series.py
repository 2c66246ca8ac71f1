import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sobolev_constants.constants import gamma_one
from sobolev_constants.series import (
    MTSeriesSpec,
    mt_scaling_divergence,
    mt_series_partial,
    mt_series_radius,
    s_majorant_gap,
    term_ratios,
)

# direct 30-digit summation of the first fifty terms, frozen before the build
PARTIAL_P2_C1_G01_K50 = 0.349839352184363332


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MTSeriesSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            MTSeriesSpec(2.0, 0.0)
        with pytest.raises(ValueError):
            MTSeriesSpec(2.0, 1.0, k_max=5000)

    def test_start_index(self):
        assert MTSeriesSpec(2.0, 1.0).start_index == 1
        assert MTSeriesSpec(3.0, 1.0).start_index == 2
        assert MTSeriesSpec(2.5, 1.0).start_index == 2
        assert MTSeriesSpec(1.5, 1.0).start_index == 1


class TestPartialSums:
    def test_gamma_zero(self):
        assert mt_series_partial(MTSeriesSpec(2.0, 1.0), 0.0, 50) == 0.0

    def test_frozen_reference(self):
        value = mt_series_partial(MTSeriesSpec(2.0, 1.0), 0.1, 50)
        assert value == pytest.approx(PARTIAL_P2_C1_G01_K50, rel=1e-12)

    def test_nondecreasing_in_K_and_gamma(self):
        spec = MTSeriesSpec(2.0, 1.0)
        by_K = [mt_series_partial(spec, 0.1, K) for K in (5, 10, 20, 50)]
        assert all(a <= b for a, b in zip(by_K, by_K[1:]))
        by_gamma = [mt_series_partial(spec, g, 50) for g in (0.05, 0.1, 0.15)]
        assert all(a < b for a, b in zip(by_gamma, by_gamma[1:]))

    def test_em_above_radius_terms_grow(self):
        # 0.25 > 1/(2e): the term ratio exceeds 1 for large k
        ratios = term_ratios(MTSeriesSpec(2.0, 1.0), 0.25, 200)
        assert any(r > 1.0 for r in ratios)

    def test_K_cap(self):
        with pytest.raises(ValueError):
            mt_series_partial(MTSeriesSpec(2.0, 1.0), 0.1, 2001)

    def test_overflow_is_value_error(self):
        with pytest.raises(ValueError, match="gamma=10"):
            mt_series_partial(MTSeriesSpec(2.0, 1.0), 10.0, 2000)

    def test_overflow_is_value_error_under_optimize(self):
        # python -O strips assert statements; the guard must survive it
        code = (
            "from sobolev_constants.series import MTSeriesSpec, mt_series_partial\n"
            "mt_series_partial(MTSeriesSpec(2.0, 1.0), 10.0, 2000)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert "ValueError: series term overflows" in out.stderr, out.stderr


class TestRadius:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_matches_closed_form(self, p, c):
        spec = MTSeriesSpec(p, c)
        pp = spec.p_conj
        product = mt_series_radius(spec) * (math.e * c**pp * pp)
        assert 0.98 <= product <= 1.02

    def test_reference_point(self):
        radius = mt_series_radius(MTSeriesSpec(2.0, 1.0))
        assert radius == pytest.approx(1.0 / (2.0 * math.e), rel=0.02)
        radius2 = mt_series_radius(MTSeriesSpec(2.0, 2.0))
        assert radius2 == pytest.approx(1.0 / (8.0 * math.e), rel=0.02)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_consistent_with_threshold_formula(self, p, c):
        # the closed-form threshold with the c-product factored as a1(p'-1)
        pp = p / (p - 1.0)
        threshold = gamma_one(p, 1.0, c / (pp - 1.0))
        assert mt_series_radius(MTSeriesSpec(p, c)) == pytest.approx(threshold, rel=0.02)

    def test_single_crossing_above_radius(self):
        for p in (1.5, 2.0, 3.0, 4.0):
            for c in (0.5, 1.0, 2.0):
                spec = MTSeriesSpec(p, c)
                radius = mt_series_radius(spec)
                up = term_ratios(spec, 1.1 * radius, 600)
                crossings = sum(1 for a, b in zip(up, up[1:]) if a < 1.0 <= b)
                assert crossings == 1 and up[0] < 1.0 < up[-1]
                down = term_ratios(spec, 0.9 * radius, 600)
                assert all(r < 1.0 for r in down)


class TestMajorant:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_gap_nonnegative(self, p):
        start = max(math.ceil(p - 1.0), 1)
        gaps = [s_majorant_gap(p, k) for k in range(start, 201)]
        assert min(gaps) >= -1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            s_majorant_gap(3.0, 1)  # k < p - 1


class TestScalingDivergence:
    def test_sigma_one_equality(self):
        lhs, rhs = mt_scaling_divergence(2.0, 1.0, [1.0, 0.5, 2.0], 1.0)
        assert lhs == rhs

    def test_boundary_term_equality(self):
        lhs, rhs = mt_scaling_divergence(2.0, 1.0, [1.0], 2.0)
        assert lhs == rhs == pytest.approx(8.0, rel=1e-15)

    def test_strict_above_boundary(self):
        lhs, rhs = mt_scaling_divergence(2.0, 1.0, [0.0, 1.0], 2.0)
        assert lhs == pytest.approx(64.0 / 6.0, rel=1e-14)
        assert rhs == pytest.approx(16.0 / 6.0, rel=1e-14)
        assert lhs > rhs

    def test_random_instances_dominate(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            p = float(rng.uniform(1.1, 4.5))
            gamma = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
            sigma = math.exp(rng.uniform(0.0, math.log(20.0)))
            moments = [float(m) if rng.random() > 0.3 else 0.0 for m in rng.uniform(0.0, 5.0, 6)]
            if all(m == 0.0 for m in moments):
                moments[0] = 1.0
            lhs, rhs = mt_scaling_divergence(p, gamma, moments, sigma)
            assert lhs >= rhs * (1.0 - 1e-12)

    def test_divergence_in_sigma(self):
        # lhs / sigma^p grows without bound once a genuine moment is present
        values = [
            mt_scaling_divergence(2.0, 1.0, [0.0, 1.0], sigma)[0] / sigma**2
            for sigma in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domains(self):
        with pytest.raises(ValueError):
            mt_scaling_divergence(2.0, 0.0, [1.0], 2.0)
        with pytest.raises(ValueError):
            mt_scaling_divergence(2.0, 1.0, [1.0], 0.5)
        with pytest.raises(ValueError):
            mt_scaling_divergence(2.0, 1.0, [-1.0], 2.0)
