import math

import mpmath as mp
import numpy as np
import pytest

from sobolev_constants.series import (
    K_MAX,
    K_RATIOS,
    MTSeriesSpec,
    mt_scaling_divergence,
    mt_series_radius,
    s_majorant_gap,
    term_ratios,
)


class TestSpec:
    def test_validation(self):
        for p, c in ((1.0, 1.0), (2.0, 0.0), (math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0), (2.0, math.nan)):
            with pytest.raises(ValueError, match=r"need (1 < p|0 < c) < inf, got"):
                MTSeriesSpec(p, c)

    def test_start_index(self):
        assert MTSeriesSpec(2.0, 1.0).start_index == 1
        assert MTSeriesSpec(3.0, 1.0).start_index == 2
        assert MTSeriesSpec(2.5, 1.0).start_index == 2
        assert MTSeriesSpec(1.5, 1.0).start_index == 1


class TestPartialSums:
    def test_em_above_radius_terms_grow(self):
        # 0.25 > 1/(2e): the term ratio exceeds 1 for large k
        ratios = term_ratios(MTSeriesSpec(2.0, 1.0), 0.25)
        assert any(r > 1.0 for r in ratios)


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
        # gamma_1 = [e (cp a1 (p' - 1))^{p'} p']^{-1} with cp = 1 and the
        # c-product factored as a1 (p' - 1)
        pp = p / (p - 1.0)
        a1 = c / (pp - 1.0)
        spec = MTSeriesSpec(p, c)
        assert spec.threshold == pytest.approx(1.0 / (math.e * (a1 * (pp - 1.0)) ** pp * pp), rel=1e-14)
        assert mt_series_radius(spec) == pytest.approx(spec.threshold, rel=0.02)

    def test_single_crossing_above_radius(self):
        for p in (1.5, 2.0, 3.0, 4.0):
            for c in (0.5, 1.0, 2.0):
                spec = MTSeriesSpec(p, c)
                radius = mt_series_radius(spec)
                up = term_ratios(spec, 1.1 * radius)
                crossings = sum(1 for a, b in zip(up, up[1:]) if a < 1.0 <= b)
                assert crossings == 1 and up[0] < 1.0 < up[-1]
                down = term_ratios(spec, 0.9 * radius)
                assert all(r < 1.0 for r in down)


def ratio_oracle(spec, gamma, k):
    """term_{k+1}/term_k = gamma c^{p'} p' (1 + 1/k)^k at 40 digits, from
    the doubles gamma, c and p' the code uses."""
    with mp.workdps(40):
        pp = mp.mpf(spec.p_conj)
        return mp.mpf(gamma) * mp.mpf(spec.c) ** pp * pp * (1 + mp.mpf(1) / k) ** k


class TestMpmathOracle:
    """The closed-form ratios and the radius against 40-digit mpmath, on the
    (p, c) pairs and the gammas of check_series."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_ratios_and_radius(self, p, c):
        spec = MTSeriesSpec(p, c)
        with mp.workdps(40):
            radius = 1 / (2 * ratio_oracle(spec, 1.0, K_MAX) - ratio_oracle(spec, 1.0, K_MAX // 2))
        assert mt_series_radius(spec) == pytest.approx(float(radius), rel=1e-14, abs=0.0)
        for factor in (0.9, 1.1):
            gamma = factor * mt_series_radius(spec)
            expected = [float(ratio_oracle(spec, gamma, k)) for k in range(spec.start_index, K_RATIOS)]
            np.testing.assert_allclose(term_ratios(spec, gamma), expected, rtol=1e-14, atol=0.0)


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

    @pytest.mark.parametrize(
        "args, named",
        [
            # k = 200 > 170: k! does not convert to a double
            ((200.0, 1.0, [1.0], 1.0), "got p=200.0 and 1 moments"),
            ((1e300, 1.0, [1.0], 1.0), "got p=1e+300"),
            ((169.5, 1.0, [1.0, 1.0], 1.0), "got p=169.5 and 2 moments"),
            # gamma^k and sigma^{p'k} overflow
            ((2.0, 1e300, [1.0] * 5, 1.0), "gamma=1e+300"),
            ((2.0, 1.0, [1.0], 1e300), "sigma=1e+300"),
            ((2.0, 1.0, [math.nan], 1.0), "moments must be finite and >= 0, got [nan]"),
            ((2.0, 1.0, [math.inf], 1.0), "moments must be finite and >= 0, got [inf]"),
            ((math.inf, 1.0, [1.0], 1.0), "need 1 < p < inf, got inf"),
            ((2.0, math.nan, [1.0], 1.0), "need 0 < gamma < inf, got nan"),
            ((2.0, 1.0, [1.0], math.inf), "need 1 <= sigma < inf, got inf"),
        ],
        ids=["k-170", "p-huge", "last-k-171", "gamma-huge", "sigma-huge", "nan-moment", "inf-moment",
             "p-inf", "gamma-nan", "sigma-inf"],
    )
    def test_unrepresentable_input_refused_by_name(self, args, named):
        with pytest.raises(ValueError) as info:
            mt_scaling_divergence(*args)
        assert named in str(info.value)

    def test_last_representable_index_still_evaluates(self):
        # k = 170 is the last k whose k! is a double
        lhs, rhs = mt_scaling_divergence(170.0, 1.0, [1.0], 1.0)
        assert lhs == rhs == 1.0 / math.factorial(170)


class TestRatioDomain:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_gamma_outside_its_domain_refused(self, gamma):
        with pytest.raises(ValueError, match=f"need 0 < gamma < inf, got {gamma}"):
            term_ratios(MTSeriesSpec(2.0, 1.0), gamma)

    @pytest.mark.parametrize(
        "spec, gamma",
        [(MTSeriesSpec(2.0, 1.0), 1e308), (MTSeriesSpec(2.0, 1.0), 1e-320), (MTSeriesSpec(2.0, 1e300), 1.0)],
        ids=["gamma-huge", "gamma-subnormal", "c-huge"],
    )
    def test_ratios_past_the_doubles_refused(self, spec, gamma):
        with pytest.raises(ValueError, match="leave the normal doubles") as info:
            term_ratios(spec, gamma)
        assert f"gamma={gamma}" in str(info.value) and str(spec) in str(info.value)

    def test_radius_refuses_a_huge_c(self):
        # c^{p'} overflowed to inf with two numpy warnings, then RuntimeError
        with pytest.raises(ValueError, match=r"leave the normal doubles with MTSeriesSpec\(p=2.0, c=1e\+300\)"):
            mt_series_radius(MTSeriesSpec(2.0, 1e300))
