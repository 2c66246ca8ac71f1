import math

import numpy as np
import pytest

from sobolev_constants.kernel import (
    CutoffSchedule,
    GreenKernelParams,
    chi_global_norm,
    chi_weighted_local_norm,
    cutoff_s,
    global_bound_constant,
    green_kernel_params_from_geometry,
    green_kernel_upper,
    kalpha_norms,
    kalpha_norms_quadrature,
    local_bound_constant,
    tilde_k_norm,
    weak_type_constant,
)
from sobolev_constants.constants import a2_bound_factor
from sobolev_constants.params import GroupGeometry, tau_delta

# envelope values computed with a 40-digit adaptive reference before the build
GREEN_REF = {
    (1.0, 1.0, 3, 1.0, 1.0): 0.202037916872645186,
    (0.05, 0.5, 1, 1.0, 1.0): 3.14596346081818969,
    (2.0, 2.4, 3, 12.5, 1.0): 6.18949259374202448e-7,
    (0.3, 0.2, 2, 1.0, 4.0): 0.143081737418715997,
}
LOCAL_SUP_REF = 1.1283638992488583  # alpha=1, d=3, a=1, b=1 sweep, frozen at build
GLOBAL_SUP_REF = 0.05061440517890041  # alpha=1, d=3, a=1, b=4, D=0 geometry
TILDE_K_REF = 0.521865938459879089  # r=1, D=0, b0=1 shell sum


class TestGreenKernelUpper:
    def test_frozen_reference_values(self):
        for (r, alpha, d, a, b), ref in GREEN_REF.items():
            kp = GreenKernelParams(alpha, d, a, b)
            assert green_kernel_upper(r, kp, rel_tol=1e-8) == pytest.approx(ref, rel=1e-8)

    def test_strictly_decreasing_in_r(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        values = [green_kernel_upper(r, kp) for r in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_a(self):
        values = [
            green_kernel_upper(1.0, GreenKernelParams(0.7, 2, a, 1.0)) for a in (1.0, 2.5, 8.0)
        ]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_b_r_squared_scaling(self):
        left = green_kernel_upper(1.3, GreenKernelParams(1.0, 3, 1.0, 2.0))
        right = green_kernel_upper(1.3 * math.sqrt(2.0), GreenKernelParams(1.0, 3, 1.0, 1.0))
        assert left == pytest.approx(right, rel=1e-10)

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            green_kernel_upper(0.0, GreenKernelParams(1.0, 3))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GreenKernelParams(3.0, 3)  # alpha = d
        with pytest.raises(ValueError):
            GreenKernelParams(1.0, 3, a=0.5)
        with pytest.raises(ValueError):
            GreenKernelParams(1.0, 3, b=0.0)


class TestLocalBound:
    def test_frozen_sweep_value(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        assert local_bound_constant(kp) == pytest.approx(LOCAL_SUP_REF, rel=1e-6)

    def test_stable_under_tighter_quadrature(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        v = local_bound_constant(kp, rel_tol=1e-8)
        v_tight = local_bound_constant(kp, rel_tol=1e-9)
        assert abs(v - v_tight) <= 0.02 * v

    def test_normalization_stable_across_alpha(self):
        # normalized sups for alpha/d from 1/12 to 11/12 stay within one
        # order of magnitude of each other
        values = [
            local_bound_constant(GreenKernelParams(alpha, 3, 1.0, 1.0))
            for alpha in (0.25, 0.75, 1.25, 1.75, 2.25, 2.75)
        ]
        assert max(values) / min(values) < 10.0

    def test_profile_bounded_toward_zero(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        small = [
            green_kernel_upper(r, kp) * r ** (kp.d - kp.alpha) for r in (1e-3, 3e-3, 1e-2)
        ]
        assert max(small) / min(small) < 1.5


class TestGlobalBound:
    GEOMETRY = GroupGeometry(d=3, D=0.0, b=4.0)

    def test_frozen_value(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 4.0)
        assert tau_delta(self.GEOMETRY) == 1.0
        assert global_bound_constant(kp, self.GEOMETRY) == pytest.approx(GLOBAL_SUP_REF, rel=1e-6)

    def test_below_threshold_rejected(self):
        geometry = GroupGeometry(d=3, D=1.0, b=1.0)  # threshold (2/b)(2D+b0)^2 = 12.5
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="tau_delta"):
            global_bound_constant(kp, geometry)

    def test_geometry_params_accepted(self):
        geometry = GroupGeometry(d=3, D=1.0, b=1.0)
        kp = green_kernel_params_from_geometry(1.0, geometry)
        assert kp.a == pytest.approx(tau_delta(geometry))
        assert math.isfinite(global_bound_constant(kp, geometry))

    def test_mismatched_b_rejected(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="match"):
            global_bound_constant(kp, self.GEOMETRY)

    def test_envelope_decays(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 4.0)
        rate = 2.0 * self.GEOMETRY.D + self.GEOMETRY.b0
        v10 = green_kernel_upper(10.0, kp) * math.exp(rate * 10.0)
        v30 = green_kernel_upper(30.0, kp) * math.exp(rate * 30.0)
        assert v30 <= 2.0 * v10


class TestKalphaNorms:
    def test_outer_empty_at_s_one(self):
        for r_exp in (1.0, 2.0, 5.0):
            inner, outer = kalpha_norms(1.0, 2, 1.0, r_exp)
            assert outer == 0.0
            assert inner == pytest.approx(1.0, rel=1e-14)

    def test_half_ball_example(self):
        inner, outer = kalpha_norms(1.0, 2, 0.5, 1.0)
        assert inner == pytest.approx(0.5, rel=1e-14)
        qi, qo = kalpha_norms_quadrature(1.0, 2, 0.5, 1.0)
        assert inner == pytest.approx(qi, rel=1e-10)
        assert outer == pytest.approx(qo, rel=1e-10)

    def test_negative_exponent_case(self):
        # (alpha - d) r + d = -3 < 0: outer piece finite
        inner, outer = kalpha_norms(1.0, 3, 0.5, 3.0)
        assert math.isfinite(outer) and outer > 0.0
        qi, qo = kalpha_norms_quadrature(1.0, 3, 0.5, 3.0)
        assert outer == pytest.approx(qo, rel=1e-10)

    def test_agreement_matrix(self):
        for d in (2, 3):
            for frac in (0.25, 0.5, 0.75):
                for s in (0.2, 0.6):
                    for r_exp in (1.0, 1.7, 3.0):
                        closed = kalpha_norms(frac * d, d, s, r_exp)
                        quad = kalpha_norms_quadrature(frac * d, d, s, r_exp)
                        assert closed[0] == pytest.approx(quad[0], rel=1e-8)
                        assert closed[1] == pytest.approx(quad[1], rel=1e-8)

    def test_degenerate_exponent_rejected(self):
        # r_exp = d/(d - alpha) makes the outer exponent vanish
        with pytest.raises(ValueError, match="degenerate"):
            kalpha_norms(1.0, 2, 0.5, 2.0)


class TestCutoff:
    def test_integrable_limit_at_zero(self):
        sched = CutoffSchedule("integrable", 2.0, 4.0, 1.0, 4)
        values = [cutoff_s(t, sched) for t in (1e-6, 1e-3, 1e-1)]
        assert all(v <= 1.0 for v in values)
        assert values[0] == pytest.approx(1.0, abs=1e-5)
        assert values[0] > values[1] > values[2]

    def test_endpoint_branch(self):
        sched = CutoffSchedule("endpoint", 1.0, 1.5, 1.0, 3)
        assert cutoff_s(1.0, sched) == 1.0
        assert cutoff_s(2.0, sched) == pytest.approx(2.0**-0.5, rel=1e-14)

    def test_below_one_on_log_grid(self):
        integrable = CutoffSchedule("integrable", 1.5, 3.0, 1.0, 3)
        endpoint = CutoffSchedule("endpoint", 1.0, 1.5, 1.0, 3)
        for t in np.geomspace(1e-6, 1e6, 100):
            assert cutoff_s(float(t), integrable) <= 1.0
            assert cutoff_s(float(t), endpoint) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffSchedule("other", 2.0, 4.0, 1.0, 4)
        with pytest.raises(ValueError):
            CutoffSchedule("integrable", 2.0, 5.0, 1.0, 4)  # scaling violated
        with pytest.raises(ValueError):
            CutoffSchedule("endpoint", 1.5, 4.0, 1.0, 4)
        with pytest.raises(ValueError):
            CutoffSchedule("endpoint", 1.0, 4.0, 1.0, 4)  # 1/q = 1 - alpha/d violated
        with pytest.raises(ValueError):
            CutoffSchedule("integrable", 2.0, 4.0, 4.0, 4)  # alpha = d
        for q in (0.0, -4.0, float("nan")):  # no ZeroDivisionError, no silent pass
            with pytest.raises(ValueError):
                CutoffSchedule("integrable", 2.0, q, 3.0, 4)
        with pytest.raises(ValueError):
            cutoff_s(0.0, CutoffSchedule("endpoint", 1.0, 1.5, 1.0, 3))


class TestWeakTypeConstant:
    def test_endpoint_example(self):
        assert weak_type_constant(1.0, 4.0 / 3.0, 1.0, 4) == 1.0

    def test_interior_example(self):
        assert weak_type_constant(2.0, 4.0, 1.0, 4) == pytest.approx(2.0**-0.25, rel=1e-14)

    def test_matches_endpoint_limit(self):
        p = 1.0 + 1e-6
        q = 1.0 / (1.0 / p - 0.25)
        near = weak_type_constant(p, q, 1.0, 4)
        at = weak_type_constant(1.0, 4.0 / 3.0, 1.0, 4)
        assert near == pytest.approx(at, abs=1e-4)

    def test_scaling_violation_rejected(self):
        with pytest.raises(ValueError):
            weak_type_constant(2.0, 5.0, 1.0, 4)


class TestShellSums:
    def test_frozen_reference(self):
        g = GroupGeometry(d=1, D=0.0, b=4.0)  # b0 = 1
        assert tilde_k_norm(1.0, g) == pytest.approx(TILDE_K_REF, rel=1e-12)

    def test_monotone_in_r(self):
        g = GroupGeometry(d=1, D=0.5, b=1.0)
        values = [tilde_k_norm(r, g) for r in (1.0, 1.5, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_growth_dominated_case(self):
        g = GroupGeometry(d=2, D=1.0, b=4.0)  # exponent -r(2D+b0)2^k + D 2^{k+1} < 0
        assert math.isfinite(tilde_k_norm(2.0, g))

    def test_chi_global_cancellation(self):
        for c in (0.0, 0.5, 2.0):
            g = GroupGeometry(d=2, D=1.0, b=1.0, c_delta_chi_inv=c)
            for r in (1.0, 1.5):
                assert chi_global_norm(r, g) == tilde_k_norm(r, g)


class TestChiLocalNorm:
    def test_matches_a2_shape_at_unit_mass(self):
        # [q/(d r)]^{1/r} d^{1/r} = (1 + q/p')^{1/q + 1/p'}, the a2 shape
        r = 1.0 / (1.0 / 2.0 + 1.0 / 2.0)
        assert chi_weighted_local_norm(2.0, 2.0, 2, 1.0) * 2 ** (1.0 / r) == pytest.approx(2.0, rel=1e-14)
        for (p, q) in ((2.0, 2.0), (2.0, 4.0), (1.5, 3.0)):
            r = 1.0 / (1.0 / q + 1.0 - 1.0 / p)
            assert chi_weighted_local_norm(p, q, 3, 1.0) * 3 ** (1.0 / r) == pytest.approx(
                a2_bound_factor(p, q, 1.0), rel=1e-12
            )

    def test_radial_exponent_positive(self):
        for (p, q) in ((1.05, 1.05), (1.05, 10.5), (2.0, 4.0), (16.0, 160.0)):
            pp = p / (p - 1.0)
            r = 1.0 / (1.0 / q + 1.0 / pp)
            d = 3
            assert (d / p - d) * r + d == pytest.approx(d * r / q, rel=1e-9)
            assert d * r / q > 0.0

    def test_scales_linearly_with_weight_bound(self):
        base = chi_weighted_local_norm(2.0, 4.0, 2, 1.0)
        assert chi_weighted_local_norm(2.0, 4.0, 2, 3.0) == pytest.approx(
            3.0 * base, rel=1e-14
        )
