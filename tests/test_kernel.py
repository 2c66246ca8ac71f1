import math
import sys

import mpmath as mp
import numpy as np
import pytest

from sobolev_constants.kernel import (
    CutoffSchedule,
    GreenKernelParams,
    cutoff_s,
    global_bound_constant,
    green_kernel_params_from_geometry,
    green_kernel_upper,
    kalpha_norms,
    kalpha_norms_quadrature,
    local_bound_constant,
    local_envelope_peak,
    log_green_kernel,
    quad,
    tilde_k_norm,
)
from sobolev_constants.params import GroupGeometry, tau_delta

# (r, alpha, d, a, b): radii from 1e-3 to 29 and shifts from 1 to 840.5 (the
# shift of growth rate D = 10), each where the envelope is still a normal
# double; (8.0, 0.1, 1, 840.5) and (10.4, ...) put a narrow saddle far out,
# and at r = sqrt(0.03), alpha/d = 0.05 the log-integrand's left maximum
# (x ~ -3.9) lies far from the saddle (x ~ -1.75)
ORACLE_CASES = (
    (1.0, 1.0, 3, 1.0, 1.0),
    (0.05, 0.5, 1, 1.0, 1.0),
    (2.0, 2.4, 3, 12.5, 1.0),
    (0.3, 0.2, 2, 1.0, 4.0),
    (29.0, 1.0, 3, 12.5, 1.0),
    (29.0, 0.1, 1, 12.5, 1.0),
    (1e-3, 2.7, 3, 12.5, 1.0),
    (5.0, 0.5, 1, 40.0, 1.0),
    (0.01, 1.5, 2, 40.0, 1.0),
    (10.0, 1.5, 2, 220.5, 1.0),
    (0.2, 0.3, 3, 220.5, 1.0),
    (1e-3, 0.9, 1, 220.5, 1.0),
    (8.0, 0.1, 1, 840.5, 1.0),
    (10.4, 0.1, 1, 840.5, 1.0),
    (0.17320508075688776, 0.15, 3, 1.0, 1.0),
)
LOCAL_SUP_REF = 1.1283638992488583  # alpha=1, d=3, a=1, b=1 sweep, frozen at build
GLOBAL_SUP_REF = 0.05061440517890041  # alpha=1, d=3, a=1, b=4, D=0 geometry
TILDE_K_REF = 0.521865938459879089  # r=1, D=0, b0=1 shell sum


def green_oracle(r, alpha, d, a, b, log=False):
    """The envelope at 20 digits, or its log with log=True (for envelopes
    below the double range), split as in DLMF 10.32.10 with c = b r^2 and
    z = 2 sqrt(a c):

        Gamma(alpha/2) green = 2 (c/a)^{alpha/4} K_{alpha/2}(z)
            + int_0^1 (t^{(alpha-d)/2-1} - t^{alpha/2-1}) e^{-a t - c/t} dt.

    Both terms are taken times e^z, which puts the saddle value of
    e^{-a t - c/t} at 1: mpmath's quadrature stops on an absolute error, so
    the integrand must not be far below 1.
    The remainder is integrated in x = log t, with breakpoints every
    (a c)^{-1/4}/sqrt(2) (the width of the saddle) around x = log sqrt(c/a).
    It starts where c/t = a + c + 2000, which lies below both t = 1 and the
    saddle: there the integrand is below e^-2000 of its value at t = 1."""
    with mp.workdps(20):
        r, alpha, a, b = mp.mpf(r), mp.mpf(alpha), mp.mpf(a), mp.mpf(b)
        c = b * r * r
        z = 2 * mp.sqrt(a * c)
        bessel = 2 * (c / a) ** (alpha / 4) * mp.besselk(alpha / 2, z) * mp.exp(z)
        lo, hi = (alpha - d) / 2, alpha / 2

        def remainder(x):
            return (mp.exp(lo * x) - mp.exp(hi * x)) * mp.exp(z - a * mp.exp(x) - c * mp.exp(-x))

        centre = mp.log(c / a) / 2
        step = (a * c) ** mp.mpf(-0.25) / mp.sqrt(2)
        x_lo = mp.log(c / (a + c + 2000))
        knots = [centre + k * step for k in range(-8, 9)]
        points = [x_lo] + [x for x in knots if x_lo < x < 0] + [mp.mpf(0)]
        scaled = (bessel + mp.quad(remainder, points)) / mp.gamma(alpha / 2)
        return float(mp.log(scaled) - z if log else scaled * mp.exp(-z))


def green_direct_log(r, alpha, d, a, b):
    """log of the envelope at 40 digits by direct integration of
    t^{alpha/2} min(1, t)^{-d/2} e^{-a t - c/t} in x = log t, over the x where
    e^{-a t - c/t} is within e^-3000 of its value at t = 1, with breakpoints
    every half saddle width out to 20 widths: an independent check of
    green_oracle's split and its limits of integration."""
    with mp.workdps(40):
        r, alpha, a, b = mp.mpf(r), mp.mpf(alpha), mp.mpf(a), mp.mpf(b)
        c = b * r * r

        def integrand(x):
            return mp.exp(alpha / 2 * x - d / 2 * min(x, 0) - a * mp.exp(x) - c * mp.exp(-x))

        centre = mp.log(c / a) / 2
        step = (a * c) ** mp.mpf(-0.25) / mp.sqrt(2)
        x_lo, x_hi = mp.log(c / (a + c + 3000)), mp.log((a + c + 3000) / a)
        knots = [centre + k * step / 2 for k in range(-40, 41)] + [mp.mpf(0)]
        points = [x_lo] + sorted(x for x in knots if x_lo < x < x_hi) + [x_hi]
        return float(mp.log(mp.quad(integrand, points) / mp.gamma(alpha / 2)))


class TestGreenKernelUpper:
    def test_matches_mpmath_oracle(self):
        # the adaptive envelope and the split rule it cross-checks
        for r, alpha, d, a, b in ORACLE_CASES:
            kp = GreenKernelParams(alpha, d, a, b)
            expected = green_oracle(r, alpha, d, a, b)
            assert green_kernel_upper(r, kp, rel_tol=1e-8) == pytest.approx(expected, rel=1e-10), kp
            assert math.exp(log_green_kernel([r], kp)[0]) == pytest.approx(expected, rel=1e-10), kp

    def test_subnormal_envelope_raises(self):
        # e^-712.3 is below the normal doubles, whose last digits could not
        # hold the relative tolerance; e^-700.7 at r = 12 is returned
        kp = GreenKernelParams(0.1, 1, 840.5, 1.0)
        assert math.log(green_kernel_upper(12.0, kp)) == pytest.approx(
            green_oracle(12.0, 0.1, 1, 840.5, 1.0, log=True), rel=1e-10
        )
        with pytest.raises(ValueError, match="is not a normal double"):
            green_kernel_upper(12.2, kp)

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

    @pytest.mark.parametrize("r", (170.0, 190.0, 340.0))
    def test_far_peak_on_the_last_piece(self, r):
        # the [1, inf) integrand peaks far out at t* = r; e^-340 to e^-680
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        expected = log_green_kernel([r], kp)[0]
        assert math.log(green_kernel_upper(r, kp)) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("a", (1.0, 12.5, 40.0, 220.5, 840.5))
    def test_agrees_with_the_split_rule(self, a):
        # 60 radii over both sweeps, wherever the envelope is a normal double
        radii = np.geomspace(1e-3, 30.0, 60)
        for d in (1, 2, 3):
            for frac in (0.1, 0.5, 0.9):
                kp = GreenKernelParams(frac * d, d, a, 1.0)
                for r, log_green in zip(radii, log_green_kernel(radii, kp)):
                    if log_green < math.log(sys.float_info.min):
                        continue
                    got = math.log(green_kernel_upper(float(r), kp))
                    assert abs(got - log_green) <= 1e-10, (r, kp)

    def test_unreachable_tolerance_raises(self):
        # each interval's error estimate is floored at 50 eps times its
        # absolute integral, which stays above 1e-16 of the value
        with pytest.raises(RuntimeError, match="did not reach relative tolerance"):
            green_kernel_upper(1.0, GreenKernelParams(1.0, 3), rel_tol=1e-16)

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


class TestQuad:
    """The adaptive Gauss-Kronrod rule against closed forms; on every case
    the reported abserr bounds the true error."""

    @pytest.mark.parametrize("k", range(23))
    def test_one_rule_integrates_polynomials_exactly(self, k):
        # rel_tol = 1 accepts the first rule's estimate for every degree
        lo, hi = -0.3, 1.7
        value, abserr, info = quad(lambda x: x**k, lo, hi, 1.0)
        expected = (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
        assert info == {"neval": 15}
        assert abs(value - expected) <= min(abserr, 1e-14 * abs(expected))

    @pytest.mark.parametrize("s", (0.5, 0.75, 1.0, 1.5, 2.5, 5.0))
    def test_gamma_function(self, s):
        # for s < 1 the integrable singularity at the finite end maps to
        # t = 1, where bisection stops at intervals 1e-12 wide: the value
        # holds about 8 digits, and abserr says so
        value, abserr, _ = quad(lambda t: t ** (s - 1.0) * np.exp(-t), 0.0, math.inf, 1e-10)
        expected = math.gamma(s)
        assert abs(value - expected) <= min(abserr, 1e-7 * expected)
        if s >= 1.0:
            assert abserr <= 1e-10 * value

    @pytest.mark.parametrize("alpha", (0.01, 1.0, 100.0))
    def test_exponential_on_a_left_half_line(self, alpha):
        value, abserr, _ = quad(lambda x: np.exp(alpha * x), -math.inf, 0.0, 1e-12)
        assert abs(value - 1.0 / alpha) <= min(abserr, 1e-12 / alpha)

    def test_narrow_peak(self):
        # int_0^inf t^{-1/2} e^{-a t - c/t} dt = sqrt(pi/a) e^{-z}, z = 2 sqrt(a c)
        # (K_{1/2} in closed form); a = 840.5, c = 64 puts a peak of relative
        # width about 0.05 at t* = sqrt(c/a) = 0.28
        a, c = 840.5, 64.0
        z = 2.0 * math.sqrt(a * c)
        value, abserr, _ = quad(
            lambda t: np.exp(z - a * t - c / t) / np.sqrt(t), 0.0, math.inf, 1e-12
        )
        expected = math.sqrt(math.pi / a)
        assert abs(value - expected) <= min(abserr, 1e-12 * expected)

    def test_unreachable_tolerance_is_reported(self):
        # each interval's estimate is floored at 50 eps times its absolute
        # integral, so 1e-16 is never met; quad stops and says so in abserr
        value, abserr, _ = quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-16)
        assert abserr > 1e-16 * abs(value)
        assert abserr >= abs(value - 2.0)

    @pytest.mark.parametrize("a, b", ((1.0, 1.0), (2.0, 1.0), (-math.inf, math.inf), (0.0, math.nan)))
    def test_bad_interval_rejected(self, a, b):
        with pytest.raises(ValueError, match="need a < b"):
            quad(np.exp, a, b, 1e-8)


class TestLogGreenKernel:
    RADII = (1e-3, 0.1, 1.0, 10.0, 30.0)

    # a = 840.5 is the shift of growth rate D = 10, where the envelope leaves
    # the double range at r = 30
    @pytest.mark.parametrize("a", (1.0, 12.5, 220.5, 840.5))
    @pytest.mark.parametrize("frac", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_matches_log_oracle(self, d, frac, a):
        got = log_green_kernel(self.RADII, GreenKernelParams(frac * d, d, a, 1.0))
        for r, log_green in zip(self.RADII, got):
            expected = green_oracle(r, frac * d, d, a, 1.0, log=True)
            assert abs(math.expm1(log_green - expected)) <= 1e-10, (r, log_green, expected)


class TestGreenOracle:
    # c = b r^2 > 2000, where the remainder's lower limit must stay below
    # t = 1 and the saddle, and envelopes of e^-60 and less, where an
    # unscaled integrand would meet mpmath's absolute error test at once
    @pytest.mark.parametrize(
        "r, alpha, d, a, b",
        (
            (30.0, 1.0, 3, 1.0, 100.0),
            (30.0, 1.5, 2, 1.0, 5000.0),
            (30.0, 0.5, 1, 840.5, 10.0),
            (1.0, 0.1, 1, 840.5, 1.0),
            (1e-3, 0.9, 1, 840.5, 1.0),
        ),
    )
    def test_matches_direct_integration(self, r, alpha, d, a, b):
        expected = green_direct_log(r, alpha, d, a, b)
        got = green_oracle(r, alpha, d, a, b, log=True)
        assert got == pytest.approx(expected, rel=1e-15, abs=1e-13)


class TestLocalBound:
    def test_frozen_sweep_value(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        assert local_bound_constant(kp) == pytest.approx(LOCAL_SUP_REF, rel=1e-6)

    def test_stable_under_tighter_quadrature(self):
        # the fast sup against adaptive quad at the arg-sup radius
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        r_star, v = local_envelope_peak(kp)
        assert v == local_bound_constant(kp)
        # normalized by r^{d - alpha} (d - alpha)/alpha = 2 r^2
        v_tight = green_kernel_upper(r_star, kp, rel_tol=1e-9) * r_star**2 * 2.0
        assert v == pytest.approx(v_tight, rel=1e-10)

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
    GEOMETRY = GroupGeometry(D=0.0, b=4.0)

    def test_frozen_value(self):
        kp = GreenKernelParams(1.0, 3, 1.0, 4.0)
        assert tau_delta(self.GEOMETRY) == 1.0
        assert global_bound_constant(kp, self.GEOMETRY) == pytest.approx(GLOBAL_SUP_REF, rel=1e-6)

    def test_below_threshold_rejected(self):
        geometry = GroupGeometry(D=1.0, b=1.0)  # threshold (2/b)(2D+b0)^2 = 12.5
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="tau_delta"):
            global_bound_constant(kp, geometry)

    def test_geometry_params_accepted(self):
        geometry = GroupGeometry(D=1.0, b=1.0)
        kp = green_kernel_params_from_geometry(1.0, 3, geometry)
        assert kp.a == pytest.approx(tau_delta(geometry))
        assert math.isfinite(global_bound_constant(kp, geometry))

    def test_log_space_sup_below_the_envelope_range(self):
        # growth 6: the weighted sup is about e^-24, though the envelope
        # itself leaves the double range before r = 30
        geometry = GroupGeometry(D=6.0, b=1.0)
        kp = green_kernel_params_from_geometry(0.5, 1, geometry)
        assert 1e-12 < global_bound_constant(kp, geometry) < 1e-9

    def test_sup_outside_the_double_range_rejected(self):
        geometry = GroupGeometry(D=200.0, b=1.0)
        kp = green_kernel_params_from_geometry(0.5, 1, geometry)
        with pytest.raises(ValueError, match="not a normal double"):
            global_bound_constant(kp, geometry)

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
        sched = CutoffSchedule(2.0, 1.0, 4)
        assert sched.q_t == 4.0
        values = [cutoff_s(t, sched) for t in (1e-6, 1e-3, 1e-1)]
        assert all(v <= 1.0 for v in values)
        assert values[0] == pytest.approx(1.0, abs=1e-5)
        assert values[0] > values[1] > values[2]

    def test_endpoint_branch(self):
        sched = CutoffSchedule(1.0, 1.0, 3)
        assert sched.q_t == pytest.approx(1.5, rel=1e-15)
        assert cutoff_s(1.0, sched) == 1.0
        assert cutoff_s(2.0, sched) == pytest.approx(2.0**-0.5, rel=1e-14)

    def test_below_one_on_log_grid(self):
        integrable = CutoffSchedule(1.5, 1.0, 3)
        endpoint = CutoffSchedule(1.0, 1.0, 3)
        for t in np.geomspace(1e-6, 1e6, 100):
            assert cutoff_s(float(t), integrable) <= 1.0
            assert cutoff_s(float(t), endpoint) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CutoffSchedule(0.5, 1.0, 4)  # p < 1, though 1/q = 1/p - alpha/d > 0
        with pytest.raises(ValueError):
            CutoffSchedule(2.0, 4.0, 4)  # alpha = d
        # alpha >= d/p, also when only rounding puts 1/p - alpha/d at 0: no ZeroDivisionError
        for p, alpha, d in ((2.0, 2.0, 4), (2.0, 3.0, 4), (3.0, 0.9999999999999999, 3)):
            with pytest.raises(ValueError, match="not positive"):
                CutoffSchedule(p, alpha, d)
        with pytest.raises(ValueError):
            cutoff_s(0.0, CutoffSchedule(1.0, 1.0, 3))


class TestShellSums:
    def test_frozen_reference(self):
        g = GroupGeometry(D=0.0, b=4.0)  # b0 = 1
        assert tilde_k_norm(1.0, g) == pytest.approx(TILDE_K_REF, rel=1e-12)

    def test_monotone_in_r(self):
        g = GroupGeometry(D=0.5, b=1.0)
        values = [tilde_k_norm(r, g) for r in (1.0, 1.5, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_growth_dominated_case(self):
        g = GroupGeometry(D=1.0, b=4.0)  # exponent -r(2D+b0)2^k + D 2^{k+1} < 0
        assert math.isfinite(tilde_k_norm(2.0, g))
