import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from sobolev_constants import kernel
from sobolev_constants.kernel import (
    _QUAD_LIMIT,
    R_GLOBAL_MAX,
    R_LOCAL_MIN,
    R_SPLIT,
    _gk15,
    CutoffSchedule,
    GreenKernelParams,
    cutoff_s,
    global_bound_constant,
    green_kernel_params_from_geometry,
    green_kernel_upper,
    kalpha_norms,
    kalpha_norms_quadrature,
    local_bound_constant,
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
# the 27 local profiles of verify.check_kernel, in its order
CHECK_KERNEL_PROFILES = tuple(
    GreenKernelParams(frac * d, d, 1.0, 1.0)
    for d in (1, 2, 3)
    for frac in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
)
# Regression pins, frozen at build; the live oracles are green_oracle at the
# sups' arg-sup radii (TestLocalBound, TestGlobalBound) and tilde_k_oracle
LOCAL_SUP_REF = 1.1283638992488583  # alpha=1, d=3, a=1, b=1 sweep
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


def tilde_k_oracle(r_exp, g):
    """sum_{k >= 0} exp(-r (2D + b0) 2^k + D 2^{k+1}) by mpmath.nsum at 30 digits."""
    with mp.workdps(30):
        rate, D = r_exp * mp.mpf(g.weight_rate), mp.mpf(g.D)
        return float(mp.nsum(lambda k: mp.exp(-rate * 2**k + D * 2 ** (k + 1)), [0, mp.inf]))


def assert_sup_matches_the_oracle(sup, radii, i, normalized_oracle):
    """The sweep's sup is the oracle's value at radii[i], its arg-sup radius,
    and under the oracle no grid neighbour of radii[i] is larger.  The oracle
    is not taken on every radius: that takes seconds."""
    lo = max(i - 1, 0)
    values = [normalized_oracle(float(r)) for r in radii[lo : i + 2]]
    assert sup == pytest.approx(values[i - lo], rel=1e-10)
    assert max(values) == values[i - lo]


class TestGreenKernelUpper:
    def test_matches_mpmath_oracle(self):
        # the adaptive envelope and the split rule it cross-checks
        for r, alpha, d, a, b in ORACLE_CASES:
            kp = GreenKernelParams(alpha, d, a, b)
            expected = green_oracle(r, alpha, d, a, b)
            assert green_kernel_upper(r, kp, rel_tol=1e-8) == pytest.approx(expected, rel=1e-10), kp
            assert math.exp(log_green_kernel([r], kp)[0, 0]) == pytest.approx(expected, rel=1e-10), kp

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
        expected = log_green_kernel([r], kp)[0, 0]
        assert math.log(green_kernel_upper(r, kp)) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("a", (1.0, 12.5, 40.0, 220.5, 840.5))
    def test_agrees_with_the_split_rule(self, a):
        # 60 radii over both sweeps, wherever the envelope is a normal double
        radii = np.geomspace(1e-3, 30.0, 60)
        for d in (1, 2, 3):
            for frac in (0.1, 0.5, 0.9):
                kp = GreenKernelParams(frac * d, d, a, 1.0)
                for r, log_green in zip(radii, log_green_kernel(radii, kp)[0]):
                    if log_green < math.log(sys.float_info.min):
                        continue
                    got = math.log(green_kernel_upper(float(r), kp))
                    assert abs(got - log_green) <= 1e-10, (r, kp)

    @pytest.mark.parametrize("a", (1.0, 12.5, 40.0, 220.5, 840.5))
    def test_each_side_is_cut_below_e_minus_750_of_the_peak(self, a, monkeypatch):
        # each side is one quad call over [cut, 0] or [0, cut].  At each cut
        # the log integrand in x = log t, alpha/2 x - d/2 min(x, 0) - a e^x -
        # c e^{-x}, is at least 750 below its largest value at 0 and at the
        # breakpoints, which is at most its peak
        calls = []

        def recording_quad(func, lo, hi, rel_tol, points=()):
            calls.append((lo, hi, points))
            return quad(func, lo, hi, rel_tol, points)

        monkeypatch.setattr(kernel, "quad", recording_quad)
        radii = np.geomspace(1e-3, 30.0, 60)
        for d in (1, 2, 3):
            for frac in (0.1, 0.5, 0.9):
                kp = GreenKernelParams(frac * d, d, a, 1.0)
                for r in radii:
                    c = mp.mpf(kp.b) * mp.mpf(float(r)) ** 2

                    def log_integrand(x):
                        x = mp.mpf(x)
                        return kp.alpha / 2 * x - d / 2 * min(x, 0) - a * mp.exp(x) - c * mp.exp(-x)

                    calls.clear()
                    try:
                        green_kernel_upper(float(r), kp)
                    except ValueError:
                        pass  # outside the normal doubles; the cuts are made all the same
                    (left_cut, zero, left_points), (zero_too, right_cut, right_points) = calls
                    assert zero == zero_too == 0.0 and left_cut < 0.0 < right_cut
                    peak = max(log_integrand(x) for x in (0.0, *left_points, *right_points))
                    for cut in (left_cut, right_cut):
                        assert log_integrand(cut) - peak <= -750.0, (r, kp, cut)

    def test_unreachable_tolerance_raises(self):
        # each interval's error estimate is floored at 50 eps times its
        # absolute integral, which stays above 1e-16 of the value
        with pytest.raises(RuntimeError, match="did not reach relative tolerance"):
            green_kernel_upper(1.0, GreenKernelParams(1.0, 3), rel_tol=1e-16)

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            green_kernel_upper(0.0, GreenKernelParams(1.0, 3))

    def test_underflowing_rate_refused(self):
        # b r^2 underflows to 0 at r = 1e-300, whose log c was a bare math domain error
        kp = GreenKernelParams(1.0, 3)
        for envelope in (lambda: green_kernel_upper(1e-300, kp), lambda: log_green_kernel([1e-300, 1.0], kp)):
            with pytest.raises(ValueError, match=r"at r=1e-300 needs b r\^2, which underflows to 0") as info:
                envelope()
            assert str(kp) in str(info.value)
        with pytest.raises(ValueError, match=r"at r=inf needs b r\^2, which overflows"):
            green_kernel_upper(math.inf, kp)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GreenKernelParams(3.0, 3)  # alpha = d
        with pytest.raises(ValueError):
            GreenKernelParams(1.0, 3, a=0.5)
        with pytest.raises(ValueError):
            GreenKernelParams(1.0, 3, b=0.0)


def gauss_legendre_oracle(n):
    """The n-point Gauss-Legendre nodes and weights at 40 digits: Newton on
    mpmath's P_n (a hypergeometric sum, not the recurrence) from Tricomi's
    guesses, to steps below 1e-36."""
    nodes, weights = [], []
    with mp.workdps(40):
        for k in range(1, n + 1):
            x = -mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
            for _ in range(50):
                dp = n * (mp.legendre(n - 1, x) - x * mp.legendre(n, x)) / ((1 - x) * (1 + x))
                step = mp.legendre(n, x) / dp
                x -= step
                if abs(step) < mp.mpf(10) ** -36:
                    break
            else:
                raise AssertionError(f"oracle node {k} did not converge")
            nodes.append(x)
            weights.append(2 / ((1 - x) * (1 + x) * dp**2))
        # n distinct roots in (-1, 1), and weights that integrate 1 exactly
        assert -1 < nodes[0] and all(a < b for a, b in zip(nodes, nodes[1:])) and nodes[-1] < 1
        assert abs(mp.fsum(weights) - 2) < mp.mpf(10) ** -30
    return nodes, weights


class TestGaussLegendre:
    def test_matches_a_40_digit_rule(self):
        x, w = kernel._gauss_legendre()
        nodes, weights = gauss_legendre_oracle(kernel._GL_NODES)
        assert len(x) == len(w) == len(nodes)
        for xi, wi, node, weight in zip(x.tolist(), w.tolist(), nodes, weights):
            assert abs(xi - float(node)) <= math.ulp(float(node)), (xi, node)
            assert abs(wi - weight) <= 1e-12 * weight, (xi, wi, weight)

    def test_integrates_every_monomial_to_degree_2n_minus_1(self):
        # absolute error: the 1-ulp node errors grow k-fold in x^k, so at
        # k = 254 the relative error of the sum reaches about 1.4e-14
        x, w = kernel._gauss_legendre()
        for k in range(2 * kernel._GL_NODES):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.sum(w * x**k)) - exact) <= 1e-14, k

    def test_unconverged_newton_raises(self, monkeypatch):
        # the rule takes 5 recurrence evaluations; 4 leave it unconverged
        monkeypatch.setattr(kernel, "_NEWTON_EVALUATIONS", 5)
        x, w = kernel._gauss_legendre.__wrapped__()
        assert np.array_equal(x, kernel._gauss_legendre()[0]) and np.array_equal(w, kernel._gauss_legendre()[1])
        monkeypatch.setattr(kernel, "_NEWTON_EVALUATIONS", 4)
        with pytest.raises(RuntimeError, match="did not converge in 4 recurrence evaluations"):
            kernel._gauss_legendre.__wrapped__()


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
        # the tail past t = 800 is below e^-770; for s < 1 bisection closes in
        # on the integrable singularity at t = 0, and abserr bounds the error
        value, abserr, _ = quad(lambda t: t ** (s - 1.0) * np.exp(-t), 0.0, 800.0, 1e-10)
        expected = math.gamma(s)
        assert abs(value - expected) <= min(abserr, 1e-7 * expected)
        if s >= 1.0:
            assert abserr <= 1e-10 * value

    @pytest.mark.parametrize("alpha", (0.01, 1.0, 100.0))
    def test_exponential_on_a_left_half_line(self, alpha):
        # cut where the integrand is e^-750, as the kernel cuts its tails
        value, abserr, _ = quad(lambda x: np.exp(alpha * x), -750.0 / alpha, 0.0, 1e-12)
        assert abs(value - 1.0 / alpha) <= min(abserr, 1e-12 / alpha)

    def test_narrow_peak(self):
        # int_0^inf t^{-1/2} e^{-a t - c/t} dt = sqrt(pi/a) e^{-z}, z = 2 sqrt(a c)
        # (K_{1/2} in closed form); a = 840.5, c = 64 puts a peak of relative
        # width about 0.05 at t* = sqrt(c/a) = 0.28.  Outside [1e-3, 2] the
        # integrand is below e^-1000 of its peak
        a, c = 840.5, 64.0
        z = 2.0 * math.sqrt(a * c)
        value, abserr, _ = quad(lambda t: np.exp(z - a * t - c / t) / np.sqrt(t), 1e-3, 2.0, 1e-12)
        expected = math.sqrt(math.pi / a)
        assert abs(value - expected) <= min(abserr, 1e-12 * expected)

    def test_unreachable_tolerance_is_reported(self):
        # each interval's estimate is floored at 50 eps times its absolute
        # integral, so 1e-16 is never met; quad stops and says so in abserr
        value, abserr, _ = quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-16)
        assert abserr > 1e-16 * abs(value)
        assert abserr >= abs(value - 2.0)

    @pytest.mark.parametrize(
        "a, b",
        ((1.0, 1.0), (2.0, 1.0), (-math.inf, math.inf), (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)),
    )
    def test_bad_interval_rejected(self, a, b):
        with pytest.raises(ValueError, match="need a < b"):
            quad(np.exp, a, b, 1e-8)

    def test_kink_on_a_breakpoint_is_exact_in_one_round(self):
        # |x| is linear on each side of the breakpoint 0: one rule per side
        value, abserr, info = quad(np.abs, -1.0, 2.0, 1e-10, (0.0,))
        assert info == {"neval": 30}
        assert abs(value - 2.5) <= min(abserr, 1e-15)
        # without it, bisection has to close in on the kink
        assert quad(np.abs, -1.0, 2.0, 1e-10)[2]["neval"] > 30

    @pytest.mark.parametrize("points", ((-1.0,), (2.0,), (1.0, 0.0), (math.nan,)))
    def test_points_outside_or_unsorted_rejected(self, points):
        with pytest.raises(ValueError, match="need a < b"):
            quad(np.abs, -1.0, 2.0, 1e-10, points)

    def test_rounds_never_leave_more_than_the_limit(self, monkeypatch):
        # 1e-16 is never met, so rounds go on until the limit stops them;
        # each _gk15 call after the first gets both halves of every interval
        # its round bisects
        sizes = []

        def recording_gk15(func, lo, hi):
            sizes.append(len(lo))
            return _gk15(func, lo, hi)

        monkeypatch.setattr(kernel, "_gk15", recording_gk15)
        _, _, info = quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-16)
        intervals = np.cumsum([sizes[0]] + [n // 2 for n in sizes[1:]])
        assert sizes[0] == 1 and len(sizes) > 2
        assert intervals.max() == intervals[-1] == _QUAD_LIMIT
        assert info == {"neval": 15 * sum(sizes)} == {"neval": 15 * (2 * _QUAD_LIMIT - 1)}


class TestLogGreenKernel:
    RADII = (1e-3, 0.1, 1.0, 10.0, 30.0)

    # a = 840.5 is the shift of growth rate D = 10, where the envelope leaves
    # the double range at r = 30
    @pytest.mark.parametrize("a", (1.0, 12.5, 220.5, 840.5))
    @pytest.mark.parametrize("frac", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_matches_log_oracle(self, d, frac, a):
        (got,) = log_green_kernel(self.RADII, GreenKernelParams(frac * d, d, a, 1.0))
        for r, log_green in zip(self.RADII, got):
            expected = green_oracle(r, frac * d, d, a, 1.0, log=True)
            assert abs(math.expm1(log_green - expected)) <= 1e-10, (r, log_green, expected)

    @pytest.mark.parametrize(
        "profiles",
        (
            CHECK_KERNEL_PROFILES,
            # d out of order, so the pass rebuilds its per-d factor between rows
            tuple(
                GreenKernelParams(frac * d, d, 12.5, 1.0) for frac in (0.1, 0.5, 0.9) for d in (3, 1, 2, 1)
            ),
        ),
        ids=("check-kernel", "a-12.5"),
    )
    def test_shared_pass_equals_one_pass_per_profile(self, profiles):
        # both sweeps' radii; each row is exactly the single-profile row
        radii = np.concatenate(
            (np.geomspace(R_LOCAL_MIN, R_SPLIT, 200), np.geomspace(R_SPLIT, R_GLOBAL_MAX, 120))
        )
        shared = log_green_kernel(radii, *profiles)
        assert shared.shape == (len(profiles), len(radii))
        for kp, row in zip(profiles, shared):
            assert np.array_equal(row, log_green_kernel(radii, kp)[0]), kp
        assert local_bound_constant(*profiles) == [local_bound_constant(kp)[0] for kp in profiles]

    @pytest.mark.parametrize("count", (1, 49, 50, 51, 200, 201))
    def test_blocks_equal_one_pass(self, count, monkeypatch):
        # every radius is computed on its own, so the blocks change no bit
        radii = np.geomspace(R_LOCAL_MIN, R_SPLIT, count)
        blocked = log_green_kernel(radii, *CHECK_KERNEL_PROFILES)
        monkeypatch.setattr(kernel, "_RADIUS_BLOCK", count)
        assert np.array_equal(blocked, log_green_kernel(radii, *CHECK_KERNEL_PROFILES))

    def test_blocks_equal_one_pass_on_the_global_sweep(self, monkeypatch):
        kp = green_kernel_params_from_geometry(1.5, 3, GroupGeometry(2.0, 1.0, 0.5))
        assert kp.a != 1.0
        radii = np.geomspace(R_SPLIT, R_GLOBAL_MAX, 120)
        blocked = log_green_kernel(radii, kp)
        monkeypatch.setattr(kernel, "_RADIUS_BLOCK", len(radii))
        assert np.array_equal(blocked, log_green_kernel(radii, kp))

    def test_local_pass_memory_peak(self):
        # tracemalloc counts numpy's buffers, and unlike RSS repeats exactly;
        # one pass over all 200 radii peaked at 3.0 MiB
        radii = np.geomspace(R_LOCAL_MIN, R_SPLIT, 200)
        log_green_kernel(radii, *CHECK_KERNEL_PROFILES)  # builds the cached nodes
        tracemalloc.start()
        try:
            log_green_kernel(radii, *CHECK_KERNEL_PROFILES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize(
        "other", (GreenKernelParams(0.5, 1, 2.0, 1.0), GreenKernelParams(0.5, 1, 1.0, 4.0))
    )
    def test_profiles_with_other_a_or_b_rejected(self, other):
        first = GreenKernelParams(1.0, 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="must share a and b") as info:
            log_green_kernel(self.RADII, first, other)
        assert str(first) in str(info.value) and str(other) in str(info.value)
        with pytest.raises(ValueError, match="must share a and b"):
            local_bound_constant(first, other)


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
        assert local_bound_constant(kp)[0][1] == pytest.approx(LOCAL_SUP_REF, rel=1e-6)

    def test_matches_the_oracle_at_the_arg_sup(self):
        # normalized by r^{d - alpha} (d - alpha)/alpha = 2 r^2; the sup sits
        # on the first radius of the sweep
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        [(r_star, sup)] = local_bound_constant(kp)
        radii = np.geomspace(R_LOCAL_MIN, R_SPLIT, 200)
        i = int(np.flatnonzero(radii == r_star)[0])
        assert i == 0
        assert_sup_matches_the_oracle(sup, radii, i, lambda r: green_oracle(r, 1.0, 3, 1.0, 1.0) * 2.0 * r**2)

    def test_stable_under_tighter_quadrature(self):
        # the fast sup against adaptive quad at the arg-sup radius
        kp = GreenKernelParams(1.0, 3, 1.0, 1.0)
        [(r_star, v)] = local_bound_constant(kp)
        # normalized by r^{d - alpha} (d - alpha)/alpha = 2 r^2
        v_tight = green_kernel_upper(r_star, kp, rel_tol=1e-9) * r_star**2 * 2.0
        assert v == pytest.approx(v_tight, rel=1e-10)

    def test_normalization_stable_across_alpha(self):
        # normalized sups for alpha/d from 1/12 to 11/12 stay within one
        # order of magnitude of each other
        alphas = (0.25, 0.75, 1.25, 1.75, 2.25, 2.75)
        profiles = [GreenKernelParams(alpha, 3, 1.0, 1.0) for alpha in alphas]
        values = [sup for _, sup in local_bound_constant(*profiles)]
        assert max(values) / min(values) < 10.0

    @pytest.mark.xfail(
        strict=True,
        reason="the sup is the largest value on a grid that starts at R_LOCAL_MIN = 1e-3, "
        "where the normalized envelope still rises toward its r -> 0 limit",
    )
    def test_sup_reaches_the_small_radius_limit(self):
        # at b = 1 the normalized envelope green(r) r^{d - alpha} (d - alpha)/alpha
        # tends to Gamma((d - alpha)/2)/Gamma(alpha/2) (d - alpha)/alpha as r -> 0,
        # so a sup over (0, 1] is at least that; the profiles of check_kernel
        short = []
        for kp, (_, sup) in zip(CHECK_KERNEL_PROFILES, local_bound_constant(*CHECK_KERNEL_PROFILES)):
            d, alpha = kp.d, kp.alpha
            limit = math.gamma(0.5 * (d - alpha)) / math.gamma(0.5 * alpha) * (d - alpha) / alpha
            if sup < limit:
                short.append(f"d={d} alpha={alpha:g}: sup {sup:.6g} < limit {limit:.6g}")
        assert not short, "; ".join(short)

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

    def test_matches_the_oracle_at_the_arg_sup(self):
        # the sup sits on the first radius of the sweep
        kp = GreenKernelParams(1.0, 3, 1.0, 4.0)
        rate = self.GEOMETRY.weight_rate
        radii = np.geomspace(R_SPLIT, R_GLOBAL_MAX, 120)
        i = int(np.argmax(log_green_kernel(radii, kp)[0] + rate * radii))
        assert i == 0
        sup = global_bound_constant(kp, self.GEOMETRY)
        assert_sup_matches_the_oracle(
            sup, radii, i, lambda r: green_oracle(r, 1.0, 3, 1.0, 4.0) * math.exp(rate * r)
        )

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

    def test_one_inner_integral_serves_every_r_exp(self):
        # the several-r_exp form is exactly the one-r_exp calls, including s = 1
        for d, frac, s in ((1, 0.25, 0.25), (2, 0.5, 0.5), (3, 0.75, 1.0)):
            r_exps = (1.0, 1.7, 3.0)
            singles = [kalpha_norms_quadrature(frac * d, d, s, r_exp) for r_exp in r_exps]
            assert kalpha_norms_quadrature(frac * d, d, s, *r_exps) == (
                singles[0][0],
                *(outer for _, outer in singles),
            )
            assert all(inner == singles[0][0] for inner, _ in singles)
        with pytest.raises(ValueError, match="r_exp"):
            kalpha_norms_quadrature(1.0, 2, 0.5, 1.0, 0.5)

    def test_degenerate_exponent_rejected(self):
        # r_exp = d/(d - alpha) makes the outer exponent vanish
        with pytest.raises(ValueError, match="degenerate"):
            kalpha_norms(1.0, 2, 0.5, 2.0)

    @pytest.mark.parametrize("r_exp", [1e300, 1000.0, math.inf])
    def test_overflowing_outer_power_refused(self, r_exp):
        # s^E with E = (alpha - d) r_exp + d overflowed: a raw OverflowError at r_exp = 1e300
        for norms in (kalpha_norms, kalpha_norms_quadrature):
            with pytest.raises(ValueError, match="r_exp") as info:
                norms(1.0, 3, 0.5, r_exp)
            assert str(info.value).endswith(f"got {r_exp}")
        # 0.5^E stays a double up to r_exp = 513
        inner, outer = kalpha_norms(1.0, 3, 0.5, 500.0)
        assert math.isfinite(outer) and outer > 0.0


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

    def test_overflowing_base_taken_in_logs(self):
        # (t/2)^{p'} leaves the doubles from t = 1e155 on, where a raw
        # OverflowError escaped
        sched = CutoffSchedule(2.0, 1.0, 3)
        moderate = cutoff_s(1e150, sched)
        assert moderate == pytest.approx(4e-300, rel=1e-12)
        for t in (1e300, 1e308, math.inf):
            value = cutoff_s(t, sched)
            assert math.isfinite(value) and 0.0 <= value <= moderate, t

    def test_logs_agree_where_both_forms_are_finite(self):
        # p = 1.5, p' = 3: exponent -1/3, so the log form is a normal double
        sched = CutoffSchedule(1.5, 1.0, 3)
        direct = cutoff_s(1e100, sched)
        for t in (1e200, 1e300, 1e308):
            value = cutoff_s(t, sched)
            assert value == pytest.approx(direct * 1e100 / t, rel=1e-12), t

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

    @pytest.mark.parametrize(
        "r_exp, D, b", ((1.0, 0.0, 4.0), (1.0, 0.5, 1.0), (1.5, 1.0, 1.0), (2.0, 1.0, 4.0), (1.0, 3.0, 2.0))
    )
    def test_matches_mpmath_nsum(self, r_exp, D, b):
        g = GroupGeometry(D=D, b=b)
        assert tilde_k_norm(r_exp, g) == pytest.approx(tilde_k_oracle(r_exp, g), rel=1e-12)

    def test_monotone_in_r(self):
        g = GroupGeometry(D=0.5, b=1.0)
        values = [tilde_k_norm(r, g) for r in (1.0, 1.5, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_growth_dominated_case(self):
        g = GroupGeometry(D=1.0, b=4.0)  # exponent -r(2D+b0)2^k + D 2^{k+1} < 0
        assert math.isfinite(tilde_k_norm(2.0, g))
