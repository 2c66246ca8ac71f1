import math
import sys

import mpmath
import numpy as np
import pytest

from sobolev_constants.params import ExponentPair, GroupGeometry, tau_delta
from sobolev_constants.spectral import (
    BOX_LENGTH,
    SpectralField,
    TRIAL_WIDTHS,
    TorusGrid,
    bessel_apply,
    embedding_ratio,
    embedding_sweep,
    gagliardo_interp_check,
    gaussian_field,
    interpolation_check,
    lp_norm,
    mt_functional,
    refined_widths,
)

TAU = tau_delta(GroupGeometry())  # 12.5 for the default geometry
GRID1 = TorusGrid(1, 256)
GRID2 = TorusGrid(2, 64)

# reference embedding ratio (gaussian width 1, p=2 -> q=4 at d=2), a regression
# pin frozen from the code's own output; test_mpmath_oracle holds the case to
# an independent value
EMBED_RATIO_2D = 0.329618360463


def mpmath_embedding_ratio(n: int, tau: float, alpha: float) -> mpmath.mpf:
    """||f||_4 / ||(tau + L)^{alpha/2} f||_2 at 30 digits for the width-1
    Gaussian centred on an n x n grid of the box [0, 16)^2.

    The Gaussian is separable, so its DFT is the product of two 1-D DFTs;
    the p = 2 norm is Parseval's (1/N) sum |F_k|^2 (tau + |xi_k|^2)^alpha
    times the cell volume, and the q = 4 norm is the Riemann sum."""
    with mpmath.workdps(30):
        h = mpmath.mpf(16) / n
        g = [mpmath.exp(-((j * h - 8) ** 2) / 2) for j in range(n)]
        power = [
            abs(mpmath.fsum(g[j] * mpmath.expjpi(-2 * mpmath.mpf(j * k) / n) for j in range(n))) ** 2
            for k in range(n)
        ]
        xi2 = [(2 * mpmath.pi * (k if k < n // 2 else k - n) / 16) ** 2 for k in range(n)]
        shift, order = mpmath.mpf(tau), mpmath.mpf(alpha)
        sobolev2 = mpmath.fsum(
            power[k] * power[l] * (shift + xi2[k] + xi2[l]) ** order for k in range(n) for l in range(n)
        ) * h**2 / n**2
        lebesgue4 = mpmath.fsum((a * b) ** 4 for a in g for b in g) * h**2
        return mpmath.root(lebesgue4, 4) / mpmath.sqrt(sobolev2)


class TestTorusGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusGrid(4, 32)
        with pytest.raises(ValueError):
            TorusGrid(1, 100)  # not a power of two
        with pytest.raises(ValueError):
            TorusGrid(1, 512)
        with pytest.raises(ValueError):
            TorusGrid(3, 256)  # 2^24 points

    def test_cell_volume(self):
        assert GRID2.cell_volume == pytest.approx((16.0 / 64) ** 2, rel=1e-15)

    def test_field_shape_checked(self):
        with pytest.raises(ValueError):
            SpectralField(GRID1, np.zeros(7))


class TestTransforms:
    def test_round_trip(self):
        for grid in (GRID1, GRID2):
            f = gaussian_field(grid, 1.0)
            values = np.asarray(f.values)
            back = np.fft.ifftn(np.fft.fftn(values))
            assert float(np.max(np.abs(back - values))) <= 1e-10 * float(np.max(np.abs(values)))

    def test_parseval(self):
        for grid in (GRID1, GRID2):
            # a Gaussian modulated by cos(2 pi 3 x_1 / L): two off-centre spectral peaks
            carrier = np.cos(2.0 * math.pi * 3 * grid.meshgrid()[0] / BOX_LENGTH)
            values = np.asarray(gaussian_field(grid, 1.0).values) * carrier
            coeffs = np.fft.fftn(values)
            grid_sum = float(np.sum(np.abs(values) ** 2) * grid.cell_volume)
            coeff_sum = float(np.sum(np.abs(coeffs) ** 2) * grid.cell_volume / values.size)
            assert abs(grid_sum - coeff_sum) <= 1e-10 * grid_sum


class TestBesselApply:
    def test_alpha_zero_is_identity(self):
        f = gaussian_field(GRID1, 0.7)
        assert bessel_apply(f, 2.0, 0.0) is f

    def test_constant_field_scales_by_tau_power(self):
        f = SpectralField(GRID1, np.ones(GRID1.shape))
        g = bessel_apply(f, 1.0, 2.0)
        assert np.allclose(np.asarray(g.values), 1.0, atol=1e-12)

    def test_inverse_round_trip(self):
        f = gaussian_field(GRID2, 1.0)
        back = bessel_apply(bessel_apply(f, TAU, 1.3), TAU, -1.3)
        err = float(np.max(np.abs(np.asarray(back.values) - np.asarray(f.values))))
        assert err <= 1e-10 * float(np.max(np.abs(np.asarray(f.values))))

    def test_cached_transform_equals_a_fresh_one(self):
        # one field through several orders, then each against the transform
        # and frequencies computed from scratch
        for grid in (GRID1, GRID2):
            f = gaussian_field(grid, 0.8)
            k = 2.0 * math.pi * np.fft.fftfreq(grid.n) * grid.n / BOX_LENGTH
            xi2 = sum(a**2 for a in np.meshgrid(*([k] * grid.dim), indexing="ij"))
            for alpha in (0.5, -1.0, 1.3):
                fresh = np.fft.ifftn(np.fft.fftn(np.array(f.values)) * (TAU + xi2) ** (0.5 * alpha))
                assert np.array_equal(bessel_apply(f, TAU, alpha).values, fresh)

    def test_cached_transforms_are_read_only(self):
        f = gaussian_field(GRID2, 1.0)
        assert f.coeffs is f.coeffs and GRID2.squared_frequencies is GRID2.squared_frequencies
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            GRID2.squared_frequencies[0, 0] = 1.0
        with pytest.raises(AttributeError):
            f.coeffs = np.zeros(GRID2.shape)
        with pytest.raises(AttributeError):
            GRID2.squared_frequencies = np.zeros(GRID2.shape)


class TestLpNorm:
    def test_constant_field(self):
        f = SpectralField(GRID1, np.ones(GRID1.shape))
        assert lp_norm(f, 2.0) == pytest.approx(math.sqrt(16.0), rel=1e-12)

    def test_homogeneity(self):
        f = gaussian_field(GRID1, 0.5)
        for p in (1.0, 2.0, 3.7):
            assert lp_norm(SpectralField(GRID1, 5.0 * np.asarray(f.values)), p) == pytest.approx(
                5.0 * lp_norm(f, p), rel=1e-12
            )

    def test_gaussian_mass_against_closed_form(self):
        # int exp(-p x^2 / (2 w^2)) dx = w sqrt(2 pi / p); the box is wide
        # enough that periodization is negligible
        w = 0.25
        f = gaussian_field(GRID1, w)
        for p in (1.0, 2.0, 4.0):
            mass = lp_norm(f, p) ** p
            assert mass == pytest.approx(w * math.sqrt(2.0 * math.pi / p), rel=1e-4)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(gaussian_field(GRID1, 1.0), 0.5)

    def test_overflow_raises_instead_of_inf(self):
        # each |f|^2 is finite, their sum is not
        f = SpectralField(GRID1, np.full(GRID1.shape, 1e154))
        with pytest.raises(ValueError, match="not finite"):
            lp_norm(f, 2.0)
        with pytest.raises(ValueError, match="not finite"):
            lp_norm(SpectralField(GRID1, np.full(GRID1.shape, np.nan)), 2.0)


class TestEmbeddingRatio:
    def test_flat_pair_ratio_one(self):
        f = gaussian_field(GRID2, 1.0)
        flat = ExponentPair(2.0, 0.0, 2)
        assert embedding_ratio(f, flat, TAU) <= 1.0 + 1e-9

    def test_frozen_reference(self):
        pair = ExponentPair(2.0, 0.5, 2)  # q = 4
        f = gaussian_field(GRID2, 1.0)
        assert embedding_ratio(f, pair, TAU) == pytest.approx(EMBED_RATIO_2D, rel=1e-6)

    def test_mpmath_oracle(self):
        pair = ExponentPair(2.0, 0.5, 2)  # q = 4
        want = mpmath_embedding_ratio(64, 12.5, 0.5)
        assert (GRID2.n, TAU) == (64, 12.5)
        got = embedding_ratio(gaussian_field(GRID2, 1.0), pair, TAU)
        assert got == pytest.approx(float(want), rel=1e-13)

    def test_resolution_convergence(self):
        pair = ExponentPair(2.0, 0.5, 2)
        coarse = embedding_ratio(gaussian_field(GRID2, 1.0), pair, TAU)
        fine = embedding_ratio(gaussian_field(TorusGrid(2, 128), 1.0), pair, TAU)
        assert abs(fine - coarse) <= 0.01 * coarse

    def test_scale_invariance(self):
        pair = ExponentPair(2.0, 0.25, 1)
        f = gaussian_field(GRID1, 1.0)
        g = SpectralField(GRID1, 7.5 * np.asarray(f.values))
        assert embedding_ratio(f, pair, TAU) == pytest.approx(
            embedding_ratio(g, pair, TAU), rel=1e-12
        )

    def test_overflow_raises_through_the_cached_transform(self):
        # the transform is finite; the order-alpha field's |.|^2 sum is not
        f = SpectralField(GRID1, np.full(GRID1.shape, 1e154))
        assert np.all(np.isfinite(f.coeffs))
        for _ in range(2):
            with pytest.raises(ValueError, match="not finite"):
                embedding_ratio(f, ExponentPair(2.0, 0.25, 1), TAU)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embedding_ratio(gaussian_field(GRID1, 1.0), ExponentPair(2.0, 0.5, 2), TAU)

    def test_zero_field_rejected(self):
        f = SpectralField(GRID1, np.zeros(GRID1.shape))
        with pytest.raises(ValueError):
            embedding_ratio(f, ExponentPair(2.0, 0.25, 1), TAU)


class TestEmbeddingSweep:
    PAIRS = [
        ExponentPair(p, frac * 1 / p, 1) for p in (1.05, 1.5, 2.0, 4.0) for frac in (0.3, 0.6, 0.9)
    ]

    def test_rows_finite_and_positive(self):
        rows, fitted = embedding_sweep(TRIAL_WIDTHS, self.PAIRS, TAU, GRID1)
        assert len(rows) == len(TRIAL_WIDTHS) * len(self.PAIRS)
        assert all(math.isfinite(r[6]) and r[6] > 0.0 for r in rows)
        assert 0.0 < fitted < 10.0

    @pytest.mark.parametrize("grid", (GRID1, GRID2), ids=("1d", "2d"))
    def test_rows_equal_one_ratio_per_field(self, grid):
        # the sweep transforms each trial field once for all its pairs; each
        # row is exactly the ratio of a field built for that pair alone
        pairs = [
            ExponentPair(p, frac * grid.dim / p, grid.dim) for p in (1.05, 2.0, 4.0) for frac in (0.3, 0.9)
        ]
        rows, fitted = embedding_sweep(TRIAL_WIDTHS, pairs, TAU, grid)
        cases = [(width, pair) for width in TRIAL_WIDTHS for pair in pairs]
        assert len(rows) == len(cases)
        for row, (width, pair) in zip(rows, cases):
            assert row[1] == width and row[2:6] == (pair.d, pair.p, pair.q, pair.alpha)
            assert row[6] == embedding_ratio(gaussian_field(grid, width), pair, TAU)
        assert fitted == max(row[7] for row in rows)

    def test_fitted_stable_under_width_refinement(self):
        assert refined_widths(TRIAL_WIDTHS) == (0.5, math.sqrt(0.5), 1.0, math.sqrt(2.0), 2.0)
        _, fitted = embedding_sweep(TRIAL_WIDTHS, self.PAIRS, TAU, GRID1)
        _, refined = embedding_sweep(refined_widths(TRIAL_WIDTHS), self.PAIRS, TAU, GRID1)
        assert abs(refined - fitted) <= 0.10 * fitted

    def test_no_blowup_toward_p_one(self):
        # ratio/S stays comparable between p = 1.05 and p = 2 rows: the
        # 1/(p-1) growth lives entirely in S
        rows, _ = embedding_sweep((1.0,), self.PAIRS, TAU, GRID1)
        low_p = max(r[7] for r in rows if r[3] == 1.05)
        mid_p = max(r[7] for r in rows if r[3] == 2.0)
        assert low_p <= 10.0 * mid_p


class TestMtFunctional:
    def test_zeros(self):
        f = gaussian_field(GRID1, 1.0)
        assert mt_functional(f, 0.0, 2.0) == 0.0
        zero = SpectralField(GRID1, np.zeros(GRID1.shape))
        assert mt_functional(zero, 0.5, 2.0) == 0.0

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_small_gamma_moment_limit(self, p):
        f = gaussian_field(GRID1, 1.0)
        m = max(math.ceil(p - 1.0), 1)
        pp = p / (p - 1.0)
        moment = lp_norm(f, pp * m) ** (pp * m) / math.factorial(m)
        for gamma in (1e-3, 1e-4):
            value = mt_functional(f, gamma, p) / gamma**m
            assert value == pytest.approx(moment, rel=1e-2)

    def test_monotone_in_gamma(self):
        f = gaussian_field(GRID1, 1.0)
        values = [mt_functional(f, g, 2.0) for g in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_overflow_guarded(self):
        f = gaussian_field(GRID1, 1.0)
        with pytest.raises(ValueError, match="gamma"):
            mt_functional(f, 1e6, 2.0)

    def test_integrand_positive_fractional_p(self):
        f = gaussian_field(GRID1, 1.0)
        assert mt_functional(f, 0.3, 1.5) > 0.0

    def test_tail_matches_an_incomplete_gamma_oracle(self):
        # a field of ones gives z = gamma everywhere, and p = m + 1 subtracts
        # the terms k < m, so the functional is 16 times the tail
        # e^z - sum_{k<m} z^k/k! = e^z P(m, z), with P the regularized lower
        # incomplete gamma function
        ones = SpectralField(TorusGrid(1, 2), np.ones(2))
        compared = 0
        for m in (1, 2, 3, 5, 10, 20, 50, 100, 170, 171, 172, 300, 500, 699, 700):
            zs = {0.0, 1e-3, 0.5, 1.0, 1.0001, 1.01, 2.0, 5.0, 10.0, 21.0, 50.0, 100.0, 171.0, 300.0, 500.0}
            zs |= {698.0, 699.0, 700.0, max(m - 0.5, 0.0), float(m), min(m + 0.5, 700.0)}
            for z in sorted(zs):
                tail = mt_functional(ones, z, m + 1.0) / BOX_LENGTH
                with mpmath.workdps(40):
                    oracle = float(mpmath.gammainc(m, 0, z, regularized=True) * mpmath.exp(z))
                if oracle == 0.0:
                    assert tail == 0.0, (m, z)
                elif sys.float_info.min <= oracle <= sys.float_info.max:
                    assert tail == pytest.approx(oracle, rel=1e-12), (m, z)
                    compared += 1
        assert compared > 200

    def test_large_p_stays_nonnegative_and_finite(self):
        # a partial sum subtracted from exp cancelled to -5.5e-17 at p = 21,
        # and m! overflowed a float past p = 171
        f = gaussian_field(TorusGrid(1, 128), 1.0)
        assert mt_functional(f, 1.01, 21.0) >= 0.0
        for p in (172.0, 1e4, 1e300, sys.float_info.max):
            value = mt_functional(f, 1.01, p)
            assert math.isfinite(value) and value >= 0.0, p
        with pytest.raises(ValueError, match="p in"):
            mt_functional(f, 1.01, math.inf)


class TestInterpolationCheck:
    def test_boundary_exact(self):
        f = gaussian_field(GRID1, 1.0)
        for boundary in (0.0, 1.0):
            _, _, ratio = interpolation_check(f, 2.0, 1.0, boundary, TAU)
            assert ratio == 1.0

    def test_p2_bound(self):
        for width in (0.5, 1.0, 2.0):
            f = gaussian_field(GRID1, width)
            for th in (0.25, 0.5, 0.75):
                _, _, ratio = interpolation_check(f, 2.0, 1.0, th, TAU)
                assert ratio <= 1.0 + 1e-9

    def test_p4_finite(self):
        f = gaussian_field(GRID1, 1.0)
        _, _, ratio = interpolation_check(f, 4.0, 1.0, 0.5, TAU)
        assert math.isfinite(ratio) and ratio > 0.0


class TestGagliardoCheck:
    PAIR = ExponentPair(2.0, 0.25, 1)  # q = 4

    def test_homogeneous(self):
        f = gaussian_field(GRID1, 1.0)
        lhs, rhs = gagliardo_interp_check(f, self.PAIR, TAU)
        g = SpectralField(GRID1, 3.0 * np.asarray(f.values))
        lhs2, rhs2 = gagliardo_interp_check(g, self.PAIR, TAU)
        assert lhs2 / rhs2 == pytest.approx(lhs / rhs, rel=1e-12)

    def test_bounded_over_widths(self):
        quotients = []
        for width in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            lhs, rhs = gagliardo_interp_check(gaussian_field(GRID1, width), self.PAIR, TAU)
            quotients.append(lhs / rhs)
        assert all(math.isfinite(q) and q > 0.0 for q in quotients)
        assert max(quotients) < 10.0

    def test_needs_positive_alpha(self):
        with pytest.raises(ValueError):
            gagliardo_interp_check(gaussian_field(GRID1, 1.0), ExponentPair(2.0, 0.0, 1), TAU)
