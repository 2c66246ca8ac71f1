import math

import numpy as np
import pytest

from sobolev_constants.params import ExponentPair, GroupGeometry, tau_delta
from sobolev_constants.spectral import (
    BOX_LENGTH,
    SpectralField,
    TorusGrid,
    TrialFamily,
    bessel_apply,
    embedding_ratio,
    embedding_sweep,
    gagliardo_interp_check,
    gaussian_field,
    interpolation_check,
    lp_norm,
    mt_functional,
)

TAU = tau_delta(GroupGeometry())  # 12.5 for the default geometry
GRID1 = TorusGrid(1, 256)
GRID2 = TorusGrid(2, 64)

# reference embedding ratio (gaussian width 1, p=2 -> q=4 at d=2), frozen from
# a two-resolution run that agreed to within 1 percent
EMBED_RATIO_2D = 0.329618360463


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

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValueError):
            bessel_apply(gaussian_field(GRID1, 1.0), 0.5, 1.0)


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
        family = TrialFamily((0.5, 1.0, 2.0))
        rows, fitted = embedding_sweep(family, self.PAIRS, TAU, GRID1)
        assert len(rows) == len(family.widths) * len(self.PAIRS)
        assert all(math.isfinite(r[6]) and r[6] > 0.0 for r in rows)
        assert 0.0 < fitted < 10.0

    def test_fitted_stable_under_width_refinement(self):
        family = TrialFamily((0.5, 1.0, 2.0))
        _, fitted = embedding_sweep(family, self.PAIRS, TAU, GRID1)
        _, refined = embedding_sweep(family.refined(), self.PAIRS, TAU, GRID1)
        assert abs(refined - fitted) <= 0.10 * fitted

    def test_no_blowup_toward_p_one(self):
        # ratio/S stays comparable between p = 1.05 and p = 2 rows: the
        # 1/(p-1) growth lives entirely in S
        family = TrialFamily((1.0,))
        rows, _ = embedding_sweep(family, self.PAIRS, TAU, GRID1)
        low_p = max(r[7] for r in rows if r[3] == 1.05)
        mid_p = max(r[7] for r in rows if r[3] == 2.0)
        assert low_p <= 10.0 * mid_p

    def test_family_validation(self):
        assert TrialFamily((2.0, 0.5, 1.0)).widths == (0.5, 1.0, 2.0)
        with pytest.raises(ValueError):
            TrialFamily(())
        with pytest.raises(ValueError):
            TrialFamily((1.0, -1.0))


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
