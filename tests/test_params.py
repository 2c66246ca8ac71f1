import math

import numpy as np
import pytest

from sobolev_constants.params import (
    ExponentPair,
    GroupGeometry,
    ParameterGrid,
    conjugate_exponent,
    default_grid,
    grid_fingerprint,
    make_grid,
    read_grid_config,
    refine_grid,
    s_chi,
    tau_chi,
    tau_delta,
)


def random_pairs(count, seed=7):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = int(rng.integers(1, 5))
        p = 1.0 + math.exp(rng.uniform(math.log(0.02), math.log(50.0)))
        frac = float(rng.uniform(0.01, 0.99))
        out.append(ExponentPair(p, frac * d / p, d))
    return out


class TestConjugateExponent:
    def test_examples(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert conjugate_exponent(1.5) == pytest.approx(3.0, rel=1e-15)

    def test_domain(self):
        for bad in (1.0, 0.5, -2.0, float("inf")):
            with pytest.raises(ValueError):
                conjugate_exponent(bad)

    def test_involutive(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = 1.0 + math.exp(rng.uniform(-4.0, 4.0))
            assert conjugate_exponent(conjugate_exponent(p)) == pytest.approx(p, rel=1e-14)


class TestExponentPair:
    def test_sobolev_pair_examples(self):
        assert ExponentPair(2.0, 1.0, 4).q == pytest.approx(4.0, rel=1e-15)
        assert ExponentPair(2.0, 0.0, 3).q == 2.0
        assert ExponentPair(1.5, 1.0, 3).q == pytest.approx(3.0, rel=1e-15)

    def test_alpha_at_or_above_limit_rejected(self):
        with pytest.raises(ValueError):
            ExponentPair(2.0, 2.0, 4)
        with pytest.raises(ValueError):
            ExponentPair(2.0, 2.5, 4)

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            ExponentPair(1.0, 0.1, 2)
        with pytest.raises(ValueError):
            ExponentPair(2.0, -0.1, 2)
        with pytest.raises(ValueError):
            ExponentPair(2.0, 0.1, 0)

    def test_scaling_relation_tight(self):
        for pair in random_pairs(10_000):
            assert abs(1.0 / pair.q - 1.0 / pair.p + pair.alpha / pair.d) <= 1e-12

    def test_alpha_zero_iff_p_equals_q(self):
        assert ExponentPair(3.7, 0.0, 2).q == 3.7
        for pair in random_pairs(100):
            assert (pair.alpha == 0.0) == (pair.p == pair.q)

    def test_dual_swaps_conjugates(self):
        pair = ExponentPair(2.0, 1.0, 4)
        dual = pair.dual()
        assert dual.p == pytest.approx(pair.q_conj, rel=1e-15)
        assert dual.q == pytest.approx(pair.p_conj, rel=1e-14)
        assert dual.alpha == pair.alpha and dual.d == pair.d

    def test_dual_involution_exact(self):
        for pair in random_pairs(10_000, seed=13):
            back = pair.dual().dual()
            assert back is pair
            assert (back.p, back.q, back.alpha, back.d) == (pair.p, pair.q, pair.alpha, pair.d)


class TestGeometry:
    def test_tau_delta_examples(self):
        assert tau_delta(GroupGeometry(d=3, D=0.0, b=4.0)) == 1.0
        assert tau_delta(GroupGeometry(d=3, D=1.0, b=4.0)) == pytest.approx(4.5, rel=1e-15)
        assert tau_delta(GroupGeometry(d=3, D=1.0, b=4.0, c_delta=4.0)) == 1.0
        assert GroupGeometry(d=3, D=1.0, b=4.0).shift_threshold == pytest.approx(4.5, rel=1e-15)

    def test_tau_delta_enables_global_decay(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            g = GroupGeometry(
                d=2,
                D=float(rng.uniform(0.0, 5.0)),
                b=float(math.exp(rng.uniform(-2.0, 2.0))),
                c_delta=float(rng.uniform(0.0, 4.0)),
            )
            t = tau_delta(g)
            assert t >= 1.0
            a = t + 0.25 * g.c_delta**2
            assert 0.5 * math.sqrt(2.0 * a * g.b) >= (2.0 * g.D + g.b0) * (1.0 - 1e-12)

    def test_tau_chi_reduces_to_tau_delta(self):
        g = GroupGeometry(d=3, D=1.0, b=4.0, c_delta=0.7, c_chi=0.7, c_delta_chi_inv=0.0)
        assert tau_chi(g) == tau_delta(g)

    def test_tau_chi_examples(self):
        g = GroupGeometry(d=3, D=1.0, b=4.0, c_delta_chi_inv=1.0, c_chi=0.0)
        assert tau_chi(g) == pytest.approx(8.0, rel=1e-15)
        clamp = GroupGeometry(d=3, D=0.0, b=1.0, c_delta_chi_inv=0.0, c_chi=10.0)
        assert tau_chi(clamp) == 1.0

    def test_s_chi(self):
        assert s_chi(0.0) == 1.0
        assert s_chi(1.0) == pytest.approx(math.e, rel=1e-15)
        assert s_chi(math.log(2.0)) == pytest.approx(2.0, rel=1e-15)
        with pytest.raises(ValueError):
            s_chi(-0.5)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            GroupGeometry(d=0)
        with pytest.raises(ValueError):
            GroupGeometry(b=0.0)
        with pytest.raises(ValueError):
            GroupGeometry(D=-1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"D": 1e200}, {"b": 1e-320}, {"D": 1e154, "b": 1e-10}, {"c_delta": 1e200}]
    )
    def test_overflowing_shift_threshold_rejected(self, kwargs):
        # a square overflows (a raw OverflowError) or 2/b is inf
        with pytest.raises(ValueError, match="shift threshold"):
            GroupGeometry(**kwargs)


class TestGrid:
    def test_single_cell(self):
        grid = ParameterGrid((2.0,), (0.5,), (4,))
        pairs = make_grid(grid)
        assert len(pairs) == 1
        pair = pairs[0]
        assert (pair.p, pair.alpha, pair.d) == (2.0, 1.0, 4)
        assert pair.q == pytest.approx(4.0)

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid((2.0,), (0.0,), (3,))
        with pytest.raises(ValueError):
            ParameterGrid((2.0,), (1.0,), (3,))

    def test_fractional_d_rejected_not_truncated(self):
        for bad in (2.7, 0.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="integers"):
                ParameterGrid((2.0,), (0.5,), (bad,))
        assert ParameterGrid((2.0,), (0.5,), (2.0,)).d_values == (2,)

    def test_product_order(self):
        grid = ParameterGrid((1.5, 2.0), (0.5,), (2, 3))
        pairs = make_grid(grid)
        assert len(pairs) == 4
        keys = [(pr.d, pr.p, pr.alpha) for pr in pairs]
        assert keys == sorted(keys)

    def test_empty_grid_error(self):
        with pytest.raises(ValueError):
            make_grid(ParameterGrid((), (), ()))

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid.p_values) == 13
        assert len(grid.alpha_fractions) == 9
        assert grid.d_values == (1, 2, 3, 4)
        assert grid.p_values[0] == pytest.approx(1.05)
        assert grid.p_values[-1] == pytest.approx(16.0)
        assert len(make_grid(grid)) == 13 * 9 * 4

    def test_refine_grid_nests(self):
        grid = default_grid()
        refined = refine_grid(grid)
        assert set(grid.p_values) <= set(refined.p_values)
        assert set(grid.alpha_fractions) <= set(refined.alpha_fractions)
        assert len(refined.p_values) == 25
        assert len(refined.alpha_fractions) == 17

    def test_fingerprint_tracks_grid(self):
        a = grid_fingerprint(default_grid())
        b = grid_fingerprint(default_grid())
        c = grid_fingerprint(refine_grid(default_grid()))
        assert a == b
        assert a != c


class TestGridConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "# sweep axes\n"
            "p_values = 1.5, 2, 4\n"
            "alpha_fractions = 0.25, 0.5\n"
            "d_values = 1, 3\n"
        )
        grid = read_grid_config(path)
        assert grid.p_values == (1.5, 2.0, 4.0)
        assert grid.alpha_fractions == (0.25, 0.5)
        assert grid.d_values == (1, 3)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("p_values = 2\nalpha_fractions = 0.5\n")
        with pytest.raises(ValueError, match="d_values"):
            read_grid_config(path)

    def test_bad_decimal(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("p_values = two\nalpha_fractions = 0.5\nd_values = 1\n")
        with pytest.raises(ValueError, match="bad decimal"):
            read_grid_config(path)
