import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev_constants.constants import constant_report
from sobolev_constants.interpolation import assemble
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
    solve_q,
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

    def test_solver(self):
        assert solve_q(2.0, 1.0, 4) == 4.0
        assert solve_q(3.7, 0.0, 2) == 3.7
        assert solve_q(1.0, 1.0, 3) == 1.0 / (1.0 - 1.0 / 3.0)  # the endpoint p = 1
        for p, alpha, d in ((2.0, 2.0, 4), (2.0, 3.0, 4), (3.0, 0.9999999999999999, 3)):
            with pytest.raises(ValueError, match="not positive"):
                solve_q(p, alpha, d)

    @pytest.mark.parametrize(
        "p, alpha, d, message",
        [
            # 1/p - alpha/d rounds to 0 although alpha < d/p
            pytest.param(
                3.0, 0.9999999999999999, 3, "1/q = 1/p - alpha/d is not positive for p=3.0",
                id="gap-rounds-to-zero",
            ),
            pytest.param(
                2.0, 1e-310, 2, "alpha=1e-310 is too small to move q above p=2.0", id="alpha-too-small"
            ),
            pytest.param(
                1e300, math.nextafter(1e-300, 0.0), 1, "q = 1/(1/p - alpha/d) overflows for p=1e+300",
                id="q-overflows",
            ),
            pytest.param(
                1e20, 1.5e-20, 3, "p=1e+20, q=2e+20: the conjugate exponent q' = q/(q - 1) rounds to 1",
                id="conjugate-rounds-to-one",
            ),
            # usable as given, but alpha cannot move the dual's q above q'
            pytest.param(
                60648.77935417341, 2.891906369995894e-16, 284, "the dual pair (q', p')", id="dual-unusable"
            ),
        ],
    )
    def test_exponents_unusable_in_double_precision_rejected(self, p, alpha, d, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExponentPair(p, alpha, d)

    def test_predual_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            ExponentPair(2.0, 1.0, 4, None)


@st.composite
def exponent_inputs(draw):
    """(p, alpha, d) with p in (1, 1e16], d in 1..300 and alpha at 0, one
    step below d/p, d/p (1 - 10^-u), or 10^-v down to the subnormals."""
    p = draw(
        st.one_of(
            st.floats(min_value=1.0, max_value=1e16, exclude_min=True),
            st.floats(min_value=0.0, max_value=16.0).map(lambda w: 1.0 + 10.0**-w),
        ).filter(lambda p: p > 1.0)
    )
    d = draw(st.integers(min_value=1, max_value=300))
    alpha = draw(
        st.one_of(
            st.just(0.0),
            st.just(math.nextafter(d / p, 0.0)),
            st.floats(min_value=0.0, max_value=17.0).map(lambda u: d / p * (1.0 - 10.0**-u)),
            st.floats(min_value=0.0, max_value=324.0).map(lambda v: 10.0**-v),
        )
    )
    return p, alpha, d


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(exponent_inputs())
def test_pair_rules_hold_on_every_accepted_pair(inputs):
    # anything but ValueError escapes and fails the test
    try:
        pair = ExponentPair(*inputs)
    except ValueError:
        return
    assert math.isfinite(pair.q)
    assert (pair.q > pair.p) == (pair.alpha > 0.0)
    assert pair.q / (pair.q - 1.0) > 1.0
    assert pair.dual().dual() is pair
    try:
        constant_report(pair)
    except ValueError:
        pass
    if pair.alpha > 0.0:
        try:
            assemble(pair)
        except ValueError:
            pass


class TestGeometry:
    def test_tau_delta_examples(self):
        assert tau_delta(GroupGeometry(D=0.0, b=4.0)) == 1.0
        assert tau_delta(GroupGeometry(D=1.0, b=4.0)) == pytest.approx(4.5, rel=1e-15)
        assert tau_delta(GroupGeometry(D=1.0, b=4.0, c_delta=4.0)) == 1.0
        assert GroupGeometry(D=1.0, b=4.0).shift_threshold == pytest.approx(4.5, rel=1e-15)

    def test_tau_delta_enables_global_decay(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            g = GroupGeometry(
                D=float(rng.uniform(0.0, 5.0)),
                b=float(math.exp(rng.uniform(-2.0, 2.0))),
                c_delta=float(rng.uniform(0.0, 4.0)),
            )
            t = tau_delta(g)
            assert t >= 1.0
            a = t + 0.25 * g.c_delta**2
            assert 0.5 * math.sqrt(2.0 * a * g.b) >= (2.0 * g.D + g.b0) * (1.0 - 1e-12)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            GroupGeometry(b=0.0)
        with pytest.raises(ValueError):
            GroupGeometry(D=-1.0)
        with pytest.raises(ValueError):
            GroupGeometry(c_delta=-1.0)

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
