import math

import numpy as np
import pytest
from hypothesis import given, settings

from sobolev_constants import interpolation
from sobolev_constants.interpolation import (
    MarcinkiewiczData,
    assemble,
    assemble_array,
    assembled_bound,
    endpoints,
    m0,
    m0_bound,
    m0_tail_term,
    m1,
    m1_bound,
    m2,
    m2_theta_bound,
    theta,
    weak_sup_factor,
)
from sobolev_constants.kernel import CutoffSchedule
from sobolev_constants.params import (
    ExponentArrays,
    ExponentPair,
    conjugate_exponent,
    default_grid,
    make_grid,
    refine_grid,
)

from test_params import assert_matches_scalar, pair_inputs

PAIR = ExponentPair(2.0, 1.0, 4)  # q = 4

# frozen high-precision values for the reference pair (direct evaluation of
# the defining expressions at 30 digits)
M0_REF = 5.66534994303296849
M2_REF = 0.891821155246625141
ASSEMBLED_REF = 1.39028762836104998


def grid_pairs():
    return [p for p in make_grid(default_grid()) if p.alpha > 0.0]


def weak_type_constant(p_t: float, alpha: float, d: int) -> float:
    """Shape of the weak-(p, q) norm of convolution with the singular kernel
    piece (prefactor normalized to 1), with 1/q = 1/p - alpha/d:

        alpha^{p alpha/d - 1} (q/(d p'))^{(p - 1) alpha/d}   for p > 1,
        alpha^{-1/q}                                          at p = 1.
    """
    q_t = CutoffSchedule(p_t, alpha, d).q_t  # checks 0 < alpha < d, p >= 1 and alpha < d/p
    if p_t == 1.0:
        return alpha ** (-1.0 / q_t)
    pp = conjugate_exponent(p_t)
    return alpha ** (p_t * alpha / d - 1.0) * (q_t / (d * pp)) ** ((p_t - 1.0) * alpha / d)


class TestWeakTypeConstant:
    def test_endpoint_example(self):
        assert weak_type_constant(1.0, 1.0, 4) == 1.0
        assert weak_type_constant(1.0, 2.0, 4) == pytest.approx(2.0**-0.5, rel=1e-15)  # q = 2

    def test_interior_example(self):
        assert weak_type_constant(2.0, 1.0, 4) == pytest.approx(2.0**-0.25, rel=1e-14)

    def test_matches_endpoint_limit(self):
        near = weak_type_constant(1.0 + 1e-6, 1.0, 4)
        at = weak_type_constant(1.0, 1.0, 4)
        assert near == pytest.approx(at, abs=1e-4)

    def test_scaling_violation_rejected(self):
        # no q solves 1/q = 1/p - alpha/d > 0 once alpha >= d/p
        for p, alpha, d in ((2.0, 2.0, 4), (2.0, 3.0, 4), (3.0, 0.9999999999999999, 3)):
            with pytest.raises(ValueError, match="not positive"):
                weak_type_constant(p, alpha, d)
        with pytest.raises(ValueError):
            weak_type_constant(0.5, 1.0, 4)
        with pytest.raises(ValueError):
            weak_type_constant(2.0, 4.0, 4)  # alpha = d


class TestEndpoints:
    def test_reference_values(self):
        p1, q1, p2, q2 = endpoints(PAIR)
        assert p1 == 1.0
        assert q1 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert p2 == pytest.approx(20.0 / 9.0, rel=1e-15)
        assert q2 == 5.0

    def test_ordering(self):
        _, _, p2, q2 = endpoints(PAIR)
        assert 1.0 < p2 < q2

    def test_q2_is_q_plus_one(self):
        for pair in grid_pairs()[::17]:
            assert endpoints(pair)[3] == pair.q + 1.0

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            endpoints(ExponentPair(2.0, 0.0, 4))


class TestTheta:
    def test_reference_value(self):
        assert theta(PAIR) == pytest.approx(10.0 / 11.0, rel=1e-15)

    def test_convex_combination_reference(self):
        th = theta(PAIR)
        assert (1.0 - th) * 1.0 + th * (9.0 / 20.0) == pytest.approx(0.5, abs=1e-15)
        assert (1.0 - th) * (3.0 / 4.0) + th * (1.0 / 5.0) == pytest.approx(0.25, abs=1e-15)

    def test_identities_on_grid(self):
        for pair in grid_pairs():
            th = theta(pair)
            assert 0.0 < th < 1.0
            p1, q1, p2, q2 = endpoints(pair)
            assert abs(1.0 / pair.p - ((1.0 - th) / p1 + th / p2)) <= 1e-10
            assert abs(1.0 / pair.q - ((1.0 - th) / q1 + th / q2)) <= 1e-10


class TestComponentNorms:
    def test_m1_examples(self):
        assert m1(1.0, 4) == 1.0
        assert m1(0.5, 2) == pytest.approx(0.5**-0.75, rel=1e-14)
        assert m1(2.0, 4) == pytest.approx(2.0**-0.5, rel=1e-14)

    def test_m1_bound_on_grid(self):
        for pair in grid_pairs():
            assert m1(pair.alpha, pair.d) <= m1_bound(pair.alpha, pair.d) * (1.0 + 1e-12)

    def test_m1_is_endpoint_weak_type_shape(self):
        for pair in grid_pairs()[::11]:
            assert m1(pair.alpha, pair.d) == pytest.approx(
                weak_type_constant(1.0, pair.alpha, pair.d), rel=1e-12
            )

    def test_m2_reference(self):
        assert m2(PAIR) == pytest.approx(M2_REF, rel=1e-12)

    def test_m2_matches_weak_type_substitution(self):
        # independent log-space route: plug the upper endpoint pair into the
        # general weak-type shape
        for pair in grid_pairs():
            p2 = endpoints(pair)[2]
            direct = weak_type_constant(p2, pair.alpha, pair.d)
            assert m2(pair) == pytest.approx(direct, rel=1e-11)

    def test_m2_theta_bound_on_grid(self):
        pairs = make_grid(default_grid())
        thetas = np.array([theta(pair) for pair in pairs])
        for pair, th, bound in zip(pairs, thetas.tolist(), m2_theta_bound(pairs, thetas).tolist()):
            value = math.exp(th * math.log(m2(pair)))
            assert value <= bound * (1.0 + 1e-12)

    def test_m2_finite_near_alpha_limit(self):
        pair = ExponentPair(2.0, 0.4999999, 1)
        assert math.isfinite(m2(pair))

    def test_m0_reference(self):
        assert m0(PAIR) == pytest.approx(M0_REF, rel=1e-12)

    def test_m0_endpoint_guard_is_value_error(self, monkeypatch):
        # unreachable through endpoints(); forced here so the guard is exercised
        monkeypatch.setattr(interpolation, "endpoints", lambda pair: (1.0, 5.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="strictly between"):
            m0(PAIR)

    def test_m0_second_term_closed_form(self):
        # (q/p^{q1})/(q - q1) equals p^{-p'q/(q+p')}(1 + p'/q) identically
        for pair in grid_pairs()[::7]:
            _, q1, _, _ = endpoints(pair)
            second = pair.q * math.exp(-q1 * math.log(pair.p)) / (pair.q - q1)
            tail = m0_tail_term(np.array([pair.p]), np.array([pair.q]))
            assert second == pytest.approx(tail[0], rel=1e-11)

    def test_m0_bound_and_positivity_on_grid(self):
        pairs = make_grid(default_grid())
        for pair, bound in zip(pairs, m0_bound(pairs).tolist()):
            value = m0(pair)
            assert value > 0.0
            assert value <= bound * (1.0 + 1e-12)


class TestAssemble:
    def test_reference_assembly(self):
        md = assemble(PAIR)
        assert isinstance(md, MarcinkiewiczData)
        assert md.assembled == pytest.approx(ASSEMBLED_REF, rel=1e-12)
        assert md.ipq_rhs_shape == pytest.approx(12.0, rel=1e-14)
        assert md.ratio == pytest.approx(ASSEMBLED_REF / 12.0, rel=1e-12)

    def test_final_bound_on_grid(self):
        worst = 0.0
        pairs = make_grid(default_grid())
        for pair, bound in zip(pairs, assembled_bound(pairs).tolist()):
            md = assemble(pair)
            assert md.assembled <= bound * (1.0 + 1e-12)
            worst = max(worst, md.assembled / bound)
        assert worst < 1.0

    def test_ratio_finite_on_grid(self):
        ratios = [assemble(pair).ratio for pair in grid_pairs()]
        assert all(math.isfinite(r) and r > 0.0 for r in ratios)


class TestWeakSupFactor:
    def test_reaches_one_from_below(self):
        for (p, q) in ((2.0, 4.0), (1.1, 20.0), (3.0, 3.5), (1.5, 30.0)):
            v = weak_sup_factor(p, q)
            assert v <= 1.0 + 1e-12
            assert v >= 1.0 - 1e-6

    def test_value_at_one_is_below_one(self):
        for (p, q) in ((2.0, 4.0), (1.5, 6.0)):
            pp = conjugate_exponent(p)
            c = 1.0 - p / q
            at_one = 1.0 ** (c) * (1.0 + 1.0**pp) ** (-(c / pp))
            assert at_one == pytest.approx(2.0 ** (-(c / pp)), rel=1e-14)
            assert at_one < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            weak_sup_factor(2.0, 2.0)
        with pytest.raises(ValueError):
            weak_sup_factor(0.9, 2.0)


MARCINKIEWICZ_FIELDS = ("q1", "p2", "q2", "theta", "m0", "m1", "m2", "assembled", "ipq_rhs_shape")


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(pair_inputs)
def test_array_assembly_ratio_matches_assemble(inputs):
    try:
        pair = ExponentPair(*inputs)
    except ValueError:
        return
    md = assemble_array(ExponentArrays(*([v] for v in inputs)))
    assert_matches_scalar(lambda: assemble(pair).ratio, md.ratio[0])
    if not math.isnan(md.ratio[0]):
        expected = assemble(pair)
        for name in MARCINKIEWICZ_FIELDS:
            assert getattr(md, name)[0] == pytest.approx(getattr(expected, name), rel=1e-14), name


def test_array_assembly_ratio_matches_assemble_on_the_refined_grid():
    pairs = make_grid(refine_grid(default_grid()))
    md = assemble_array(pairs)
    for i, pair in enumerate(pairs):
        expected = assemble(pair)
        for name in MARCINKIEWICZ_FIELDS + ("ratio",):
            assert getattr(md, name)[i] == pytest.approx(getattr(expected, name), rel=1e-14), name
