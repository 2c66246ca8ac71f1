import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_reference as reference
from sobolev_constants.interpolation import (
    assemble,
    assembled_bound,
    m0_bound,
    m0_tail_term,
    m1_bound,
    m2_theta_bound,
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
from sobolev_constants.report import ResultTable

from test_params import pair_inputs

PAIR = ExponentArrays([2.0], [1.0], [4])  # q = 4

# frozen high-precision values for the reference pair (direct evaluation of
# the defining expressions at 30 digits)
M0_REF = 5.66534994303296849
M2_REF = 0.891821155246625141
ASSEMBLED_REF = 1.39028762836104998


def grid_assembly():
    """The default grid's pairs, all with alpha > 0, and their assembly table."""
    pairs = make_grid(default_grid())
    return pairs, assemble(pairs)


def endpoints(pairs: ExponentArrays):
    """The endpoint exponents (q1, p2, q2) of each pair, p1 being 1."""
    ad = pairs.alpha / pairs.d
    q2 = pairs.q + 1.0
    return 1.0 / (1.0 - ad), 1.0 / (ad + 1.0 / q2), q2


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
        # endpoints (1, 4/3) and (20/9, 5): both identities hold to rounding
        table = assemble(PAIR)
        assert table.column("identity_err_p")[0] <= 1e-15
        assert table.column("identity_err_q")[0] <= 1e-15
        q1, p2, q2 = endpoints(PAIR)
        assert (q1[0], p2[0], q2[0]) == pytest.approx((4.0 / 3.0, 20.0 / 9.0, 5.0), rel=1e-15)

    def test_ordering(self):
        # (1, q1) and (p2, q2) flank (p, q) at every grid pair
        pairs = grid_assembly()[0]
        q1, p2, q2 = endpoints(pairs)
        assert np.all((1.0 < pairs.p) & (pairs.p < p2) & (p2 < q2))
        assert np.all((q1 < pairs.q) & (pairs.q < q2))

    def test_q2_is_q_plus_one(self):
        # the identity columns are those of the endpoints (1, q1) and (p2, q + 1)
        pairs, table = grid_assembly()
        th = table.column("theta")
        q1, p2, q2 = endpoints(pairs)
        assert np.array_equal(table.column("identity_err_p"), np.abs(1.0 / pairs.p - ((1.0 - th) + th / p2)))
        assert np.array_equal(table.column("identity_err_q"), np.abs(1.0 / pairs.q - ((1.0 - th) / q1 + th / q2)))
        assert np.all(table.column("pass"))

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError, match=re.escape("alpha > 0")):
            assemble(ExponentArrays([2.0], [0.0], [4]))


class TestTheta:
    def test_reference_value(self):
        assert assemble(PAIR).column("theta")[0] == pytest.approx(10.0 / 11.0, rel=1e-15)

    def test_convex_combination_reference(self):
        th = assemble(PAIR).column("theta")[0]
        assert (1.0 - th) * 1.0 + th * (9.0 / 20.0) == pytest.approx(0.5, abs=1e-15)
        assert (1.0 - th) * (3.0 / 4.0) + th * (1.0 / 5.0) == pytest.approx(0.25, abs=1e-15)

    def test_identities_on_grid(self):
        pairs, table = grid_assembly()
        th = table.column("theta")
        q1, p2, q2 = endpoints(pairs)
        assert np.all((0.0 < th) & (th < 1.0))
        assert np.all(np.abs(1.0 / pairs.p - ((1.0 - th) + th / p2)) <= 1e-10)
        assert np.all(np.abs(1.0 / pairs.q - ((1.0 - th) / q1 + th / q2)) <= 1e-10)


class TestComponentNorms:
    def test_m1_examples(self):
        # m1 depends on alpha and d only; each p lies below d/alpha
        m1 = assemble(ExponentArrays([2.0, 2.0, 1.5], [1.0, 0.5, 2.0], [4, 2, 4])).column("m1")
        assert m1[0] == 1.0
        assert m1[1] == pytest.approx(0.5**-0.75, rel=1e-14)
        assert m1[2] == pytest.approx(2.0**-0.5, rel=1e-14)

    def test_m1_bound_on_grid(self):
        pairs, table = grid_assembly()
        assert np.all(table.column("m1") <= m1_bound(pairs.alpha, pairs.d) * (1.0 + 1e-12))

    def test_m1_is_endpoint_weak_type_shape(self):
        pairs, table = grid_assembly()
        for i in range(0, len(pairs), 11):
            expected = weak_type_constant(1.0, float(pairs.alpha[i]), int(pairs.d[i]))
            assert table.column("m1")[i] == pytest.approx(expected, rel=1e-12)

    def test_m2_reference(self):
        assert assemble(PAIR).column("m2")[0] == pytest.approx(M2_REF, rel=1e-12)

    def test_m2_matches_weak_type_substitution(self):
        # independent log-space route: plug the upper endpoint pair into the
        # general weak-type shape
        pairs, table = grid_assembly()
        p2 = endpoints(pairs)[1]
        for i in range(len(pairs)):
            direct = weak_type_constant(float(p2[i]), float(pairs.alpha[i]), int(pairs.d[i]))
            assert table.column("m2")[i] == pytest.approx(direct, rel=1e-11)

    def test_m2_theta_bound_on_grid(self):
        pairs, table = grid_assembly()
        th = table.column("theta")
        value = np.exp(th * np.log(table.column("m2")))
        assert np.all(value <= m2_theta_bound(pairs, th) * (1.0 + 1e-12))

    def test_m2_finite_near_alpha_limit(self):
        assert math.isfinite(assemble(ExponentArrays([2.0], [0.4999999], [1])).column("m2")[0])

    def test_m0_reference(self):
        assert assemble(PAIR).column("m0")[0] == pytest.approx(M0_REF, rel=1e-12)

    def test_m0_second_term_closed_form(self):
        # (q/p^{q1})/(q - q1) equals p^{-p'q/(q+p')}(1 + p'/q) identically
        pairs = grid_assembly()[0]
        tail = m0_tail_term(pairs.p, pairs.q)
        q1 = endpoints(pairs)[0]
        for i in range(0, len(pairs), 7):
            p, q = float(pairs.p[i]), float(pairs.q[i])
            second = q * math.exp(-float(q1[i]) * math.log(p)) / (q - float(q1[i]))
            assert second == pytest.approx(tail[i], rel=1e-11)

    def test_m0_bound_and_positivity_on_grid(self):
        pairs, table = grid_assembly()
        m0 = table.column("m0")
        assert np.all(m0 > 0.0)
        assert np.all(m0 <= m0_bound(pairs) * (1.0 + 1e-12))


class TestAssemble:
    def test_reference_assembly(self):
        table = assemble(PAIR)
        assert isinstance(table, ResultTable) and table.name == "marcinkiewicz"
        assert table.columns == (
            "d", "p", "q", "alpha", "theta", "m0", "m1", "m2", "assembled", "ipq_rhs_shape", "ratio",
            "identity_err_p", "identity_err_q", "pass",
        )
        assert table.column("assembled")[0] == pytest.approx(ASSEMBLED_REF, rel=1e-12)
        assert table.column("ipq_rhs_shape")[0] == pytest.approx(12.0, rel=1e-14)
        assert table.column("ratio")[0] == pytest.approx(ASSEMBLED_REF / 12.0, rel=1e-12)

    def test_final_bound_on_grid(self):
        pairs, table = grid_assembly()
        bound = assembled_bound(pairs)
        assert np.all(table.column("assembled") <= bound * (1.0 + 1e-12))
        assert float(np.max(table.column("assembled") / bound)) < 1.0

    def test_ratio_finite_on_grid(self):
        ratios = grid_assembly()[1].column("ratio")
        assert np.all(np.isfinite(ratios) & (ratios > 0.0))


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


MARCINKIEWICZ_FIELDS = ("theta", "m0", "m1", "m2", "assembled", "ipq_rhs_shape", "ratio")


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(pair_inputs)
def test_array_assembly_ratio_matches_assemble(inputs):
    try:
        pair = ExponentPair(*inputs)
    except ValueError:
        return
    pairs = ExponentArrays(*([v] for v in inputs))
    try:
        expected = reference.assemble(pair)
    except (ValueError, ArithmeticError) as exc:
        # the array form refuses the pair for the reference's reason, and names it
        reason = str(exc).split(f" for {pair}")[0]
        if reason.startswith("math "):  # a raw math error of the reference
            reason = "math range or domain error in the assembly"
        with pytest.raises(ValueError, match=re.escape(f"{reason} for {pair}")):
            assemble(pairs)
        return
    table = assemble(pairs)
    for name in MARCINKIEWICZ_FIELDS:
        assert table.column(name)[0] == pytest.approx(getattr(expected, name), rel=1e-14), name


def test_array_assembly_ratio_matches_assemble_on_the_refined_grid():
    pairs = make_grid(refine_grid(default_grid()))
    table = assemble(pairs)
    for i, pair in enumerate(pairs):
        expected = reference.assemble(pair)
        for name in MARCINKIEWICZ_FIELDS:
            assert table.column(name)[i] == pytest.approx(getattr(expected, name), rel=1e-14), name


def assembly_oracle(p: float, alpha: float, d: int) -> dict:
    """theta, m0, m1, m2, the assembled constant and its ratio to the target
    shape, from their defining expressions at 40 digits, with q and the
    endpoints (1, q1) and (p2, q2), which flank (p, q), solved from the same
    (p, alpha, d)."""
    with mp.workdps(40):
        p, a, d = mp.mpf(p), mp.mpf(alpha), mp.mpf(d)
        ad = a / d
        q = 1 / (1 / p - ad)
        q1, q2 = 1 / (1 - ad), q + 1
        p2 = 1 / (ad + 1 / q2)
        assert 1 < p < p2 < q2 and q1 < q < q2
        theta = (1 - 1 / p) / (1 - ad - 1 / q2)
        m0 = q * (p2 / p) ** (q2 / p2) / (q2 - q) + q / p**q1 / (q - q1)
        m1 = a ** -(1 - ad)
        e1 = ad / (ad + 1 / q2)
        m2 = d**ad / a * ad**e1 * ((1 - ad - 1 / q2) * q2) ** (e1 - ad)
        assembled = m0 ** (1 / q) * m1 ** (1 - theta) * m2**theta
        rhs_shape = (d - a) / a * (p / (p - 1)) * q ** (1 - 1 / p)
        values = {"theta": theta, "m0": m0, "m1": m1, "m2": m2, "assembled": assembled}
        values["ratio"] = assembled / rhs_shape
        return {name: float(v) for name, v in values.items()}


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(
    st.floats(min_value=0.05, max_value=15.0),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=1, max_value=4),
)
def test_assembly_matches_a_40_digit_oracle(p_minus_one, fraction, d):
    # inside the default grid's span; near p = 1 the double 1 - 1/p cancels
    p = 1.0 + p_minus_one
    alpha = fraction * d / p
    table = assemble(ExponentArrays([p], [alpha], [d]))
    for name, expected in assembly_oracle(p, alpha, d).items():
        assert table.column(name)[0] == pytest.approx(expected, rel=1e-13), name
    assert table.column("identity_err_p")[0] <= 1e-10 and table.column("identity_err_q")[0] <= 1e-10
