import math
import re

import mpmath as mp
import pytest
from hypothesis import given, settings

from sobolev_constants.constants import (
    b1_multiplier_bound,
    constant_report,
    f_constant,
    lieb_upper_bound,
    q_constant,
    q_dual_constant,
    s_constant,
)
from sobolev_constants.params import ExponentArrays, ExponentPair, conjugate_exponent
from sobolev_constants.series import MTSeriesSpec

from test_params import pair_inputs, random_pairs

# direct high-precision evaluation of the Euclidean bound, frozen before the build
EH_2_4_1_4 = 1.43657193253959383


def row(table) -> dict:
    """The cells of a one-row table by column name."""
    return {name: column[0] for name, column in zip(table.columns, table.cells)}


def closed_forms_oracle(p, q, alpha, d) -> dict:
    """S, Q, Q_dual, F and, for alpha > 0, E_H_tilde at 30 digits, from the
    doubles p, q, alpha and d as given (q is not re-derived from alpha)."""
    with mp.workdps(30):
        p, q, a, d = map(mp.mpf, (p, q, alpha, d))
        pp, qq = p / (p - 1), q / (q - 1)
        big_q, q_dual = q ** (1 - 1 / p) / (p - 1), pp ** (1 - 1 / qq) / (qq - 1)
        values = {
            "S": min(big_q, q_dual),
            "Q": big_q,
            "Q_dual": q_dual,
            "F": 1 / (1 / pp + 1 / q) / (p * qq) * (pp ** (1 / q) + q ** (1 / pp)),
        }
        if a > 0:
            omega = 2 * mp.pi ** (d / 2) / mp.gamma(d / 2)
            e = 1 / pp + 1 / q
            values["E_H_tilde"] = (
                (2 * mp.pi) ** (-a)
                * mp.gamma((d - a) / 2)
                / mp.gamma(a / 2)
                * (d / a)
                * (omega / d) ** (1 - a / d)
                * (1 - a / d) ** (1 - a / d)
                / (p * qq)
                * (pp**e + q**e)
            )
        return {name: float(value) for name, value in values.items()}


class TestEmbeddingFactors:
    def test_s_examples(self):
        assert s_constant(ExponentPair(2.0, 0.0, 3)) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert s_constant(ExponentPair(2.0, 1.0, 4)) == pytest.approx(2.0, rel=1e-14)
        # the dual pair gives the same value
        dual = ExponentPair(4.0 / 3.0, 1.0, 4)  # (q', alpha, d) of ExponentPair(2.0, 1.0, 4)
        assert s_constant(dual) == pytest.approx(2.0, rel=1e-13)

    def test_q_examples(self):
        assert q_constant(2.0, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert q_constant(2.0, 4.0) == pytest.approx(2.0, rel=1e-14)
        assert q_constant(4.0 / 3.0, 2.0) == pytest.approx(3.0 * 2.0**0.25, rel=1e-14)

    def test_f_examples(self):
        assert f_constant(2.0, 2.0) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)
        assert f_constant(2.0, 4.0) == pytest.approx(0.5 * (2.0**0.25 + 2.0), rel=1e-14)
        assert f_constant(4.0 / 3.0, 2.0) == pytest.approx(f_constant(2.0, 4.0), rel=1e-14)

    def test_duality_symmetry_random(self):
        for pair in random_pairs(10_000, seed=3):
            dual = ExponentPair(conjugate_exponent(pair.q), pair.alpha, pair.d)
            s1, s2 = s_constant(pair), s_constant(dual)
            assert abs(s1 - s2) <= 1e-12 * s1
            f1 = f_constant(pair.p, pair.q)
            f2 = f_constant(dual.p, dual.q)
            assert abs(f1 - f2) <= 1e-12 * f1

    def test_report_consistency(self):
        pair = ExponentPair(2.0, 1.0, 4)
        report = row(constant_report(pair))
        assert report["S"] == min(report["Q"], report["Q_dual"])
        assert report["E_H_tilde"] == pytest.approx(EH_2_4_1_4, rel=1e-12)
        assert report["ratio_EH_over_S"] == pytest.approx(EH_2_4_1_4 / 2.0, rel=1e-12)
        flat = row(constant_report(ExponentPair(2.0, 0.0, 4)))
        assert flat["E_H_tilde"] is None and flat["ratio_EH_over_S"] is None


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(pair_inputs)
def test_closed_forms_match_mpmath_for_a_pair_and_for_arrays(inputs):
    # the oracle reads each pair's own doubles p and q, so q's own rounding
    # near the scaling edge is not charged to the closed forms
    try:
        pair = ExponentPair(*inputs)
    except ValueError:
        return
    pairs = ExponentArrays(*([v] for v in inputs))
    dual = ExponentPair(conjugate_exponent(pair.q), pair.alpha, pair.d)
    for one, many in ((pair, pairs), (dual, pairs.dual())):
        expected = closed_forms_oracle(one.p, one.q, one.alpha, one.d)
        try:
            lieb_upper_bound(one)
        except ValueError as exc:  # the arrays refuse with the pair's message
            for form in (lieb_upper_bound, constant_report):
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    form(many)
            expected.pop("E_H_tilde", None)
        for number_type, first in ((one, lambda v: v), (many, lambda v: v[0])):
            p, q = number_type.p, number_type.q
            got = {"S": s_constant(number_type), "Q": q_constant(p, q), "Q_dual": q_dual_constant(p, q)}
            got["F"] = f_constant(p, q)
            if "E_H_tilde" in expected:
                got["E_H_tilde"] = lieb_upper_bound(number_type)
            got = {name: first(value) for name, value in got.items()}
            if "E_H_tilde" in expected:  # the table holds the same numbers
                report = row(constant_report(number_type))
                assert {name: report[name] for name in got} == got
            for name, value in got.items():
                rel = 1e-11 if name == "E_H_tilde" else 1e-12
                assert value == pytest.approx(expected[name], rel=rel), (name, number_type)


class TestLiebUpperBound:
    def test_frozen_value(self):
        assert lieb_upper_bound(ExponentPair(2.0, 1.0, 4)) == pytest.approx(EH_2_4_1_4, rel=1e-12)

    def test_ratio_example(self):
        pair = ExponentPair(2.0, 1.0, 4)
        ratio = lieb_upper_bound(pair) / s_constant(pair)
        assert ratio == pytest.approx(0.718, abs=1e-3)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            lieb_upper_bound(ExponentPair(2.0, 0.0, 4))

    def test_underflow_raises(self):
        # mpmath gives about 1e-468 near this point: below the double range
        with pytest.raises(ValueError, match="leaves double range"):
            lieb_upper_bound(ExponentPair(1.05, 257.0, 300))

    def test_matches_direct_high_precision(self):
        for pair in random_pairs(50, seed=21):
            if pair.alpha == 0.0:
                continue
            ref = closed_forms_oracle(pair.p, pair.q, pair.alpha, pair.d)["E_H_tilde"]
            assert lieb_upper_bound(pair) == pytest.approx(ref, rel=1e-11)


class TestThresholds:
    # gamma_1 = [e (cp a1 (p' - 1))^{p'} p']^{-1} is MTSeriesSpec.threshold at c = cp a1 (p' - 1)
    def test_gamma_one_examples(self):
        assert MTSeriesSpec(2.0, 1.0).threshold == pytest.approx(1.0 / (2.0 * math.e), rel=1e-14)
        assert MTSeriesSpec(2.0, 2.0).threshold == pytest.approx(1.0 / (8.0 * math.e), rel=1e-14)

    def test_gamma_one_monotone_in_a1(self):
        pp = 2.5 / 1.5
        values = [MTSeriesSpec(2.5, a1 * (pp - 1.0)).threshold for a1 in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestMultiplierBound:
    def test_value_two_below_order_two(self):
        for alpha in (0.1, 0.5, 1.0, 1.7, 2.0):
            assert b1_multiplier_bound(alpha) == pytest.approx(2.0, abs=1e-10)

    def test_value_alpha_between_two_and_four(self):
        # sum of |A_j|: |A_1| = alpha/2 and the positive remainder alpha/2 - 1
        for alpha in (2.5, 3.0, 3.5):
            assert b1_multiplier_bound(alpha) == pytest.approx(alpha, rel=1e-9)

    def test_brute_force_bracket(self):
        # independent two-sided check: the partial absolute sum is a lower
        # bound, and (j - b)/(j + 1) <= (j/(j+1))^{1+b} gives the integral-
        # comparison tail bound |A_J| (J+1)/b for the remainder
        for alpha in (0.7, 1.3, 2.9):
            beta = 0.5 * alpha
            a = 1.0
            total = 0.0
            J = 200_000
            for j in range(J):
                a *= (j - beta) / (j + 1.0)
                total += abs(a)
            tail_bound = abs(a) * (J + 1) / beta
            value = b1_multiplier_bound(alpha)
            assert 1.0 + total - 1e-12 <= value <= 1.0 + total + tail_bound + 1e-12

    def test_domains(self):
        with pytest.raises(ValueError):
            b1_multiplier_bound(0.0)
        with pytest.raises(ValueError, match="constant-sign tail"):
            b1_multiplier_bound(118.0)
