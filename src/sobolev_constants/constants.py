"""Closed-form constants: embedding factors, the Euclidean comparison bound
and multiplier total variation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .params import LOG_NORMAL_MAX, LOG_NORMAL_MIN, ExponentArrays, ExponentPair
from .report import ResultTable

REL_SLACK = 1e-12  # multiplicative slack for proved pointwise inequalities


def q_constant(p, q):
    """One-sided embedding factor q^(1 - 1/p) / (p - 1), of floats or of
    numpy arrays."""
    return q ** (1.0 - 1.0 / p) / (p - 1.0)


def _embedding_factors(pair: ExponentPair) -> tuple[float, float, float]:
    """(S, Q, Q_dual): the one-sided factors Q of the pair and Q_dual of its
    dual, and the smaller of the two."""
    qv = q_constant(pair.p, pair.q)
    qd = q_constant(pair.q_conj, pair.p_conj)
    return min(qv, qd), qv, qd


def s_constant(pair: ExponentPair) -> float:
    """min(q^{1/p'}/(p - 1), p'^{1/q}/(q' - 1)), i.e. the smaller of the two
    one-sided factors of a pair and its dual; symmetric under dualization."""
    return _embedding_factors(pair)[0]


def embedding_factors_array(pairs: ExponentArrays):
    """(S, Q, Q_dual) of each pair, as s_constant and constant_report compute
    them."""
    import numpy as np

    p, q = pairs.p, pairs.q
    qv, qd = q_constant(p, q), q_constant(q / (q - 1.0), p / (p - 1.0))
    return np.minimum(qv, qd), qv, qd


def f_constant(p, q):
    """Comparison shape [1/(1/p' + 1/q)] [1/(p q')] (p'^{1/q} + q^{1/p'}),
    of floats or of numpy arrays; invariant under (p, q) -> (q', p')."""
    pp, qq = p / (p - 1.0), q / (q - 1.0)
    return (1.0 / (1.0 / pp + 1.0 / q)) * (1.0 / (p * qq)) * (pp ** (1.0 / q) + q ** (1.0 / pp))


def _logaddexp(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def lieb_upper_bound(pair: ExponentPair) -> float:
    """Best known upper bound for the homogeneous embedding constant on
    Euclidean space:

        (2 pi)^{-alpha} [Gamma((d-alpha)/2)/Gamma(alpha/2)] (d/alpha)
        (omega_{d-1}/d)^{1-alpha/d} (1-alpha/d)^{1-alpha/d}
        (1/(p q')) (p'^{1/p'+1/q} + q^{1/p'+1/q}),

    with omega_{d-1} = 2 pi^{d/2}/Gamma(d/2) the unit-sphere surface measure.
    Evaluated wholly in log space and exponentiated once, so large d and
    extreme exponents cannot overflow intermediates; a value outside the
    normal double range raises instead of reading inf or 0.
    """
    if pair.alpha <= 0.0:
        raise ValueError(f"E_H_tilde needs alpha > 0 (the formula carries 1/alpha) for {pair}")
    a = pair.alpha
    d = float(pair.d)
    p, q, pp, qq = pair.p, pair.q, pair.p_conj, pair.q_conj
    e = 1.0 / pp + 1.0 / q  # = 1 - alpha/d
    log_omega = math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)
    log_val = (
        -a * math.log(2.0 * math.pi)
        + math.lgamma(0.5 * (d - a))
        - math.lgamma(0.5 * a)
        + math.log(d / a)
        + (1.0 - a / d) * (log_omega - math.log(d))
        + (1.0 - a / d) * math.log1p(-a / d)
        - math.log(p * qq)
        + _logaddexp(e * math.log(pp), e * math.log(q))
    )
    if not LOG_NORMAL_MIN < log_val < LOG_NORMAL_MAX:
        raise ValueError(f"Euclidean bound exp({log_val:.6g}) leaves double range for {pair}")
    return math.exp(log_val)


def lieb_upper_bound_array(pairs: ExponentArrays):
    """lieb_upper_bound of each pair, by the same operations.  The first pair
    with alpha = 0 or a bound outside the normal doubles raises ValueError
    naming it."""
    import numpy as np

    def lgamma(x):
        return np.fromiter(map(math.lgamma, x.tolist()), float, len(x))

    a, d, p, q = pairs.alpha, pairs.d, pairs.p, pairs.q
    dims, which = np.unique(d, return_inverse=True)  # a grid has few distinct d
    pp, qq = p / (p - 1.0), q / (q - 1.0)
    e = 1.0 / pp + 1.0 / q
    log_omega = math.log(2.0) + 0.5 * d * math.log(math.pi) - lgamma(0.5 * dims)[which]
    with np.errstate(divide="ignore"):  # alpha = 0 gives log(d/0) = inf, refused below
        log_d_over_a = np.log(d / a)
    log_val = (
        -a * math.log(2.0 * math.pi)
        + lgamma(0.5 * (d - a))
        - lgamma(0.5 * np.where(a > 0.0, a, 1.0))  # lgamma has a pole at 0
        + log_d_over_a
        + (1.0 - a / d) * (log_omega - np.log(d))
        + (1.0 - a / d) * np.log1p(-a / d)
        - np.log(p * qq)
        + np.logaddexp(e * np.log(pp), e * np.log(q))
    )
    refused = ~((LOG_NORMAL_MIN < log_val) & (log_val < LOG_NORMAL_MAX))
    if refused.any():
        i = int(np.argmax(refused))
        pair = pairs.pair(i)
        if pair.alpha == 0.0:
            raise ValueError(f"E_H_tilde needs alpha > 0 (the formula carries 1/alpha) for {pair}")
        raise ValueError(f"Euclidean bound exp({log_val[i]:.6g}) leaves double range for {pair}")
    return np.exp(log_val)


@dataclass(frozen=True)
class ConstantReport:
    """All closed-form constants of one exponent pair, or of ExponentArrays
    with a numpy array per field.  The Euclidean bound and its ratio to S
    are only defined for alpha > 0."""

    pair: ExponentPair
    S: float
    Q: float
    Q_dual: float
    F: float
    E_H_tilde: Optional[float]
    ratio_EH_over_S: Optional[float]


def constant_report(pair: ExponentPair) -> ConstantReport:
    s, qv, qd = _embedding_factors(pair)
    f = f_constant(pair.p, pair.q)
    if pair.alpha > 0.0:
        eh = lieb_upper_bound(pair)
        ratio = eh / s
    else:
        eh = None
        ratio = None
    return ConstantReport(pair, s, qv, qd, f, eh, ratio)


def constant_report_array(pairs: ExponentArrays) -> ConstantReport:
    """constant_report of each pair, as one ConstantReport of arrays; the
    first pair that lieb_upper_bound_array refuses raises ValueError naming
    it."""
    import numpy as np

    s, qv, qd = embedding_factors_array(pairs)
    eh = lieb_upper_bound_array(pairs)
    with np.errstate(over="ignore"):  # S dips to about 0.88, so E_H_tilde/S may overflow
        ratio = eh / s
    return ConstantReport(pairs, s, qv, qd, f_constant(pairs.p, pairs.q), eh, ratio)


def constants_table(report: ConstantReport) -> ResultTable:
    """One row per pair of the report, of a grid's arrays or of one pair; the
    last column says whether the pair meets the comparison claims: on
    q >= p', F sits between Q/4 and 4Q and Q(p,q) <= Q(q',p'); everywhere
    F >= S/4.  The columns of one pair's table are one-element lists of
    Python values."""
    pair = report.pair
    p, q, qv, qd, fv, sv = pair.p, pair.q, report.Q, report.Q_dual, report.F, report.S
    in_regime = (0.25 * qv * (1.0 - REL_SLACK) <= fv) & (fv <= 4.0 * qv * (1.0 + REL_SLACK))
    in_regime &= qv <= qd * (1.0 + REL_SLACK)
    cells = {
        "d": pair.d,
        "p": p,
        "q": q,
        "alpha": pair.alpha,
        "S": sv,
        "Q": qv,
        "Q_dual": qd,
        "F": fv,
        "E_H_tilde": report.E_H_tilde,
        "ratio_EH_over_S": report.ratio_EH_over_S,
        # q < p' rather than ~(q >= p'): on a Python bool, ~True is -2, which is truthy
        "pass": (fv >= 0.25 * sv * (1.0 - REL_SLACK)) & ((q < p / (p - 1.0)) | in_regime),
    }
    if isinstance(pair, ExponentPair):
        cells = {k: [v] for k, v in cells.items()}
    return ResultTable.from_columns("constants", cells)


_B1_TERMS = 60  # explicitly summed coefficients of the multiplier bound


def b1_multiplier_bound(alpha: float) -> float:
    """Total-variation bound 1 + sum_{j>=1} |A_j| for the Taylor coefficients
    of (1 - t)^{alpha/2}.

    A_{j+1} = A_j (j - alpha/2)/(j + 1) from A_0 = 1.  The coefficients keep
    a fixed sign once j > 1 + alpha/2, and the signed series sums to -1
    (value of (1-t)^{alpha/2} - 1 at t = 1), so the absolute tail beyond the
    _B1_TERMS explicitly summed coefficients equals |1 + partial signed sum|
    exactly.  For 0 < alpha <= 2 every A_j (j >= 1) is negative and the
    bound is 2.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"need alpha > 0, got {alpha}")
    beta = 0.5 * alpha
    if _B1_TERMS <= 1.0 + beta:
        raise ValueError(
            f"tail estimate needs a constant-sign tail: {_B1_TERMS} terms <= 1 + alpha/2"
        )
    a = 1.0
    absolute = 0.0
    signed = 0.0
    for j in range(_B1_TERMS):
        a *= (j - beta) / (j + 1.0)
        absolute += abs(a)
        signed += a
    return 1.0 + absolute + abs(1.0 + signed)
