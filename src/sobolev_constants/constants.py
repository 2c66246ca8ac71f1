"""Closed-form constants: embedding factors, the Euclidean comparison bound
and multiplier total variation.  Each is written once, for an ExponentPair
and for ExponentArrays, over the library (`xp`) its number type carries."""

from __future__ import annotations

import math

from .params import LOG_NORMAL_MAX, LOG_NORMAL_MIN, ExponentPair, rules
from .report import ResultTable

REL_SLACK = 1e-12  # multiplicative slack for proved pointwise inequalities


def q_constant(p, q):
    """One-sided embedding factor q^(1 - 1/p) / (p - 1), of floats or of
    numpy arrays."""
    return q ** (1.0 - 1.0 / p) / (p - 1.0)


def q_dual_constant(p, q):
    """The one-sided factor Q(q', p') of the dual pair, of floats or of numpy
    arrays, as p'^{1/q} (q - 1): no q' - 1 is formed, which cancels once
    q' = q/(q - 1) is rounded near 1 (Goldberg 1991)."""
    return (p / (p - 1.0)) ** (1.0 / q) * (q - 1.0)


def s_constant(pairs):
    """min(q^{1/p'}/(p - 1), p'^{1/q}/(q' - 1)), i.e. the smaller of the two
    one-sided factors of a pair and its dual, of an ExponentPair or of each
    pair of ExponentArrays; symmetric under dualization."""
    return pairs.xp.minimum(q_constant(pairs.p, pairs.q), q_dual_constant(pairs.p, pairs.q))


def f_constant(p, q):
    """Comparison shape [1/(1/p' + 1/q)] [1/(p q')] (p'^{1/q} + q^{1/p'}),
    of floats or of numpy arrays; invariant under (p, q) -> (q', p')."""
    pp, qq = p / (p - 1.0), q / (q - 1.0)
    return (1.0 / (1.0 / pp + 1.0 / q)) * (1.0 / (p * qq)) * (pp ** (1.0 / q) + q ** (1.0 / pp))


def _lgamma_half(d):
    """lgamma(d/2) of an integer d, or of an integer array once per distinct d:
    a grid has few (np.unique would import numpy.ma)."""
    if isinstance(d, int):
        return math.lgamma(0.5 * d)
    import numpy as np

    dims = sorted(set(d.tolist()))
    return np.array([math.lgamma(0.5 * dim) for dim in dims])[np.searchsorted(dims, d)]


def lieb_upper_bound(pairs):
    """Best known upper bound for the homogeneous embedding constant on
    Euclidean space, of an ExponentPair or of each pair of ExponentArrays:

        (2 pi)^{-alpha} [Gamma((d-alpha)/2)/Gamma(alpha/2)] (d/alpha)
        (omega_{d-1}/d)^{1-alpha/d} (1-alpha/d)^{1-alpha/d}
        (1/(p q')) (p'^{1/p'+1/q} + q^{1/p'+1/q}),

    with omega_{d-1} = 2 pi^{d/2}/Gamma(d/2) the unit-sphere surface measure.
    Evaluated wholly in log space and exponentiated once, so large d and
    extreme exponents cannot overflow intermediates.  The first pair with
    alpha = 0, or with a value outside the normal double range, raises
    ValueError naming it.
    """
    xp, a, d, p, q = pairs.xp, pairs.alpha, pairs.d, pairs.p, pairs.q
    pp, qq = p / (p - 1.0), q / (q - 1.0)
    e = 1.0 / pp + 1.0 / q  # = 1 - alpha/d
    with rules(xp) as rule:
        rule(a > 0.0, "E_H_tilde needs alpha > 0 (the formula carries 1/alpha) for {}", pairs)
        log_omega = math.log(2.0) + 0.5 * d * math.log(math.pi) - _lgamma_half(d)
        log_val = (
            -a * math.log(2.0 * math.pi)
            + xp.lgamma(0.5 * (d - a))
            - xp.lgamma(0.5 * xp.where(a > 0.0, a, 1.0))  # lgamma has a pole at 0
            + xp.log(d / a)
            + (1.0 - a / d) * (log_omega - xp.log(d))
            + (1.0 - a / d) * xp.log1p(-a / d)
            - xp.log(p * qq)
            + xp.logaddexp(e * xp.log(pp), e * xp.log(q))
        )
        in_range = (LOG_NORMAL_MIN < log_val) & (log_val < LOG_NORMAL_MAX)
        rule(in_range, "Euclidean bound exp({:.6g}) leaves double range for {}", log_val, pairs)
    return xp.exp(log_val)


def constant_report(pairs) -> ResultTable:
    """The constants table of an ExponentPair, or of ExponentArrays one numpy
    column each.  The last column says whether the pair meets the comparison
    claims: on q >= p', Q/4 <= F <= 4Q and Q(p,q) <= Q(q',p'); everywhere
    F >= S/4.  A pair with alpha = 0 leaves E_H_tilde and its ratio None;
    arrays raise for the first pair that lieb_upper_bound refuses (alpha = 0 too)."""
    xp, p, q = pairs.xp, pairs.p, pairs.q
    qv, qd, fv = q_constant(p, q), q_dual_constant(p, q), f_constant(p, q)
    s = xp.minimum(qv, qd)
    eh = ratio = None
    if not (isinstance(pairs, ExponentPair) and pairs.alpha == 0.0):
        eh = lieb_upper_bound(pairs)
        with rules(xp):  # no rule: on arrays, only quiets an overflow (S dips to about 0.88)
            ratio = eh / s
    in_regime = (0.25 * qv * (1.0 - REL_SLACK) <= fv) & (fv <= 4.0 * qv * (1.0 + REL_SLACK))
    in_regime &= qv <= qd * (1.0 + REL_SLACK)
    cells = {
        "d": pairs.d,
        "p": p,
        "q": q,
        "alpha": pairs.alpha,
        "S": s,
        "Q": qv,
        "Q_dual": qd,
        "F": fv,
        "E_H_tilde": eh,
        "ratio_EH_over_S": ratio,
        # q < p' rather than ~(q >= p'): on a Python bool, ~True is -2, which is truthy
        "pass": (fv >= 0.25 * s * (1.0 - REL_SLACK)) & ((q < p / (p - 1.0)) | in_regime),
    }
    if isinstance(pairs, ExponentPair):
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
