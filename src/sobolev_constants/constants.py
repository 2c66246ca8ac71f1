"""Closed-form constants: embedding factors, the Euclidean comparison bound
and multiplier total variation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .params import LOG_NORMAL_MAX, LOG_NORMAL_MIN, ExponentPair, conjugate_exponent


def _check_pq(p: float, q: float) -> None:
    if not (math.isfinite(p) and math.isfinite(q) and 1.0 < p <= q):
        raise ValueError(f"need 1 < p <= q < inf, got p={p}, q={q}")


def q_constant(p: float, q: float) -> float:
    """One-sided embedding factor q^(1 - 1/p) / (p - 1)."""
    _check_pq(p, q)
    return q ** (1.0 - 1.0 / p) / (p - 1.0)


def _embedding_factors(pair: ExponentPair) -> tuple[float, float, float]:
    """(S, Q, Q_dual): the one-sided factors Q of the pair and Q_dual of its
    dual, and the smaller of the two."""
    qv = q_constant(pair.p, pair.q)
    qd = q_constant(conjugate_exponent(pair.q), conjugate_exponent(pair.p))
    return min(qv, qd), qv, qd


def s_constant(pair: ExponentPair) -> float:
    """min(q^{1/p'}/(p - 1), p'^{1/q}/(q' - 1)), i.e. the smaller of the two
    one-sided factors of a pair and its dual; symmetric under dualization."""
    return _embedding_factors(pair)[0]


def f_constant(p: float, q: float) -> float:
    """Comparison shape [1/(1/p' + 1/q)] [1/(p q')] (p'^{1/q} + q^{1/p'});
    invariant under (p, q) -> (q', p')."""
    _check_pq(p, q)
    pp = conjugate_exponent(p)
    qq = conjugate_exponent(q)
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
        raise ValueError("lieb_upper_bound needs alpha > 0 (the formula carries 1/alpha)")
    a = pair.alpha
    d = float(pair.d)
    p, q = pair.p, pair.q
    pp = conjugate_exponent(p)
    qq = conjugate_exponent(q)
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


@dataclass(frozen=True)
class ConstantReport:
    """All closed-form constants of one exponent pair.  The Euclidean bound
    and its ratio to S are only defined for alpha > 0."""

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
