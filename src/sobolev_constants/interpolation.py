"""Marcinkiewicz constant assembly over arrays of pairs: the interpolation
weight theta, the component norms m0/m1/m2 and the assembled strong-type
bound, returned as the marcinkiewicz table together with the endpoint
identity errors and every intermediate bound the assembly must respect.

Products of powers are evaluated in log space throughout: exponents like
q2/p2 grow linearly with q and direct powering would lose accuracy first and
overflow later.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import REL_SLACK
from .params import ExponentArrays, conjugate_exponent, rules
from .report import ResultTable


def m1_bound(alpha, d):
    """Upper bound d/alpha for m1, of numbers or arrays."""
    return d / alpha


def m2_theta_bound(pairs: ExponentArrays, th: np.ndarray) -> np.ndarray:
    """Upper bound 2 d^theta (q/p)^{1 - 1/p} alpha^{-theta} for m2^theta,
    with th the pairs' theta."""
    p, q = pairs.p, pairs.q
    return 2.0 * np.exp(th * np.log(pairs.d) + (1.0 - 1.0 / p) * np.log(q / p) - th * np.log(pairs.alpha))


def m0_tail_term(p, q):
    """Closed form p^{-p' q/(q + p')} (1 + p'/q) of the second m0 summand,
    over arrays p and q."""
    pp = p / (p - 1.0)
    return np.exp(-(pp * q / (q + pp)) * np.log(p)) * (1.0 + pp / q)


def m0_bound(pairs: ExponentArrays) -> np.ndarray:
    """Upper bound e q + p^{-p'q/(q+p')}(1 + p'/q) for m0."""
    return np.e * pairs.q + m0_tail_term(pairs.p, pairs.q)


def assembled_bound(pairs: ExponentArrays) -> np.ndarray:
    """Composite bound 2 d alpha^{-1} (e q + C(p,q))^{1/q} (q/p)^{1-1/p} that
    the assembled constant must stay below pointwise."""
    p, q = pairs.p, pairs.q
    return 2.0 * pairs.d / pairs.alpha * m0_bound(pairs) ** (1.0 / q) * np.exp((1.0 - 1.0 / p) * np.log(q / p))


def assemble(pairs: ExponentArrays) -> ResultTable:
    """The marcinkiewicz table: one row per pair with theta, m0, m1, m2, the
    assembled constant m0^{1/q} m1^{1-theta} m2^theta, the target shape
    ((d - alpha)/alpha) p' q^{1 - 1/p}, their ratio, the errors of the two
    convex-combination identities, and a pass cell.

    - endpoints (p1, q1) = (1, 1/(1 - alpha/d)) and
      (p2, q2) = (1/(alpha/d + 1/(q+1)), q + 1) flank (p, q);
    - theta = (1 - 1/p) / (1 - alpha/d - 1/(q+1)) satisfies both
      convex-combination identities 1/p = (1-t)/p1 + t/p2 and
      1/q = (1-t)/q1 + t/q2;
    - m0 = q (p2/p)^{q2/p2}/(q2 - q) + (q/p^{q1})/(q - q1);
    - m1 = alpha^{-(1 - alpha/d)}, the endpoint weak-(1, q1) norm;
    - m2 = (d^{alpha/d}/alpha) (alpha/d)^{e1} [(1 - alpha/d - 1/(q+1))(q+1)]^{e1 - alpha/d}
      with e1 = (alpha/d)/(alpha/d + 1/(q+1)), the weak-(p2, q2) norm.

    The first pair that fails one of these conditions, checked in this
    order, raises ValueError naming it: alpha > 0, a positive endpoint gap
    1 - alpha/d - 1/(q+1), q1 < q < q2, every exp finite and every log of a
    positive value, a finite ratio.  A pair passes when both identity
    errors are at most 1e-10 and m1, m0, m2^theta and the assembled constant
    stay below m1_bound, m0_bound, m2_theta_bound and assembled_bound.
    """
    p, q, a, d = pairs.p, pairs.q, pairs.alpha, pairs.d
    with rules(pairs.xp) as rule:
        ad = a / d
        q1 = 1.0 / (1.0 - ad)
        q2 = q + 1.0
        p2 = 1.0 / (ad + 1.0 / q2)
        denom = 1.0 - ad - 1.0 / q2
        th = (1.0 - 1.0 / p) / denom
        grow = np.exp((q2 / p2) * np.log(p2 / p))
        v0 = q * grow / (q2 - q) + q * np.exp(-q1 * np.log(p)) / (q - q1)
        v1 = np.exp(-(1.0 - ad) * np.log(a))
        z = ad + 1.0 / q2
        e1 = ad / z
        bracket = (1.0 - z) * q2
        v2 = np.exp(ad * np.log(d) - np.log(a) + e1 * np.log(ad) + (e1 - ad) * np.log(bracket))
        assembled = np.exp(np.log(v0) / q + (1.0 - th) * np.log(v1) + th * np.log(v2))
        rhs_shape = (d - a) / a * (p / (p - 1.0)) * np.exp((1.0 - 1.0 / p) * np.log(q))
        ratio = assembled / rhs_shape
        in_range = np.isfinite(grow) & np.isfinite(v1) & np.isfinite(v2) & (bracket > 0.0)
        in_range &= (v0 > 0.0) & (v1 > 0.0) & (v2 > 0.0)
        rule(a > 0.0, "endpoints need alpha > 0 (for alpha = 0 nothing is interpolated) for {}", pairs)
        rule(denom > 0.0, "impossible endpoint gap for {}", pairs)
        rule((q1 < q) & (q < q2), "q must lie strictly between the endpoint exponents for {}", pairs)
        rule(in_range, "math range or domain error in the assembly for {}", pairs)
        rule(np.isfinite(ratio), "non-finite assembly ratio for {}", pairs)
    with np.errstate(all="ignore"):  # after the rules: a refused grid runs no bound
        err_p = np.abs(1.0 / p - ((1.0 - th) + th / p2))  # p1 = 1
        err_q = np.abs(1.0 / q - ((1.0 - th) / q1 + th / q2))
        ok = (err_p <= 1e-10) & (err_q <= 1e-10)
        ok &= v1 <= m1_bound(a, d) * (1.0 + REL_SLACK)
        ok &= v0 <= m0_bound(pairs) * (1.0 + REL_SLACK)
        ok &= np.exp(th * np.log(v2)) <= m2_theta_bound(pairs, th) * (1.0 + REL_SLACK)
        ok &= assembled <= assembled_bound(pairs) * (1.0 + REL_SLACK)
    cells = {
        "d": d,
        "p": p,
        "q": q,
        "alpha": a,
        "theta": th,
        "m0": v0,
        "m1": v1,
        "m2": v2,
        "assembled": assembled,
        "ipq_rhs_shape": rhs_shape,
        "ratio": ratio,
        "identity_err_p": err_p,
        "identity_err_q": err_q,
        "pass": ok,
    }
    return ResultTable.from_columns("marcinkiewicz", cells)


def weak_sup_factor(p_t: float, q_t: float) -> float:
    """Supremum over u > 0 of u^{1 - p/q} (1 + u^{p'})^{-(1/p')(1 - p/q)}.

    The substitution v = u^{p'} rewrites the objective as
    (v/(1+v))^{(1/p')(1 - p/q)}, which increases strictly to 1, so the
    supremum equals 1, approached as u -> inf and never exceeded.  The
    maximum is taken in log space on 10,000 log-spaced u points over
    [1e-6, 1e9]; monotonicity puts it at the last point, up to rounding.
    """
    if not (1.0 < p_t < q_t):
        raise ValueError(f"need 1 < p < q, got p={p_t}, q={q_t}")
    c = 1.0 - p_t / q_t
    pp = conjugate_exponent(p_t)

    log_u = np.linspace(math.log(1e-6), math.log(1e9), 10_000)
    x = pp * log_u
    softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    vals = c * log_u - (c / pp) * softplus
    return math.exp(float(np.max(vals)))
