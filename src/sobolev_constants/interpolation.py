"""Marcinkiewicz constant assembly: endpoint exponents, interpolation weight
theta, the component norms m0/m1/m2, and the assembled strong-type bound
together with every intermediate bound it must respect.

Products of powers are evaluated in log space throughout: exponents like
q2/p2 grow linearly with q and direct powering would lose accuracy first and
overflow later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ExponentArrays, ExponentPair, conjugate_exponent, solve_q


@dataclass(frozen=True)
class MarcinkiewiczData:
    """One pair's interpolation data: endpoints, weight, component norms,
    the assembled constant m0^{1/q} m1^{1-theta} m2^theta, the target shape
    ((d - alpha)/alpha) p' q^{1 - 1/p}, and their ratio; or the same of
    ExponentArrays, with a numpy array per field but p1 = 1."""

    pair: ExponentPair
    p1: float
    q1: float
    p2: float
    q2: float
    theta: float
    m0: float
    m1: float
    m2: float
    assembled: float
    ipq_rhs_shape: float
    ratio: float


def endpoints(pair: ExponentPair) -> tuple[float, float, float, float]:
    """Endpoint exponents (p1, q1, p2, q2) flanking (p, q): reciprocals
    (1, 1 - alpha/d) and (alpha/d + 1/(q+1), 1/(q+1)).

    p1 = 1 and q2 = q + 1 exactly.
    """
    if pair.alpha <= 0.0:
        raise ValueError("endpoints need alpha > 0 (for alpha = 0 nothing is interpolated)")
    q1 = solve_q(1.0, pair.alpha, pair.d)
    p2 = 1.0 / (pair.alpha / pair.d + 1.0 / (pair.q + 1.0))
    return 1.0, q1, p2, pair.q + 1.0


def theta(pair: ExponentPair) -> float:
    """Interpolation weight (1 - 1/p) / (1 - alpha/d - 1/(q+1)); satisfies
    both convex-combination identities 1/p = (1-t)/p1 + t/p2 and
    1/q = (1-t)/q1 + t/q2."""
    if pair.alpha <= 0.0:
        raise ValueError("theta needs alpha > 0")
    denom = 1.0 - pair.alpha / pair.d - 1.0 / (pair.q + 1.0)
    # 1 - alpha/d = 1/p' + 1/q > 1/(q+1) for every valid pair
    if not denom > 0.0:
        raise ValueError(f"impossible endpoint gap for {pair}")
    return (1.0 - 1.0 / pair.p) / denom


def m1(alpha: float, d: int) -> float:
    """Endpoint weak-(1, q1) norm alpha^{-(1 - alpha/d)}; at most d/alpha."""
    if not (0.0 < alpha < d):
        raise ValueError(f"need 0 < alpha < d, got alpha={alpha}, d={d}")
    return math.exp(-(1.0 - alpha / d) * math.log(alpha))


def m1_bound(alpha, d):
    """Upper bound d/alpha for m1, of numbers or arrays."""
    return d / alpha


def m2(pair: ExponentPair) -> float:
    """Weak-(p2, q2) norm

        (d^{alpha/d}/alpha) (alpha/d)^{e1} [(1 - alpha/d - 1/(q+1))(q+1)]^{e1 - alpha/d}

    with e1 = (alpha/d)/(alpha/d + 1/(q+1))."""
    if pair.alpha <= 0.0:
        raise ValueError("m2 needs alpha > 0")
    a = pair.alpha
    d = float(pair.d)
    q = pair.q
    ad = a / d
    z = ad + 1.0 / (q + 1.0)
    e1 = ad / z
    bracket = (1.0 - z) * (q + 1.0)
    log_m2 = ad * math.log(d) - math.log(a) + e1 * math.log(ad) + (e1 - ad) * math.log(bracket)
    return math.exp(log_m2)


def m2_theta_bound(pairs: ExponentArrays, th: np.ndarray) -> np.ndarray:
    """Upper bound 2 d^theta (q/p)^{1 - 1/p} alpha^{-theta} for m2^theta,
    with th the pairs' theta."""
    p, q = pairs.p, pairs.q
    return 2.0 * np.exp(th * np.log(pairs.d) + (1.0 - 1.0 / p) * np.log(q / p) - th * np.log(pairs.alpha))


def m0(pair: ExponentPair) -> float:
    """Strong-type assembly constant q (p2/p)^{q2/p2}/(q2 - q)
    + (q/p^{q1})/(q - q1), with the endpoints of the pair."""
    _, q1, p2, q2 = endpoints(pair)
    p, q = pair.p, pair.q
    if not q1 < q < q2:
        raise ValueError(f"q must lie strictly between the endpoint exponents for {pair}")
    first = q * math.exp((q2 / p2) * math.log(p2 / p)) / (q2 - q)
    second = q * math.exp(-q1 * math.log(p)) / (q - q1)
    return first + second


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


def assemble(pair: ExponentPair) -> MarcinkiewiczData:
    """Assemble m0^{1/q} m1^{1-theta} m2^theta and its ratio to the target
    shape ((d - alpha)/alpha) p' q^{1 - 1/p}."""
    ends = endpoints(pair)
    th = theta(pair)
    v0 = m0(pair)
    v1 = m1(pair.alpha, pair.d)
    v2 = m2(pair)
    assembled = math.exp(
        math.log(v0) / pair.q + (1.0 - th) * math.log(v1) + th * math.log(v2)
    )
    rhs_shape = (
        (pair.d - pair.alpha)
        / pair.alpha
        * pair.p_conj
        * math.exp((1.0 - 1.0 / pair.p) * math.log(pair.q))
    )
    ratio = assembled / rhs_shape
    if not math.isfinite(ratio):
        raise ValueError(f"non-finite assembly ratio for {pair}")
    return MarcinkiewiczData(pair, *ends, th, v0, v1, v2, assembled, rhs_shape, ratio)


def assemble_array(pairs: ExponentArrays) -> MarcinkiewiczData:
    """assemble of each pair, by the same operations, as one
    MarcinkiewiczData of arrays.  The ratio reads nan exactly where assemble
    raises: a check of endpoints, theta, m0 or m1 fails, an exp overflows, a
    log meets a value that is not positive, or the ratio is not finite."""
    p, q, a, d = pairs.p, pairs.q, pairs.alpha, pairs.d
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    usable = (
        (ad > 0.0)
        & (ad < 1.0)
        & (denom > 0.0)
        & (q1 < q)
        & (q < q2)
        & (bracket > 0.0)
        & np.isfinite(grow)
        & np.isfinite(v1)
        & np.isfinite(v2)
        & (v0 > 0.0)
        & (v1 > 0.0)
        & (v2 > 0.0)
        & np.isfinite(ratio)
    )
    ratio = np.where(usable, ratio, np.nan)
    return MarcinkiewiczData(pairs, 1.0, q1, p2, q2, th, v0, v1, v2, assembled, rhs_shape, ratio)


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
