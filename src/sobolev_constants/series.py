"""Exponential-series analytics: term ratios, convergence-radius estimation,
and the scaling-divergence comparison.

Term ratios are taken in closed form over arrays, in log space, so no
term has to be a double.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .constants import s_constant
from .params import LOG_NORMAL_MAX, LOG_NORMAL_MIN, ExponentPair, Value, conjugate_exponent, refuse_unless


K_MAX = 2000  # the far term index of the radius extrapolation
K_RATIOS = 600  # term_ratios runs k = start..K_RATIOS-1
_K_FACTORIAL_MAX = 170  # 171! is past the largest double


class MTSeriesSpec(Value):
    """Series family term_k = gamma^k/k! * c^{p'k} (p'k)^k, summed from
    k = ceil(p - 1); c stands for the product of embedding and interpolation
    constants times (p' - 1)."""

    __slots__ = ("p", "c")

    def __init__(self, p: float, c: float) -> None:
        refuse_unless(1.0 < p < math.inf, "need 1 < p < inf, got {}", p)
        refuse_unless(0.0 < c < math.inf, "need 0 < c < inf, got {}", c)
        self._set(p=p, c=c)

    @property
    def p_conj(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def start_index(self) -> int:
        return max(math.ceil(self.p - 1.0), 1)

    @property
    def threshold(self) -> float:
        """The exponential-integrability threshold gamma_1 = [e c^{p'} p']^{-1},
        the series' convergence radius in gamma; with c = cp a1 (p' - 1) it is
        [e (cp a1 (p' - 1))^{p'} p']^{-1}, decreasing in c."""
        pp = self.p_conj
        return 1.0 / (math.e * self.c**pp * pp)


def _ratios(spec: MTSeriesSpec, gamma: float, k: np.ndarray) -> np.ndarray:
    """term_{k+1}/term_k = gamma c^{p'} p' (1 + 1/k)^k at each k, as exp(log gamma
    + p' log c + log p' + k log1p(1/k)): no two large term logs are
    subtracted, and log1p keeps the digits of 1/k (Goldberg 1991).
    ValueError when a ratio is not a normal double."""
    pp = spec.p_conj
    log_ratios = math.log(gamma) + pp * math.log(spec.c) + math.log(pp) + k * np.log1p(1.0 / k)
    lo, hi = float(log_ratios.min()), float(log_ratios.max())
    if not (LOG_NORMAL_MIN <= lo and hi < LOG_NORMAL_MAX):
        raise ValueError(
            f"term ratios from e^{lo:.6g} to e^{hi:.6g} at gamma={gamma} leave the normal doubles with {spec}"
        )
    return np.exp(log_ratios)


def term_ratios(spec: MTSeriesSpec, gamma: float) -> np.ndarray:
    """term_{k+1}/term_k for k = start..K_RATIOS-1 in closed form (_ratios),
    as an array; below the radius they stay under 1, above it they cross 1 once."""
    refuse_unless(0.0 < gamma < math.inf, "need 0 < gamma < inf, got {}", gamma)
    return _ratios(spec, gamma, np.arange(spec.start_index, K_RATIOS, dtype=float))


def mt_series_radius(spec: MTSeriesSpec) -> float:
    """Convergence radius in gamma, estimated from successive-term ratios.

    The gamma-free ratio c^{p'} p' (1 + 1/k)^k (_ratios) approaches
    L = c^{p'} p' e like L (1 - 1/(2k)); two-point Richardson extrapolation
    in 1/k at K_MAX/2 and K_MAX cancels the leading bias, leaving O(k^-2).
    The result matches the closed form `threshold` well within 2 percent.
    """
    rho1, rho2 = _ratios(spec, 1.0, np.array([K_MAX // 2, K_MAX], dtype=float))
    limit = float(2.0 * rho2 - rho1)
    if not (limit > 0.0 and abs(rho2 - rho1) <= 0.05 * rho2):
        raise RuntimeError(
            f"term-ratio extrapolation did not settle for p={spec.p}, c={spec.c}"
        )
    return 1.0 / limit


def s_majorant_gap(p: float, k: int) -> float:
    """log[(p'k)^k / (p-1)^{p'k}] - p'k log S(p, p'k): the amount by which
    the power-counting majorant dominates the embedding factor; must be
    nonnegative for k >= p - 1."""
    if k < p - 1.0:
        raise ValueError(f"need k >= p - 1, got k={k}, p={p}")
    pp = conjugate_exponent(p)
    q = pp * k
    # build the pair through alpha so the scaling relation is honored exactly
    alpha = (1.0 / p - 1.0 / q) if q > p else 0.0
    pair = ExponentPair(p, alpha, 1)
    majorant = k * math.log(pp * k) - pp * k * math.log(p - 1.0)
    return majorant - pp * k * math.log(s_constant(pair))


def mt_scaling_divergence(
    p: float, gamma: float, moments: Sequence[float], sigma: float
) -> Tuple[float, float]:
    """Scaling comparison for moment sequences indexed from k = ceil(p):

        lhs = sum_k gamma^k sigma^{p'k} m_k / k!,
        rhs = sigma^{p p'} sum_k gamma^k m_k / k!.

    lhs >= rhs termwise for sigma >= 1 because p'k >= p p' from the first
    index on, so lhs/sigma^p grows at least like sigma^{p(p'-1)}.

    ValueError names the input when an argument is out of its domain, when
    a moment's k! leaves the doubles (k > 170) or when a sum overflows.
    """
    refuse_unless(1.0 < p < math.inf, "need 1 < p < inf, got {}", p)
    refuse_unless(0.0 < gamma < math.inf, "need 0 < gamma < inf, got {}", gamma)
    refuse_unless(1.0 <= sigma < math.inf, "need 1 <= sigma < inf, got {}", sigma)
    refuse_unless(
        all(0.0 <= m < math.inf for m in moments), "moments must be finite and >= 0, got {}", moments
    )
    pp = conjugate_exponent(p)
    k0 = math.ceil(p)
    refuse_unless(
        k0 + len(moments) - 1 <= _K_FACTORIAL_MAX,
        "need ceil(p) + len(moments) - 1 <= {}, past which k! leaves the doubles, got p={} and {} moments",
        _K_FACTORIAL_MAX,
        p,
        len(moments),
    )
    lhs_terms = []
    plain_terms = []
    try:
        for i, m in enumerate(moments):
            if m == 0.0:
                continue
            k = k0 + i
            base = gamma**k * m / math.factorial(k)
            plain_terms.append(base)
            lhs_terms.append(base * sigma ** (pp * k))
        lhs = math.fsum(lhs_terms)
        rhs = sigma ** (p * pp) * math.fsum(plain_terms)
    except OverflowError:
        lhs = rhs = math.inf
    refuse_unless(
        math.isfinite(lhs) and math.isfinite(rhs),
        "the scaling sums overflow at p={}, gamma={}, sigma={} with {} moments",
        p,
        gamma,
        sigma,
        len(moments),
    )
    return lhs, rhs
