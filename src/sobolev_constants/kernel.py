"""Radial envelope of the subordinated Bessel-Green kernel, and the norm
machinery built on a radial volume-growth model.

No group is ever discretized.  Integrals over the group are replaced by
radial integrals: the unit-mass density d r^{d-1} inside the unit ball and
exponential shell bounds exp(D 2^{k+1}) on the dyadic annuli outside,
exactly mirroring the annulus decompositions the envelope bounds are
assembled from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .params import GroupGeometry, conjugate_exponent, tau_delta

# The local envelope sweep runs over [R_LOCAL_MIN, R_SPLIT], the global one
# over [R_SPLIT, R_GLOBAL_MAX]; beyond R_GLOBAL_MAX the weighted envelope is
# far below its r ~ 1 values for any admissible geometry.
R_LOCAL_MIN = 1e-3
R_SPLIT = 1.0
R_GLOBAL_MAX = 30.0


def _check_order(alpha: float, d: int) -> None:
    if not (0.0 < alpha < d):
        raise ValueError(f"need 0 < alpha < d, got alpha={alpha}, d={d}")


def _check_scaling(p: float, q: float, alpha: float, d: int) -> None:
    """q > 0 and 1/q = 1/p - alpha/d to 1e-9 (p = 1: the endpoint relation); a nan fails."""
    if not (q > 0.0 and abs(1.0 / q - (1.0 / p - alpha / d)) <= 1e-9):
        raise ValueError(
            f"(p, q) must satisfy 1/q = 1/p - alpha/d, got p={p}, q={q}, "
            f"alpha={alpha}, d={d}"
        )


@dataclass(frozen=True)
class GreenKernelParams:
    """Parameters (alpha, d, a, b) of the subordination integrand
    t^{alpha/2 - 1} min(1, t)^{-d/2} e^{-a t} e^{-b r^2/t}.

    a >= 1 is required: the t >= 1 piece of the integral is bounded using it.
    """

    alpha: float
    d: int
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        _check_order(self.alpha, self.d)
        if not self.a >= 1.0:
            raise ValueError(f"need a >= 1, got {self.a}")
        if not self.b > 0.0:
            raise ValueError(f"need b > 0, got {self.b}")


def green_kernel_params_from_geometry(alpha: float, g: GroupGeometry) -> GreenKernelParams:
    """Kernel parameters with a = tau_delta + c_delta^2/4 and the geometry's
    Gaussian rate b; this a always satisfies the global-decay precondition."""
    return GreenKernelParams(alpha, g.d, tau_delta(g) + 0.25 * g.c_delta**2, g.b)


def _quad_piece(f, lo, hi, eps: float) -> tuple[float, float]:
    out = quad(f, lo, hi, epsabs=0.0, epsrel=eps, limit=200, full_output=1)
    return out[0], out[1]


def green_kernel_upper(r: float, kp: GreenKernelParams, rel_tol: float = 1e-8) -> float:
    """Envelope (1/Gamma(alpha/2)) int_0^inf t^{alpha/2-1} min(1,t)^{-d/2}
    e^{-a t} e^{-b r^2/t} dt by adaptive quadrature; strictly decreasing in
    r and in a.

    The integral is split at t = min(1, b r^2) and t = 1.  On (0, min(1,
    b r^2)] the substitution u = b r^2 / t trades the essential singularity
    at t = 0 for an exponentially damped tail at u = inf, which the adaptive
    rule handles without special weights.  The summed quadrature error
    estimates must come in below rel_tol times the value.
    """
    if not r > 0.0:
        raise ValueError("r must be positive: the envelope diverges at r = 0 for alpha < d")
    al, d, a, b = kp.alpha, float(kp.d), kp.a, kp.b
    br2 = b * r * r
    t1 = min(1.0, br2)
    eps = rel_tol / 4.0
    values = []
    errors = []

    # t in (0, t1], via u = b r^2 / t in [max(1, b r^2), inf)
    u1 = br2 / t1
    prefactor = math.exp(0.5 * (al - d) * math.log(br2))
    half_dma = 0.5 * (d - al) - 1.0

    def tail_integrand(u: float) -> float:
        return math.exp(half_dma * math.log(u) - a * br2 / u - u)

    v, e = _quad_piece(tail_integrand, u1, np.inf, eps)
    values.append(prefactor * v)
    errors.append(prefactor * e)

    # t in [t1, 1], only present when b r^2 < 1; integrated in x = log t so the
    # power-law run toward t1 gets equal resolution per decade (the direct
    # form spans many decades and defeats the adaptive extrapolation)
    if t1 < 1.0:
        half_amd = 0.5 * (al - d)

        def middle_integrand(x: float) -> float:
            return math.exp(half_amd * x - a * math.exp(x) - br2 * math.exp(-x))

        v, e = _quad_piece(middle_integrand, math.log(t1), 0.0, eps)
        values.append(v)
        errors.append(e)

    # t in [1, inf)
    half_a = 0.5 * al - 1.0

    def outer_integrand(t: float) -> float:
        return math.exp(half_a * math.log(t) - a * t - br2 / t)

    v, e = _quad_piece(outer_integrand, 1.0, np.inf, eps)
    values.append(v)
    errors.append(e)

    total = math.fsum(values)
    if not total > 0.0:
        raise RuntimeError(f"kernel envelope underflowed at r={r} with {kp}")
    if math.fsum(errors) > rel_tol * total:
        raise RuntimeError(
            f"kernel quadrature did not reach relative tolerance {rel_tol} at r={r}"
        )
    return total / math.gamma(0.5 * al)


def local_bound_constant(kp: GreenKernelParams, rel_tol: float = 1e-8) -> float:
    """sup over r in [R_LOCAL_MIN, R_SPLIT] of green(r) r^{d - alpha}
    (d - alpha)/alpha on a log-spaced grid; finite because the envelope
    matches the r^{alpha - d} singularity at small r."""
    scale = (kp.d - kp.alpha) / kp.alpha
    radii = np.geomspace(R_LOCAL_MIN, R_SPLIT, 200)
    return max(
        green_kernel_upper(float(r), kp, rel_tol) * float(r) ** (kp.d - kp.alpha) * scale
        for r in radii
    )


def global_bound_constant(kp: GreenKernelParams, g: GroupGeometry) -> float:
    """sup over r in [R_SPLIT, R_GLOBAL_MAX] of green(r) e^{(2D + b0) r} on a
    log-spaced grid.

    Requires a >= (2/b)(2D + b0)^2 -- guaranteed when a is tau_delta plus
    c_delta^2/4 -- otherwise the exponential weight beats the kernel decay
    and no finite envelope constant exists.
    """
    if not math.isclose(kp.b, g.b, rel_tol=1e-12):
        raise ValueError(f"kernel b={kp.b} must match the geometry b={g.b}")
    threshold = g.shift_threshold
    if kp.a < threshold * (1.0 - 1e-12):
        raise ValueError(
            f"a={kp.a} is below (2/b)(2D + b0)^2 = {threshold:g}; "
            "take a = tau_delta(geometry) + c_delta^2/4 or larger"
        )
    rate = g.weight_rate
    radii = np.geomspace(R_SPLIT, R_GLOBAL_MAX, 120)
    return max(green_kernel_upper(float(r), kp) * math.exp(rate * float(r)) for r in radii)


def _check_kalpha_args(alpha: float, d: int, s: float, r_exp: float) -> None:
    _check_order(alpha, d)
    if not (0.0 < s <= 1.0):
        raise ValueError(f"need s in (0, 1], got {s}")
    if not r_exp >= 1.0:
        raise ValueError(f"need r_exp >= 1, got {r_exp}")


def kalpha_norms(alpha: float, d: int, s: float, r_exp: float) -> tuple[float, float]:
    """Norms of the split singular kernel r^{alpha - d} under the unit-mass
    radial density: the L^1 norm of the inner piece (r <= s) and the
    L^{r_exp} norm of the outer piece (s < r <= 1).

    Closed forms: L1 = s^alpha / alpha (inner piece against r^{d-1}) and
    L^{r}^{r} = d (s^E - 1)/(-E) with E = (alpha - d) r + d (outer piece
    against d r^{d-1}; zero for s = 1).
    """
    _check_kalpha_args(alpha, d, s, r_exp)
    l1_inner = s**alpha / alpha
    if s == 1.0:
        return l1_inner, 0.0
    outer_exponent = (alpha - d) * r_exp + d
    if abs(outer_exponent) < 1e-12:
        raise ValueError(
            f"degenerate outer exponent (alpha - d) r + d = 0 for alpha={alpha}, "
            f"d={d}, r_exp={r_exp}"
        )
    outer_pow = d * (s**outer_exponent - 1.0) / (-outer_exponent)
    return l1_inner, outer_pow ** (1.0 / r_exp)


def kalpha_norms_quadrature(alpha: float, d: int, s: float, r_exp: float) -> tuple[float, float]:
    """Direct-quadrature twin of kalpha_norms: the same radial integrals with
    no closed form, for cross-checking."""
    _check_kalpha_args(alpha, d, s, r_exp)
    inner, _ = quad(lambda r: r ** (alpha - 1.0), 0.0, s, epsabs=0.0, epsrel=1e-12, limit=200)
    if s == 1.0:
        return inner, 0.0
    outer, _ = quad(
        lambda r: d * r ** ((alpha - d) * r_exp + d - 1.0),
        s,
        1.0,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    return inner, outer ** (1.0 / r_exp)


@dataclass(frozen=True)
class CutoffSchedule:
    """Radius schedule s(t) <= 1 splitting the singular kernel so that the
    outer convolution stays below t/2 in sup norm: mode 'integrable' for
    inputs with p > 1, mode 'endpoint' for L^1 inputs."""

    mode: str
    p_t: float
    q_t: float
    alpha: float
    d: int

    def __post_init__(self) -> None:
        if self.mode not in ("integrable", "endpoint"):
            raise ValueError(f"mode must be 'integrable' or 'endpoint', got {self.mode!r}")
        _check_order(self.alpha, self.d)
        if self.mode == "integrable" and not self.p_t > 1.0:
            raise ValueError("integrable mode needs p > 1")
        if self.mode == "endpoint" and self.p_t != 1.0:
            raise ValueError("endpoint mode needs p = 1")
        _check_scaling(self.p_t, self.q_t, self.alpha, self.d)


def cutoff_s(t: float, sched: CutoffSchedule) -> float:
    """Cutoff radius: integrable mode
    [1 + (d p'/q)(t/2)^{p'}]^{1/((alpha-d)p' + d)}; endpoint mode
    (1 + t/2)^{1/(alpha-d)} for t >= 2 and 1 below.  Both stay in (0, 1]
    because the exponents are negative for admissible parameters."""
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    if sched.mode == "endpoint":
        if t < 2.0:
            return 1.0
        return (1.0 + 0.5 * t) ** (1.0 / (sched.alpha - sched.d))
    pp = conjugate_exponent(sched.p_t)
    exponent = 1.0 / ((sched.alpha - sched.d) * pp + sched.d)
    return (1.0 + (sched.d * pp / sched.q_t) * (0.5 * t) ** pp) ** exponent


def weak_type_constant(p_t: float, q_t: float, alpha: float, d: int) -> float:
    """Shape of the weak-(p, q) norm of convolution with the singular kernel
    piece (prefactor normalized to 1):

        alpha^{p alpha/d - 1} (q/(d p'))^{(p - 1) alpha/d}   for p > 1,
        alpha^{-1/q}                                          at p = 1.
    """
    _check_order(alpha, d)
    if not (p_t >= 1.0 and q_t > p_t):
        raise ValueError(f"need 1 <= p < q, got p={p_t}, q={q_t}")
    _check_scaling(p_t, q_t, alpha, d)
    if p_t == 1.0:
        return alpha ** (-1.0 / q_t)
    pp = conjugate_exponent(p_t)
    return alpha ** (p_t * alpha / d - 1.0) * (q_t / (d * pp)) ** ((p_t - 1.0) * alpha / d)


def tilde_k_norm(r_exp: float, g: GroupGeometry) -> float:
    """Shell-sum bound sum_k exp(-r (2D + b0) 2^k + D 2^{k+1}) for the
    exponentially decaying outer kernel raised to the r-th power.

    Every exponent is at most -b0 2^k, so the terms decay doubly
    exponentially; summation stops once a term drops below 1e-18.
    """
    if not r_exp >= 1.0:
        raise ValueError(f"need r_exp >= 1, got {r_exp}")
    rate = r_exp * g.weight_rate
    total = 0.0
    for k in range(64):
        term = math.exp(-rate * 2.0**k + g.D * 2.0 ** (k + 1))
        total += term
        if term < 1e-18:
            break
    return total


def chi_weighted_local_norm(p: float, q: float, d: int, s_factor: float) -> float:
    """L^r norm (1/r = 1/q + 1/p') of the character-weighted local kernel
    under the unit-mass radial density, with the weight majorized on the
    unit ball by s_factor:

        (s_factor/(p - 1)) [q/(d r)]^{1/r},

    and [q/(d r)]^{1/r} = ((1 + q/p')/d)^{1/q + 1/p'}.  The radial exponent
    (d/p - d) r + d = d r / q stays positive for every admissible (p, q)."""
    if not (1.0 < p <= q):
        raise ValueError(f"need 1 < p <= q, got p={p}, q={q}")
    if not s_factor >= 1.0:
        raise ValueError(f"need s_factor >= 1, got {s_factor}")
    pp = conjugate_exponent(p)
    r = 1.0 / (1.0 / q + 1.0 / pp)
    return (s_factor / (p - 1.0)) * (q / (d * r)) ** (1.0 / r)


def chi_global_norm(r_exp: float, g: GroupGeometry) -> float:
    """Global norm of the character-weighted outer kernel: the weight
    e^{c (1/p - 1/2) r} cancels against the extra e^{-c r} kernel decay,
    leaving exactly the unweighted shell sum."""
    return tilde_k_norm(r_exp, g)
