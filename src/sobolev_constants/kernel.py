"""Radial envelope of the subordinated Bessel-Green kernel, and the norm
machinery built on a radial volume-growth model.

The envelope sweeps behind the local and global suprema use one vectorized
rule in log space (log_green_kernel): an exact split into a Bessel K term,
summed by the trapezoid rule, plus a smooth remainder, summed by
Gauss-Legendre.  The adaptive-quadrature envelope green_kernel_upper is its
cross-check, and it computes the plot-ready envelope profile.

No group is ever discretized.  Integrals over the group are replaced by
radial integrals: the unit-mass density d r^{d-1} inside the unit ball and
exponential shell bounds exp(D 2^{k+1}) on the dyadic annuli outside,
exactly mirroring the annulus decompositions the envelope bounds are
assembled from.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .params import (
    LOG_NORMAL_MAX,
    LOG_NORMAL_MIN,
    GroupGeometry,
    check_dimension,
    conjugate_exponent,
    solve_q,
    tau_delta,
)

# The local envelope sweep runs over [R_LOCAL_MIN, R_SPLIT], the global one
# over [R_SPLIT, R_GLOBAL_MAX]; beyond R_GLOBAL_MAX the weighted envelope is
# far below its r ~ 1 values for any admissible geometry.
R_LOCAL_MIN = 1e-3
R_SPLIT = 1.0
R_GLOBAL_MAX = 30.0

# Nodes per radius of the split envelope rule (log_green_kernel), and where
# it cuts its integrands: e^{-750} of the saddle value is far below double
# precision.  120/96 nodes lost 6e-11 of accuracy at a = 12.5.
_TRAPEZOID_NODES = 200
_GL_NODES = 128
_TAIL_EXPONENT = 750.0


def _check_order(alpha: float, d: int) -> None:
    if not (0.0 < alpha < d):
        raise ValueError(f"need 0 < alpha < d, got alpha={alpha}, d={d}")


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
        check_dimension(self.d)
        _check_order(self.alpha, self.d)
        # the slope alpha/2 and the normalization 1/Gamma(alpha/2) need alpha/2 > 0
        if not 0.5 * self.alpha > 0.0:
            raise ValueError(f"alpha={self.alpha} is too small: alpha/2 rounds to 0")
        if not self.a >= 1.0:
            raise ValueError(f"need a >= 1, got {self.a}")
        if not self.b > 0.0:
            raise ValueError(f"need b > 0, got {self.b}")


def green_kernel_params_from_geometry(alpha: float, d: int, g: GroupGeometry) -> GreenKernelParams:
    """Kernel parameters in dimension d with a = tau_delta + c_delta^2/4 and
    the geometry's Gaussian rate b; this a always satisfies the global-decay
    precondition."""
    return GreenKernelParams(alpha, d, tau_delta(g) + 0.25 * g.c_delta**2, g.b)


def _normal_exp(log_value: float, what: str, kp: GreenKernelParams) -> float:
    if not LOG_NORMAL_MIN <= log_value < LOG_NORMAL_MAX:
        raise ValueError(f"{what} e^{log_value:.6g} is not a normal double with {kp}")
    return math.exp(log_value)


# The 15-point Kronrod rule on [-1, 1] and the 7-point Gauss rule inside it
# (QUADPACK qk15): abscissae x_0 > ... > x_7 = 0, mirrored to -x_0, ..., x_0;
# the Gauss rule uses x_1, x_3, x_5, x_7.
_GK15_HALF_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_K15_HALF_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_G7_HALF_WEIGHTS = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)


def _mirror(half, sign: float = 1.0) -> np.ndarray:
    half = np.array(half)
    return np.concatenate((sign * half[:7], half[::-1]))


_GK15_NODES = _mirror(_GK15_HALF_NODES, -1.0)
_K15_WEIGHTS = _mirror(_K15_HALF_WEIGHTS)
_G7_WEIGHTS = _mirror(_G7_HALF_WEIGHTS)
# An interval this narrow relative to its ends is not bisected: the nodes of
# its halves would round onto their ends, where an integrand may be singular.
_MIN_RELATIVE_WIDTH = 1e-12
# the most intervals one quad call bisects its range into
_QUAD_LIMIT = 200


def _gk15(func, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and QUADPACK error estimate of func on each [lo[i], hi[i]],
    from one call of func on all the nodes."""
    half = 0.5 * (hi - lo)
    f = func((lo + half)[:, None] + half[:, None] * _GK15_NODES)
    kronrod = f @ _K15_WEIGHTS
    error = np.abs(kronrod - f @ _G7_WEIGHTS)
    # QUADPACK's estimate: the Kronrod-Gauss difference e, which overstates
    # the Kronrod rule's error, becomes spread min(1, 200 e / spread)^1.5,
    # where spread integrates |f - mean f|; it is floored at 50 eps times the
    # integral of |f|, the rounding error of the sum
    spread = np.abs(f - 0.5 * kronrod[:, None]) @ _K15_WEIGHTS
    ratio = np.divide(200.0 * error, spread, out=np.zeros_like(error), where=spread > 0.0)
    error = np.where(spread > 0.0, spread * np.minimum(1.0, ratio**1.5), error)
    error = np.maximum(error, 50.0 * sys.float_info.epsilon * (np.abs(f) @ _K15_WEIGHTS))
    return half * kronrod, half * error


def quad(func, a, b, rel_tol: float, points=()) -> tuple[float, float, dict]:
    """Adaptive 7/15-point Gauss-Kronrod integral of func over [a, b]:
    (value, abserr, {"neval": n}).

    func is vectorized: it maps an array of nodes to the array of its values.
    The breakpoints a < points < b start the interval list (QUADPACK qagp),
    so a known kink or peak sits on an interval end.  An infinite end maps to
    (0, 1] by x = a + (1 - t)/t (or b - (1 - t)/t), so the integrand is
    func(x(t))/t^2, and the nodes never reach t = 0.  Each round bisects, in
    one call of func, every interval not too narrow to bisect whose error
    estimate is above its share rel_tol |value|/n, the worst first and never
    past _QUAD_LIMIT intervals, until the summed estimate is at most rel_tol
    |value| or none is left to bisect; the caller compares abserr with its
    tolerance."""
    ends = (a, *points, b)
    if not (all(x < y for x, y in zip(ends, ends[1:])) and (math.isfinite(a) or math.isfinite(b))):
        raise ValueError(f"need a < b with one end finite and the points between, got {list(ends)}")
    f, edges = func, np.array(ends, dtype=float)
    if math.isinf(b):
        f, edges = (lambda t: func(a + (1.0 - t) / t) / (t * t)), 1.0 / (1.0 + edges[::-1] - a)
    elif math.isinf(a):
        f, edges = (lambda t: func(b - (1.0 - t) / t) / (t * t)), 1.0 / (1.0 + b - edges)
    # one column (lo, hi, value, error) per interval
    intervals = np.array((edges[:-1], edges[1:], *_gk15(f, edges[:-1], edges[1:])))
    while intervals[3].sum() > rel_tol * abs(intervals[2].sum()):
        lo, hi, value, error = intervals
        wide = hi - lo > _MIN_RELATIVE_WIDTH * np.maximum(np.abs(lo), np.abs(hi))
        bad = np.count_nonzero(wide & (error > rel_tol * abs(value.sum()) / len(lo)))
        split = np.argsort(np.where(wide, -error, 0.0), kind="stable")[: min(bad, _QUAD_LIMIT - len(lo))]
        if not len(split):
            break
        mid = 0.5 * (lo[split] + hi[split])
        halves = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        rules = np.array((*halves, *_gk15(f, *halves)))
        intervals = np.hstack((np.delete(intervals, split, axis=1), rules))
    # every bisection adds one interval and two rules to the first ones
    neval = 15 * (2 * intervals.shape[1] - (len(edges) - 1))
    return float(intervals[2].sum()), float(intervals[3].sum()), {"neval": neval}


def _log_peak(k: float, a: float, c: float) -> float:
    """The x = log y that maximizes k x - a e^x - c e^{-x}: the positive root
    of a y^2 - k y - c = 0, in the form without cancellation for the sign of
    k."""
    s = math.hypot(k, 2.0 * math.sqrt(a) * math.sqrt(c))
    return math.log(2.0 * c / (s - k)) if k < 0.0 else math.log((k + s) / (2.0 * a))


def green_kernel_upper(r: float, kp: GreenKernelParams, rel_tol: float = 1e-8) -> float:
    """Envelope (1/Gamma(alpha/2)) int_0^inf t^{alpha/2-1} min(1,t)^{-d/2}
    e^{-a t} e^{-b r^2/t} dt by adaptive quadrature at one radius; strictly
    decreasing in r and in a.  It cross-checks the split rule of
    log_green_kernel and computes the envelope profile table.

    In x = log t the integrand is e^{phi(x)}, phi(x) = k x - a e^x - c e^{-x}
    with c = b r^2 and slope k = (alpha - d)/2 for x < 0, alpha/2 for x > 0.
    phi is concave on each side of the kink x = 0, so each side peaks once,
    inside it or at 0 (_log_peak).  e^{phi - max phi}, at most 1, is
    integrated by one finite quad call per side, cut at the first probe 1,
    2, 4, ... out from the side's peak where phi - max phi <= -_TAIL_EXPONENT
    (beyond it the concave phi falls faster, and the integrand underflows).
    The peak, the kink and the probes are the breakpoints: each interval
    starts out monotone, largest at an end, so no peak slips between the
    nodes, and the probes space the intervals as the integrand decays.  Each
    side is integrated to rel_tol/4, and the summed error estimates must come
    in below rel_tol times the value, else RuntimeError; a value outside the
    normal doubles raises ValueError, and so does a sum of 0, which a peak
    too narrow for any node to see leaves (d from about 1e12 up).
    """
    if not r > 0.0:
        raise ValueError("r must be positive: the envelope diverges at r = 0 for alpha < d")
    a, c = kp.a, kp.b * r * r
    k_left, k_right = 0.5 * (kp.alpha - kp.d), 0.5 * kp.alpha
    x_left = min(_log_peak(k_left, a, c), 0.0)
    x_right = max(_log_peak(k_right, a, c), 0.0)

    def phi(k, x):
        return k * x - a * np.exp(x) - c * np.exp(-x)

    phi_max = max(phi(k_left, x_left), phi(k_right, x_right))
    sides = []
    # far out e^{+-x} overflows to inf, and phi rightly to -inf
    with np.errstate(over="ignore"):
        for k, x_peak, step in ((k_left, x_left, -1.0), (k_right, x_right, 1.0)):
            ends = [x_peak + step]
            while phi(k, ends[-1]) - phi_max > -_TAIL_EXPONENT:
                step *= 2.0
                ends.append(x_peak + step)
            lo, *points, hi = sorted({x_peak, 0.0, *ends})
            sides.append(quad(lambda x: np.exp(phi(k, x) - phi_max), lo, hi, rel_tol / 4.0, points))
    total = math.fsum(value for value, _, _ in sides)
    if not total > 0.0:
        raise ValueError(
            f"kernel envelope at r={r:g} integrates to 0: the peak of the integrand in "
            f"log t is narrower than the quadrature resolves, with {kp}"
        )
    if math.fsum(error for _, error, _ in sides) > rel_tol * total:
        raise RuntimeError(
            f"kernel quadrature did not reach relative tolerance {rel_tol} at r={r}"
        )
    log_green = phi_max + math.log(total) - math.lgamma(0.5 * kp.alpha)
    return _normal_exp(log_green, "kernel envelope", kp)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # built on first use: leggauss(128) takes ~20 ms, and most commands never
    # evaluate the envelope
    return np.polynomial.legendre.leggauss(_GL_NODES)


def _log_sum_exp(v: np.ndarray) -> np.ndarray:
    """log sum_j exp(v[i, j]) as a column; every row holds a finite value."""
    m = v.max(axis=1, keepdims=True)
    return m + np.log(np.exp(v - m).sum(axis=1, keepdims=True))


def log_green_kernel(radii, kp: GreenKernelParams) -> np.ndarray:
    """log green_kernel_upper(r, kp) at every r in radii, in one array pass.

    The envelope splits exactly (DLMF 10.32.10), with nu = (alpha - d)/2,
    c = b r^2 and z = 2 sqrt(a c), into

        Gamma(alpha/2) green = 2 (c/a)^{nu/2} K_nu(z)
            + int_1^inf (t^{alpha/2-1} - t^{nu-1}) e^{-a t - c/t} dt.

    Around the saddle t* = sqrt(c/a), t = t* e^u turns a t + c/t into
    z cosh u, and both pieces are cut at u = +-U, where z (cosh U - 1) = 750.
    K_nu(z) = int_0^inf e^{-z cosh u} cosh(nu u) du (DLMF 10.32.9) is summed
    by the trapezoid rule on [0, U]: the integrand is analytic and decays
    double-exponentially, so the rule converges geometrically.  The remainder
    is smooth on t >= 1 and goes to Gauss-Legendre in x = log t on
    [max(0, log t* - U), max(log t* + U, log 2)].  Both node sets scale with
    U, so one node count serves every shift a and radius r; the sums are
    taken in logs, so envelopes far below the double range stay finite.
    green_kernel_upper is the adaptive-quadrature cross-check of this rule.
    """
    r = np.asarray(radii, dtype=float)[:, None]
    if not np.all(r > 0.0):
        raise ValueError("radii must be positive: the envelope diverges at r = 0 for alpha < d")
    x_gl, w_gl = _gauss_legendre()
    half_alpha, half_d, nu = 0.5 * kp.alpha, 0.5 * kp.d, 0.5 * (kp.alpha - kp.d)
    with np.errstate(over="ignore"):  # refused just below
        c = kp.b * r * r
    if not np.all(np.isfinite(c)):
        raise ValueError(
            f"kernel envelope at r={float(r.max()):g} needs b r^2, which overflows, with {kp}"
        )
    z = 2.0 * np.sqrt(kp.a * c)
    # c/a itself may underflow (b = 1e-300 with a = 8e300)
    log_t_star = 0.5 * (np.log(c) - math.log(kp.a))
    # z (cosh U - 1) = 2 z sinh^2(U/2) = 750, solved without cancellation at large z
    cut = 2.0 * np.arcsinh(np.sqrt(0.5 * _TAIL_EXPONENT / z))

    # log(K_nu(z) e^z), with log cosh(nu u) = |nu u| + log1p(e^{-2 |nu u|}) - log 2
    h = cut / (_TRAPEZOID_NODES - 1)
    u = h * np.arange(_TRAPEZOID_NODES)
    nu_u = abs(nu) * u
    log_f = -2.0 * z * np.sinh(0.5 * u) ** 2 + nu_u + np.log1p(np.exp(-2.0 * nu_u)) - math.log(2.0)
    log_f[:, [0, -1]] -= math.log(2.0)  # trapezoid end weights h/2
    log_bessel = math.log(2.0) + nu * log_t_star + np.log(h) + _log_sum_exp(log_f)

    # remainder e^z: t^{alpha/2} - t^nu = t^{alpha/2} (1 - t^{-d/2}) at x = log t > 0;
    # the log 2 floor keeps the interval nonempty, and past log t* + U the
    # integrand is below e^-750 of its saddle value, so widening costs nothing
    x_lo = np.maximum(0.0, log_t_star - cut)
    x_hi = np.maximum(log_t_star + cut, math.log(2.0))
    half_width = 0.5 * (x_hi - x_lo)
    x = x_lo + half_width * (x_gl + 1.0)
    log_g = (
        np.log(w_gl)
        + half_alpha * x
        + np.log(-np.expm1(-half_d * x))
        - 2.0 * z * np.sinh(0.5 * (x - log_t_star)) ** 2
    )
    # at very large z the interval rounds to zero width, and its remainder,
    # rightly, to e^-inf
    with np.errstate(divide="ignore"):
        log_remainder = np.log(half_width) + _log_sum_exp(log_g)

    return (np.logaddexp(log_bessel, log_remainder) - z)[:, 0] - math.lgamma(half_alpha)


def local_envelope_peak(kp: GreenKernelParams) -> tuple[float, float]:
    """(r*, sup): where on a log-spaced grid of [R_LOCAL_MIN, R_SPLIT] the
    normalized envelope green(r) r^{d - alpha} (d - alpha)/alpha peaks, and
    its value there; finite because the envelope matches the r^{alpha - d}
    singularity at small r."""
    radii = np.geomspace(R_LOCAL_MIN, R_SPLIT, 200)
    log_values = log_green_kernel(radii, kp) + (kp.d - kp.alpha) * np.log(radii)
    i = int(np.argmax(log_values))
    sup = _normal_exp(float(log_values[i]), "local envelope sup", kp)
    return float(radii[i]), sup * (kp.d - kp.alpha) / kp.alpha


# No subcommand calls local_bound_constant, but the benchmark's tracer binds
# it by name and refuses to install without it; it goes when the benchmark
# stops tracing it.
def local_bound_constant(kp: GreenKernelParams) -> float:
    """sup over r in [R_LOCAL_MIN, R_SPLIT] of green(r) r^{d - alpha}
    (d - alpha)/alpha on a log-spaced grid (see local_envelope_peak)."""
    return local_envelope_peak(kp)[1]


def global_bound_constant(kp: GreenKernelParams, g: GroupGeometry) -> float:
    """sup over r in [R_SPLIT, R_GLOBAL_MAX] of green(r) e^{(2D + b0) r} on a
    log-spaced grid, taken as the max of log green + (2D + b0) r; ValueError
    when that sup is not a normal double.

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
    radii = np.geomspace(R_SPLIT, R_GLOBAL_MAX, 120)
    log_values = log_green_kernel(radii, kp) + g.weight_rate * radii
    return _normal_exp(float(log_values.max()), "weighted global envelope sup", kp)


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
    # the inner piece r^{alpha - 1} on [0, s] in x = log r, as e^{alpha x} on
    # (-inf, log s], where its endpoint singularity at r = 0 is gone
    inner = quad(lambda x: np.exp(alpha * x), -math.inf, math.log(s), 1e-12)[0]
    if s == 1.0:
        return inner, 0.0
    outer = quad(lambda r: d * r ** ((alpha - d) * r_exp + d - 1.0), s, 1.0, 1e-12)[0]
    return inner, outer ** (1.0 / r_exp)


@dataclass(frozen=True)
class CutoffSchedule:
    """Radius schedule s(t) <= 1 splitting the singular kernel so that the
    outer convolution stays below t/2 in sup norm: the integrable schedule
    for inputs with p > 1, the endpoint schedule for L^1 inputs (p = 1)."""

    p_t: float
    alpha: float
    d: int
    q_t: float = field(init=False, default=0.0)  # q of the scaling relation 1/q = 1/p - alpha/d

    def __post_init__(self) -> None:
        _check_order(self.alpha, self.d)
        if not self.p_t >= 1.0:
            raise ValueError(f"need p >= 1, got {self.p_t}")
        # solve_q raises once alpha >= d/p
        object.__setattr__(self, "q_t", solve_q(self.p_t, self.alpha, self.d))


def cutoff_s(t: float, sched: CutoffSchedule) -> float:
    """Cutoff radius: for p > 1
    [1 + (d p'/q)(t/2)^{p'}]^{1/((alpha-d)p' + d)}; at the endpoint p = 1
    (1 + t/2)^{1/(alpha-d)} for t >= 2 and 1 below.  Both stay in (0, 1]
    because the exponents are negative for admissible parameters."""
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    if sched.p_t == 1.0:
        if t < 2.0:
            return 1.0
        return (1.0 + 0.5 * t) ** (1.0 / (sched.alpha - sched.d))
    pp = conjugate_exponent(sched.p_t)
    exponent = 1.0 / ((sched.alpha - sched.d) * pp + sched.d)
    return (1.0 + (sched.d * pp / sched.q_t) * (0.5 * t) ** pp) ** exponent


def tilde_k_norm(r_exp: float, g: GroupGeometry) -> float:
    """Shell-sum bound sum_k exp(-r (2D + b0) 2^k + D 2^{k+1}) for the
    exponentially decaying outer kernel raised to the r-th power.

    Every exponent is at most -b0 2^k, so the terms decay doubly
    exponentially; summation stops once a term drops below 1e-18.  The same
    sum bounds the global norm of the character-weighted outer kernel: its
    weight e^{c (1/p - 1/2) r} cancels against the extra e^{-c r} kernel
    decay.
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
