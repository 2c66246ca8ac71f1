"""Radial envelope of the subordinated Bessel-Green kernel, and the norm
machinery built on a radial volume-growth model.

The envelope sweeps behind the local and global suprema use one vectorized
rule in log space (log_green_kernel): an exact split into a Bessel K term,
summed by the trapezoid rule, plus a smooth remainder, summed by
Gauss-Legendre.  One pass serves several profiles (alpha, d) that share the
shift a and the rate b: the radius-dependent nodes and decay factors are
built once, and each profile adds only its own exponents, so the 27 local
suprema of the verification sweep take one pass.  The adaptive-quadrature
envelope green_kernel_upper is its cross-check, and it computes the
plot-ready envelope profile.

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

import numpy as np

from .params import (
    LOG_NORMAL_MAX,
    LOG_NORMAL_MIN,
    GroupGeometry,
    Value,
    check_dimension,
    conjugate_exponent,
    refuse_unless,
    solve_q,
    tau_delta,
)

# The local envelope sweep runs over [R_LOCAL_MIN, R_SPLIT], the global one
# over [R_SPLIT, R_GLOBAL_MAX]; beyond R_GLOBAL_MAX the weighted envelope is
# far below its r ~ 1 values for any admissible geometry.
R_LOCAL_MIN = 1e-3
R_SPLIT = 1.0
R_GLOBAL_MAX = 30.0

# Nodes per radius of the split envelope rule (log_green_kernel); 120/96
# nodes lost 6e-11 of accuracy at a = 12.5.  Every infinite integral here is
# cut where its integrand falls to e^-_TAIL_EXPONENT of its peak.
_TRAPEZOID_NODES = 200
_GL_NODES = 128
_TAIL_EXPONENT = 750.0
# the most recurrence evaluations that building the Gauss-Legendre rule may
# take (it takes 5)
_NEWTON_EVALUATIONS = 10


def _check_order(alpha: float, d: int) -> None:
    refuse_unless(0.0 < alpha < d, "need 0 < alpha < d, got alpha={}, d={}", alpha, d)


class GreenKernelParams(Value):
    """Parameters (alpha, d, a, b) of the subordination integrand
    t^{alpha/2 - 1} min(1, t)^{-d/2} e^{-a t} e^{-b r^2/t}.

    a >= 1 is required: the t >= 1 piece of the integral is bounded using it.
    """

    __slots__ = ("alpha", "d", "a", "b")

    def __init__(self, alpha: float, d: int, a: float = 1.0, b: float = 1.0) -> None:
        check_dimension(d)
        _check_order(alpha, d)
        # the slope alpha/2 and the normalization 1/Gamma(alpha/2) need alpha/2 > 0
        refuse_unless(0.5 * alpha > 0.0, "alpha={} is too small: alpha/2 rounds to 0", alpha)
        refuse_unless(a >= 1.0, "need a >= 1, got {}", a)
        refuse_unless(b > 0.0, "need b > 0, got {}", b)
        self._set(alpha=alpha, d=d, a=a, b=b)


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
    The ends are finite, and the breakpoints a < points < b start the
    interval list (QUADPACK qagp), so a known kink or peak sits on an
    interval end.  Each round bisects, in one call of func, every interval
    not too narrow to bisect whose error estimate is above its share
    rel_tol |value|/n, the worst first and never past _QUAD_LIMIT intervals,
    until the summed estimate is at most rel_tol |value| or none is left to
    bisect; the caller compares abserr with its tolerance."""
    ends = (a, *points, b)
    if not (all(x < y for x, y in zip(ends, ends[1:])) and math.isfinite(b - a)):
        raise ValueError(f"need a < b finite with the points between, got {list(ends)}")
    edges = np.array(ends, dtype=float)
    # one column (lo, hi, value, error) per interval
    intervals = np.array((edges[:-1], edges[1:], *_gk15(func, edges[:-1], edges[1:])))
    while intervals[3].sum() > rel_tol * abs(intervals[2].sum()):
        lo, hi, value, error = intervals
        wide = hi - lo > _MIN_RELATIVE_WIDTH * np.maximum(np.abs(lo), np.abs(hi))
        bad = np.count_nonzero(wide & (error > rel_tol * abs(value.sum()) / len(lo)))
        split = np.argsort(np.where(wide, -error, 0.0), kind="stable")[: min(bad, _QUAD_LIMIT - len(lo))]
        if not len(split):
            break
        mid = 0.5 * (lo[split] + hi[split])
        halves = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        rules = np.array((*halves, *_gk15(func, *halves)))
        intervals = np.hstack((np.delete(intervals, split, axis=1), rules))
    # every bisection adds one interval and two rules to the first ones
    neval = 15 * (2 * intervals.shape[1] - (len(edges) - 1))
    return float(intervals[2].sum()), float(intervals[3].sum()), {"neval": neval}


def _check_rate(c, r, kp: GreenKernelParams) -> None:
    """Refuse radii r whose c = b r^2 overflows, or underflows to 0, where
    log c is -inf."""
    if not np.all(np.isfinite(c)):
        raise ValueError(f"kernel envelope at r={float(np.max(r)):g} needs b r^2, which overflows, with {kp}")
    if not np.all(c > 0.0):
        raise ValueError(
            f"kernel envelope at r={float(np.min(r)):g} needs b r^2, which underflows to 0, with {kp}"
        )


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
    too narrow for any node to see leaves (d from about 1e12 up), and a
    radius whose b r^2 overflows or underflows to 0.
    """
    if not r > 0.0:
        raise ValueError("r must be positive: the envelope diverges at r = 0 for alpha < d")
    a, c = kp.a, kp.b * r * r
    _check_rate(c, r, kp)
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


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}."""
    p0, p1 = np.ones_like(x), x
    for j in range(1, n):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _GL_NODES-point Gauss-Legendre nodes (ascending) and weights on
    [-1, 1]: Newton on the recurrence from Tricomi's guesses
    -cos(pi (k - 1/4)/(n + 1/2)), with weights 2/((1 - x)(1 + x) P_n'(x)^2)
    at the converged nodes.  Nodes come within 1 ulp of a 40-digit rule and
    weights within 3e-13, where numpy.polynomial's leggauss, an eigenvalue
    solve, is 1e-11 off; built on first use, since most commands never
    evaluate the envelope."""
    n = _GL_NODES
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    step = np.inf
    # Newton converges quadratically: from steps of 1e-13 the nodes are exact
    # to rounding, and the evaluation after that step gives the weights
    for _ in range(_NEWTON_EVALUATIONS):
        p, dp = _legendre(n, x)
        if np.max(np.abs(step)) <= 1e-13:
            return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
        step = p / dp
        x = x - step
    raise RuntimeError(
        f"Gauss-Legendre nodes did not converge in {_NEWTON_EVALUATIONS} recurrence evaluations"
    )


def _log_sum_exp(v: np.ndarray) -> np.ndarray:
    """log sum_j exp(v[i, j]) as a column; every row holds a finite value."""
    m = v.max(axis=1, keepdims=True)
    return m + np.log(np.exp(v - m).sum(axis=1, keepdims=True))


def log_green_kernel(radii, *kps: GreenKernelParams) -> np.ndarray:
    """log green_kernel_upper(r, kp) at every r in radii, one row per profile
    kp, in one array pass; the profiles share a and b.

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
    The nodes and every term that depends on r, a and b alone are built once
    for all the profiles; each profile adds its nu, alpha and d terms.
    green_kernel_upper is the adaptive-quadrature cross-check of this rule.
    """
    a, b = kps[0].a, kps[0].b
    for kp in kps:
        if (kp.a, kp.b) != (a, b):
            raise ValueError(f"profiles in one envelope pass must share a and b: {kps[0]} and {kp}")
    r = np.asarray(radii, dtype=float)[:, None]
    if not np.all(r > 0.0):
        raise ValueError("radii must be positive: the envelope diverges at r = 0 for alpha < d")
    x_gl, w_gl = _gauss_legendre()
    with np.errstate(over="ignore"):  # refused just below
        c = b * r * r
    _check_rate(c, r, kps[0])
    z = 2.0 * np.sqrt(a * c)
    # c/a itself may underflow (b = 1e-300 with a = 8e300)
    log_t_star = 0.5 * (np.log(c) - math.log(a))
    # z (cosh U - 1) = 2 z sinh^2(U/2) = 750, solved without cancellation at large z
    cut = 2.0 * np.arcsinh(np.sqrt(0.5 * _TAIL_EXPONENT / z))

    # log(K_nu(z) e^z) = log(h sum_u e^{-2 z sinh^2(u/2)} cosh(nu u)), with
    # log cosh(nu u) = |nu u| + log1p(e^{-2 |nu u|}) - log 2
    h = cut / (_TRAPEZOID_NODES - 1)
    u = h * np.arange(_TRAPEZOID_NODES)
    bessel_decay = -2.0 * z * np.sinh(0.5 * u) ** 2

    # remainder e^z: t^{alpha/2} - t^nu = t^{alpha/2} (1 - t^{-d/2}) at x = log t > 0;
    # the log 2 floor keeps the interval nonempty, and past log t* + U the
    # integrand is below e^-750 of its saddle value, so widening costs nothing
    x_lo = np.maximum(0.0, log_t_star - cut)
    x_hi = np.maximum(log_t_star + cut, math.log(2.0))
    half_width = 0.5 * (x_hi - x_lo)
    x = x_lo + half_width * (x_gl + 1.0)
    log_w_gl = np.log(w_gl)
    remainder_decay = 2.0 * z * np.sinh(0.5 * (x - log_t_star)) ** 2
    # at very large z the interval rounds to zero width, and its remainder,
    # rightly, to e^-inf
    with np.errstate(divide="ignore"):
        log_half_width = np.log(half_width)

    out = np.empty((len(kps), len(r)))
    half_d = None
    for row, kp in enumerate(kps):
        nu = 0.5 * (kp.alpha - kp.d)
        nu_u = abs(nu) * u
        log_f = bessel_decay + nu_u + np.log1p(np.exp(-2.0 * nu_u)) - math.log(2.0)
        log_f[:, [0, -1]] -= math.log(2.0)  # trapezoid end weights h/2
        log_bessel = math.log(2.0) + nu * log_t_star + np.log(h) + _log_sum_exp(log_f)
        if 0.5 * kp.d != half_d:  # one d's 1 - t^{-d/2} at a time
            half_d = 0.5 * kp.d
            log_one_minus = np.log(-np.expm1(-half_d * x))
        log_g = log_w_gl + 0.5 * kp.alpha * x + log_one_minus - remainder_decay
        log_remainder = log_half_width + _log_sum_exp(log_g)
        out[row] = (np.logaddexp(log_bessel, log_remainder) - z)[:, 0] - math.lgamma(0.5 * kp.alpha)
    return out


def local_bound_constant(*kps: GreenKernelParams) -> list[tuple[float, float]]:
    """(r*, sup) per profile kp: where on a log-spaced grid of
    [R_LOCAL_MIN, R_SPLIT] the normalized envelope green(r) r^{d - alpha}
    (d - alpha)/alpha peaks, and its value there; finite because the envelope
    matches the r^{alpha - d} singularity at small r.  The profiles share a
    and b, and one envelope pass serves them all."""
    radii = np.geomspace(R_LOCAL_MIN, R_SPLIT, 200)
    log_radii = np.log(radii)
    peaks = []
    for kp, log_green in zip(kps, log_green_kernel(radii, *kps)):
        log_values = log_green + (kp.d - kp.alpha) * log_radii
        i = int(np.argmax(log_values))
        sup = _normal_exp(float(log_values[i]), "local envelope sup", kp)
        peaks.append((float(radii[i]), sup * (kp.d - kp.alpha) / kp.alpha))
    return peaks


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
    log_values = log_green_kernel(radii, kp)[0] + g.weight_rate * radii
    return _normal_exp(float(log_values.max()), "weighted global envelope sup", kp)


def _check_kalpha_args(alpha: float, d: int, s: float, *r_exps: float) -> None:
    _check_order(alpha, d)
    if not (0.0 < s <= 1.0):
        raise ValueError(f"need s in (0, 1], got {s}")
    for r_exp in r_exps:
        if not 1.0 <= r_exp < math.inf:
            raise ValueError(f"need 1 <= r_exp < inf, got {r_exp}")
        # the outer piece's L^{r_exp} norm raised to r_exp is of the size of s^E
        outer_exponent = (alpha - d) * r_exp + d
        if outer_exponent * math.log(s) >= LOG_NORMAL_MAX:
            raise ValueError(
                f"s^E with E = (alpha - d) r_exp + d = {outer_exponent:g} overflows at s={s}: "
                f"need a smaller r_exp, got {r_exp}"
            )


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


def kalpha_norms_quadrature(alpha: float, d: int, s: float, *r_exps: float) -> tuple[float, ...]:
    """Direct-quadrature twin of kalpha_norms: the same radial integrals with
    no closed form, for cross-checking.  Returns the inner L^1 norm, which no
    r_exp changes, then the outer L^{r_exp} norm for each r_exp."""
    _check_kalpha_args(alpha, d, s, *r_exps)
    # the inner piece r^{alpha - 1} on [0, s] in x = log r, as e^{alpha x} on
    # (-inf, log s] (no endpoint singularity), cut at e^-_TAIL_EXPONENT of its
    # peak, with breakpoints spacing the intervals as it decays
    top = math.log(s)
    points = [top - 2.0**j / alpha for j in range(9, -1, -1)]
    inner = quad(lambda x: np.exp(alpha * x), top - _TAIL_EXPONENT / alpha, top, 1e-12, points)[0]
    outer = [
        quad(lambda r: d * r ** ((alpha - d) * r_exp + d - 1.0), s, 1.0, 1e-12)[0] ** (1.0 / r_exp)
        if s < 1.0
        else 0.0
        for r_exp in r_exps
    ]
    return (inner, *outer)


class CutoffSchedule(Value):
    """Radius schedule s(t) <= 1 splitting the singular kernel so that the
    outer convolution stays below t/2 in sup norm: the integrable schedule
    for inputs with p > 1, the endpoint schedule for L^1 inputs (p = 1)."""

    __slots__ = ("p_t", "alpha", "d", "q_t")  # q_t: q of the scaling relation 1/q = 1/p - alpha/d

    def __init__(self, p_t: float, alpha: float, d: int) -> None:
        _check_order(alpha, d)
        refuse_unless(p_t >= 1.0, "need p >= 1, got {}", p_t)
        # solve_q raises once alpha >= d/p
        self._set(p_t=p_t, alpha=alpha, d=d, q_t=solve_q(p_t, alpha, d))


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
