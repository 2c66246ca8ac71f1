"""Periodic-grid spectral proxy: fractional Bessel operators as Fourier
multipliers, Riemann-sum L^p norms, embedding-ratio sweeps, and the
exponential-integrability functional.

The box is periodic, so the multipliers are exact and there is no boundary
error; trial fields are kept much narrower than the box, which confines all
behaviour to the local/scaling regime the proxy is meant for.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, List, Tuple

import numpy as np

from .constants import s_constant
from .params import ExponentPair, Value, refuse_unless

BOX_LENGTH = 16.0  # side of the periodic box; trial fields stay much narrower
TRIAL_WIDTHS = (0.5, 1.0, 2.0)  # widths of the Gaussian trial fields, ascending


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class TorusGrid(Value):
    """Uniform periodic grid: dim axes of n points (power of two) over a box
    of side BOX_LENGTH."""

    __slots__ = ("dim", "n", "__dict__")

    def __init__(self, dim: int, n: int) -> None:
        refuse_unless(dim in (1, 2, 3), "dim must be 1, 2 or 3, got {}", dim)
        power_of_two = isinstance(n, int) and n >= 2 and (n & (n - 1)) == 0
        refuse_unless(power_of_two, "n must be a power of two >= 2, got {!r}", n)
        refuse_unless(n <= 256, "n must be <= 256, got {}", n)
        refuse_unless(n**dim <= 2**22, "total points {}^{} exceed 2^22", n, dim)
        self._set(dim=dim, n=n)

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return (BOX_LENGTH / self.n) ** self.dim

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n) * (BOX_LENGTH / self.n)

    def meshgrid(self) -> List[np.ndarray]:
        return list(np.meshgrid(*([self.axis_coordinates()] * self.dim), indexing="ij"))

    @functools.cached_property
    def squared_frequencies(self) -> np.ndarray:
        """|xi|^2 on the Fourier grid, xi = 2 pi k / BOX_LENGTH, k integer; read-only."""
        k = np.fft.fftfreq(self.n) * self.n
        xi = 2.0 * math.pi * k / BOX_LENGTH
        axes = np.meshgrid(*([xi] * self.dim), indexing="ij")
        return _read_only(sum(a**2 for a in axes))


class SpectralField(Value):
    """Complex values on a TorusGrid; immutable once constructed.  Equality
    is identity."""

    __slots__ = ("grid", "values", "__dict__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, grid: TorusGrid, values: np.ndarray) -> None:
        arr = np.asarray(values, dtype=np.complex128)
        refuse_unless(arr.shape == grid.shape, "values shape {} does not match grid {}", arr.shape, grid.shape)
        self._set(grid=grid, values=_read_only(arr.copy()))

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        """fftn of the values, computed once per field, read-only."""
        return _read_only(np.fft.fftn(self.values))


def gaussian_field(grid: TorusGrid, width: float) -> SpectralField:
    """exp(-|x - center|^2 / (2 width^2)) centered in the box."""
    refuse_unless(width > 0.0, "width must be positive")
    c = BOX_LENGTH / 2.0
    rho2 = sum((x - c) ** 2 for x in grid.meshgrid())
    return SpectralField(grid, np.exp(-rho2 / (2.0 * width**2)))


def refined_widths(widths: Tuple[float, ...]) -> Tuple[float, ...]:
    """Ascending widths with the geometric midpoint of each consecutive pair
    inserted."""
    mids = [math.sqrt(a * b) for a, b in zip(widths, widths[1:])]
    return tuple(sorted(widths + tuple(mids)))


def bessel_apply(f: SpectralField, tau: float, alpha: float) -> SpectralField:
    """Multiply the Fourier coefficient at frequency k by
    (tau + |2 pi k/L|^2)^{alpha/2}, for a shift tau >= 1; alpha < 0 applies
    the inverse operator."""
    if alpha == 0.0:
        return f
    multiplier = (tau + f.grid.squared_frequencies) ** (0.5 * alpha)
    return SpectralField(f.grid, np.fft.ifftn(f.coeffs * multiplier))


def lp_norm(f: SpectralField, p: float) -> float:
    """Riemann-sum norm (sum |f(x)|^p cellvolume)^{1/p}; an overflowed
    (non-finite) norm raises, since ratios built on it would read 0."""
    refuse_unless(p >= 1.0, "need p >= 1, got {}", p)
    mags = np.abs(np.asarray(f.values))
    with np.errstate(over="ignore"):  # an overflow is refused just below
        norm = float((np.sum(mags**p) * f.grid.cell_volume) ** (1.0 / p))
    if not math.isfinite(norm):
        raise ValueError(f"L^{p:g} norm is not finite ({norm}); the field or its transform overflowed")
    return norm


def embedding_ratio(f: SpectralField, pair: ExponentPair, tau: float) -> float:
    """||f||_q divided by the order-alpha Sobolev norm ||(tau + L)^{alpha/2} f||_p."""
    refuse_unless(pair.d == f.grid.dim, "pair dimension d={} must match grid dim={}", pair.d, f.grid.dim)
    denom = lp_norm(bessel_apply(f, tau, pair.alpha), pair.p)
    if denom == 0.0:
        raise ValueError("zero Sobolev norm: the field vanishes")
    return lp_norm(f, pair.q) / denom


def embedding_sweep(
    widths: Iterable[float],
    pairs: Iterable[ExponentPair],
    tau: float,
    grid: TorusGrid,
) -> Tuple[List[tuple], float]:
    """Per (Gaussian trial width, pair): the embedding ratio and ratio/S.
    Returns the rows ("gaussian", width, d, p, q, alpha, ratio, ratio_over_S)
    and the fitted constant max(ratio/S) over the table."""
    pairs = list(pairs)
    refuse_unless(pairs, "embedding sweep needs at least one exponent pair")
    rows: List[tuple] = []
    fitted = 0.0
    s_values = [s_constant(pair) for pair in pairs]  # once per pair, not per width
    for width in widths:
        f = gaussian_field(grid, width)
        for pair, s in zip(pairs, s_values):
            ratio = embedding_ratio(f, pair, tau)
            rel = ratio / s
            rows.append(("gaussian", width, pair.d, pair.p, pair.q, pair.alpha, ratio, rel))
            fitted = max(fitted, rel)
    return rows, fitted


def _exp_tail(z: np.ndarray, m: int) -> np.ndarray:
    """exp(z) minus its Taylor terms of index < m, for 0 <= z <= 700 and m >= 1.

    Where z <= m the tail is summed termwise, from z^m/m! taken as
    exp(m log(z/m) + log(m^m/m!)), the second log an exactly rounded sum:
    no m! is formed, and both exponents stay below about 1,400 where the
    term is a normal double (m log z and log m! reach 4,600, and their
    rounding alone costs 1e-12).  The terms are positive and fall by
    z/k < 1, so nothing cancels, and since z <= 700 they reach rounding
    within about 250 terms.  Above m, m < 700 and the partial sum is at
    most about e^z/2, so exp minus it loses at most a bit.
    """
    out = np.empty_like(z)
    small = z <= m
    zs = z[small]
    log_mm_over_factorial = math.fsum(math.log(m / k) for k in range(1, m + 1))
    with np.errstate(divide="ignore"):  # log 0 = -inf: the term is 0
        term = np.exp(m * np.log(zs / m) + log_mm_over_factorial)
    acc = term.copy()
    k = m + 1.0
    while np.any(term > 2.0**-54 * acc):  # below half an ulp of acc, a term adds nothing
        term = term * zs / k
        acc += term
        k += 1.0
    out[small] = acc
    zl = z[~small]
    if zl.size:
        term, partial = np.ones_like(zl), np.ones_like(zl)
        for k in range(1, m):
            term = term * zl / k
            partial += term
        out[~small] = np.exp(zl) - partial
    return out


def mt_functional(f: SpectralField, gamma: float, p: float) -> float:
    """Riemann sum of exp(gamma |f|^{p'}) minus its Taylor terms of integer
    index k < p - 1; the integrand is the positive exponential tail.

    Raises on overflow instead of returning inf: exponents above ~700 mean
    gamma is too large for the field's height.
    """
    refuse_unless(gamma >= 0.0, "need gamma >= 0, got {}", gamma)
    refuse_unless(1.0 < p < math.inf, "need p in (1, inf), got {}", p)
    if gamma == 0.0:
        return 0.0
    pp = p / (p - 1.0)
    z = gamma * np.abs(np.asarray(f.values)) ** pp
    zmax = float(z.max())
    if zmax > 700.0:
        raise ValueError(f"exp argument reaches {zmax:.3g} and would overflow; use a smaller gamma")
    # the tail is below e^z (e z/m)^m, which underflows to 0 for m > 6000 and z <= 700
    tail = _exp_tail(z, min(math.ceil(p - 1.0), 6000))
    return float(np.sum(tail) * f.grid.cell_volume)


def interpolation_check(
    f: SpectralField, p: float, alpha: float, theta: float, tau: float
) -> Tuple[float, float, float]:
    """(theta*alpha-order Sobolev norm, interpolated product
    ||f||_p^{1-theta} ||f||_{p,alpha}^theta, their ratio).

    At p = 2 the ratio never exceeds 1: on the frequency side it is the
    weighted power-mean inequality for the multiplier weights.
    """
    refuse_unless(0.0 <= theta <= 1.0, "need theta in [0, 1], got {}", theta)
    refuse_unless(alpha >= 0.0, "need alpha >= 0, got {}", alpha)
    lhs = lp_norm(bessel_apply(f, tau, theta * alpha), p)
    rhs = lp_norm(f, p) ** (1.0 - theta) * lp_norm(bessel_apply(f, tau, alpha), p) ** theta
    return lhs, rhs, lhs / rhs


def gagliardo_interp_check(
    f: SpectralField, pair: ExponentPair, tau: float
) -> Tuple[float, float]:
    """(||f||_q, S(p,q) ||f||_{p,d/p}^{1 - p/q} ||f||_p^{p/q}) for
    fitted-constant reporting; both sides scale identically under f -> c f."""
    refuse_unless(pair.alpha > 0.0, "needs q > p, i.e. alpha > 0")
    refuse_unless(pair.d == f.grid.dim, "pair dimension d={} must match grid dim={}", pair.d, f.grid.dim)
    lhs = lp_norm(f, pair.q)
    sobolev_top = lp_norm(bessel_apply(f, tau, pair.d / pair.p), pair.p)
    base = lp_norm(f, pair.p)
    w = pair.p / pair.q
    rhs_shape = s_constant(pair) * sobolev_top ** (1.0 - w) * base**w
    return lhs, rhs_shape
