"""Periodic-grid spectral proxy: fractional Bessel operators as Fourier
multipliers, Riemann-sum L^p norms, embedding-ratio sweeps, and the
exponential-integrability functional.

The box is periodic, so the multipliers are exact and there is no boundary
error; trial fields are kept much narrower than the box, which confines all
behaviour to the local/scaling regime the proxy is meant for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from .constants import s_constant
from .params import ExponentPair

BOX_LENGTH = 16.0  # side of the periodic box; trial fields stay much narrower


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid: dim axes of n points (power of two) over a box
    of side BOX_LENGTH."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (isinstance(self.n, int) and self.n >= 2 and (self.n & (self.n - 1)) == 0):
            raise ValueError(f"n must be a power of two >= 2, got {self.n!r}")
        if self.n > 256:
            raise ValueError(f"n must be <= 256, got {self.n}")
        if self.n**self.dim > 2**22:
            raise ValueError(f"total points {self.n}^{self.dim} exceed 2^22")

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return (BOX_LENGTH / self.n) ** self.dim

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n) * (BOX_LENGTH / self.n)

    def meshgrid(self) -> List[np.ndarray]:
        x = self.axis_coordinates()
        return list(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def squared_frequencies(self) -> np.ndarray:
        """|xi|^2 on the Fourier grid, xi = 2 pi k / BOX_LENGTH, k integer."""
        k = np.fft.fftfreq(self.n) * self.n
        xi = 2.0 * math.pi * k / BOX_LENGTH
        axes = np.meshgrid(*([xi] * self.dim), indexing="ij")
        return sum(a**2 for a in axes)

    def bessel_multiplier(self, tau: float, alpha: float) -> np.ndarray:
        return (tau + self.squared_frequencies()) ** (0.5 * alpha)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex values on a TorusGrid; immutable once constructed."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid {self.grid.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def gaussian_field(grid: TorusGrid, width: float) -> SpectralField:
    """exp(-|x - center|^2 / (2 width^2)) centered in the box."""
    if not width > 0.0:
        raise ValueError("width must be positive")
    c = BOX_LENGTH / 2.0
    rho2 = sum((x - c) ** 2 for x in grid.meshgrid())
    return SpectralField(grid, np.exp(-rho2 / (2.0 * width**2)))


@dataclass(frozen=True)
class TrialFamily:
    """A family of Gaussian trial fields, one per width."""

    widths: tuple

    def __post_init__(self) -> None:
        widths = tuple(sorted(float(w) for w in self.widths))
        if not widths or any(w <= 0.0 for w in widths):
            raise ValueError("widths must be a nonempty list of positive reals")
        object.__setattr__(self, "widths", widths)

    def members(self, grid: TorusGrid) -> List[Tuple[float, SpectralField]]:
        return [(w, gaussian_field(grid, w)) for w in self.widths]

    def refined(self) -> "TrialFamily":
        """Insert geometric midpoints between consecutive widths."""
        widths = list(self.widths)
        mids = [math.sqrt(a * b) for a, b in zip(widths, widths[1:])]
        return TrialFamily(tuple(widths + mids))


def bessel_apply(f: SpectralField, tau: float, alpha: float) -> SpectralField:
    """Multiply the Fourier coefficient at frequency k by
    (tau + |2 pi k/L|^2)^{alpha/2}; alpha < 0 applies the inverse operator."""
    if not tau >= 1.0:
        raise ValueError(f"need tau >= 1, got {tau}")
    if alpha == 0.0:
        return f
    coeffs = np.fft.fftn(np.asarray(f.values))
    coeffs *= f.grid.bessel_multiplier(tau, alpha)
    return SpectralField(f.grid, np.fft.ifftn(coeffs))


def lp_norm(f: SpectralField, p: float) -> float:
    """Riemann-sum norm (sum |f(x)|^p cellvolume)^{1/p}; an overflowed
    (non-finite) norm raises, since ratios built on it would read 0."""
    if not p >= 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    mags = np.abs(np.asarray(f.values))
    with np.errstate(over="ignore"):  # an overflow is refused just below
        norm = float((np.sum(mags**p) * f.grid.cell_volume) ** (1.0 / p))
    if not math.isfinite(norm):
        raise ValueError(f"L^{p:g} norm is not finite ({norm}); the field or its transform overflowed")
    return norm


def embedding_ratio(f: SpectralField, pair: ExponentPair, tau: float) -> float:
    """||f||_q divided by the order-alpha Sobolev norm ||(tau + L)^{alpha/2} f||_p."""
    if pair.d != f.grid.dim:
        raise ValueError(f"pair dimension d={pair.d} must match grid dim={f.grid.dim}")
    denom = lp_norm(bessel_apply(f, tau, pair.alpha), pair.p)
    if denom == 0.0:
        raise ValueError("zero Sobolev norm: the field vanishes")
    return lp_norm(f, pair.q) / denom


def embedding_sweep(
    family: TrialFamily,
    pairs: Iterable[ExponentPair],
    tau: float,
    grid: TorusGrid,
) -> Tuple[List[tuple], float]:
    """Per (member, pair): the embedding ratio and ratio/S.  Returns the rows
    ("gaussian", width, d, p, q, alpha, ratio, ratio_over_S) and the fitted
    constant max(ratio/S) over the table."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("embedding sweep needs at least one exponent pair")
    rows: List[tuple] = []
    fitted = 0.0
    for width, f in family.members(grid):
        for pair in pairs:
            ratio = embedding_ratio(f, pair, tau)
            rel = ratio / s_constant(pair)
            rows.append(("gaussian", width, pair.d, pair.p, pair.q, pair.alpha, ratio, rel))
            fitted = max(fitted, rel)
    return rows, fitted


def _exp_tail(z: np.ndarray, m: int) -> np.ndarray:
    """exp(z) minus its Taylor terms of index < m, accurate for all z >= 0.

    For z <= 1 the tail is summed termwise (all terms positive, no
    cancellation); elsewhere exp minus the partial sum is safe because the
    tail dominates.
    """
    out = np.empty_like(z)
    small = z <= 1.0
    zs = z[small]
    term = zs**m / math.factorial(m)
    acc = term.copy()
    for k in range(m + 1, m + 31):
        term = term * zs / k
        acc += term
    out[small] = acc
    zl = z[~small]
    partial = np.zeros_like(zl)
    for k in range(m):
        partial += zl**k / math.factorial(k)
    out[~small] = np.exp(zl) - partial
    return out


def mt_functional(f: SpectralField, gamma: float, p: float) -> float:
    """Riemann sum of exp(gamma |f|^{p'}) minus its Taylor terms of integer
    index k < p - 1; the integrand is the positive exponential tail.

    Raises on overflow instead of returning inf: exponents above ~700 mean
    gamma is too large for the field's height.
    """
    if not gamma >= 0.0:
        raise ValueError(f"need gamma >= 0, got {gamma}")
    if not p > 1.0:
        raise ValueError(f"need p > 1, got {p}")
    if gamma == 0.0:
        return 0.0
    pp = p / (p - 1.0)
    z = gamma * np.abs(np.asarray(f.values)) ** pp
    zmax = float(z.max())
    if zmax > 700.0:
        raise ValueError(
            f"exp argument reaches {zmax:.3g} and would overflow; use a smaller gamma"
        )
    m = math.ceil(p - 1.0)
    tail = _exp_tail(z, m)
    return float(np.sum(tail) * f.grid.cell_volume)


def interpolation_check(
    f: SpectralField, p: float, alpha: float, theta: float, tau: float
) -> Tuple[float, float, float]:
    """(theta*alpha-order Sobolev norm, interpolated product
    ||f||_p^{1-theta} ||f||_{p,alpha}^theta, their ratio).

    At p = 2 the ratio never exceeds 1: on the frequency side it is the
    weighted power-mean inequality for the multiplier weights.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"need theta in [0, 1], got {theta}")
    if not alpha >= 0.0:
        raise ValueError(f"need alpha >= 0, got {alpha}")
    lhs = lp_norm(bessel_apply(f, tau, theta * alpha), p)
    rhs = lp_norm(f, p) ** (1.0 - theta) * lp_norm(bessel_apply(f, tau, alpha), p) ** theta
    return lhs, rhs, lhs / rhs


def gagliardo_interp_check(
    f: SpectralField, pair: ExponentPair, tau: float
) -> Tuple[float, float]:
    """(||f||_q, S(p,q) ||f||_{p,d/p}^{1 - p/q} ||f||_p^{p/q}) for
    fitted-constant reporting; both sides scale identically under f -> c f."""
    if pair.alpha <= 0.0:
        raise ValueError("needs q > p, i.e. alpha > 0")
    if pair.d != f.grid.dim:
        raise ValueError(f"pair dimension d={pair.d} must match grid dim={f.grid.dim}")
    lhs = lp_norm(f, pair.q)
    sobolev_top = lp_norm(bessel_apply(f, tau, pair.d / pair.p), pair.p)
    base = lp_norm(f, pair.p)
    w = pair.p / pair.q
    rhs_shape = s_constant(pair) * sobolev_top ** (1.0 - w) * base**w
    return lhs, rhs_shape
