"""Exponent algebra and group-geometry parameters.

Everything downstream (closed-form constants, the interpolation assembly,
kernel envelopes, spectral sweeps) consumes the validated types defined
here.  All types are immutable and all operations are pure.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional


def conjugate_exponent(p: float) -> float:
    """Holder conjugate p' = p/(p - 1); involutive on (1, inf)."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"conjugate exponent needs p in (1, inf), got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentPair:
    """A (p, q, alpha, d) quadruple locked to the scaling relation
    1/q = 1/p - alpha/d.

    q is always recomputed from (p, alpha, d) at construction, so the
    relation cannot drift; alpha = 0 collapses to q = p exactly.
    """

    p: float
    alpha: float
    d: int
    q: float = field(init=False, default=0.0)
    _predual: Optional["ExponentPair"] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha < self.d / self.p):
            raise ValueError(
                f"alpha must lie in [0, d/p) = [0, {self.d / self.p:g}), got {self.alpha}"
            )
        q = self.p if self.alpha == 0.0 else 1.0 / (1.0 / self.p - self.alpha / self.d)
        object.__setattr__(self, "q", q)

    @property
    def p_conj(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def q_conj(self) -> float:
        return conjugate_exponent(self.q)

    def dual(self) -> "ExponentPair":
        """The pair (q', p', alpha, d); the dual of the dual is this object."""
        if self._predual is not None:
            return self._predual
        return ExponentPair(conjugate_exponent(self.q), self.alpha, self.d, _predual=self)


@dataclass(frozen=True)
class GroupGeometry:
    """Geometry record (d, D, b, and character-gradient norms).

    d is the local dimension, D the exponential volume-growth rate, b the
    Gaussian heat-bound decay rate, and c_delta / c_chi / c_delta_chi_inv
    the gradient norms at the identity of the modular function, the
    reference character, and their quotient.  No group is ever constructed:
    all geometry enters downstream computations through this record.

    The defaults (b = 1, D = 1, gradients 0) describe a unimodular group of
    unit growth rate.
    """

    d: int = 1
    D: float = 1.0
    b: float = 1.0
    c_delta: float = 0.0
    c_chi: float = 0.0
    c_delta_chi_inv: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        for name in ("D", "b", "c_delta", "c_chi", "c_delta_chi_inv"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.D < 0.0:
            raise ValueError(f"D must be >= 0, got {self.D}")
        if self.b <= 0.0:
            raise ValueError("b must be positive")
        if min(self.c_delta, self.c_chi, self.c_delta_chi_inv) < 0.0:
            raise ValueError("character gradient norms must be >= 0")
        # the kernel shift a = tau_delta + c_delta^2/4 is at most this sum
        try:
            shift = self.shift_threshold + 0.25 * self.c_delta**2
        except OverflowError:
            shift = math.inf
        if not math.isfinite(shift):
            raise ValueError(
                f"shift threshold (2/b)(2D + b0)^2 plus c_delta^2/4 overflows for "
                f"D={self.D}, b={self.b}, c_delta={self.c_delta}"
            )

    @property
    def b0(self) -> float:
        """Derived decay rate sqrt(b)/2 (never stored independently)."""
        return math.sqrt(self.b) / 2.0

    @property
    def weight_rate(self) -> float:
        """2D + b0: the rate of the exponential weight e^{(2D + b0) r} that
        the global kernel envelope must beat."""
        return 2.0 * self.D + self.b0

    @property
    def shift_threshold(self) -> float:
        """(2/b)(2D + b0)^2: the least kernel shift a with
        (1/2) sqrt(2 a b) >= 2D + b0, the global-decay precondition."""
        return 2.0 / self.b * self.weight_rate**2


def tau_delta(g: GroupGeometry) -> float:
    """Spectral shift max{(2/b)(2D + b0)^2 - c_delta^2/4, 1}.

    The output guarantees that a = tau_delta + c_delta^2/4 satisfies
    (1/2) sqrt(2 a b) >= 2D + b0, the decay precondition of the global
    kernel envelope.
    """
    return max(g.shift_threshold - 0.25 * g.c_delta**2, 1.0)


def tau_chi(g: GroupGeometry) -> float:
    """Shift max{(2/b)(c_delta_chi_inv + 2D + b0)^2 - c_chi^2/4, 1} for a
    general character; reduces to tau_delta when c_delta_chi_inv = 0 and
    c_chi = c_delta."""
    return max(
        2.0 / g.b * (g.c_delta_chi_inv + 2.0 * g.D + g.b0) ** 2 - 0.25 * g.c_chi**2,
        1.0,
    )


def s_chi(c_chi_delta_inv: float) -> float:
    """Unit-ball supremum exp(c) of a character quotient with gradient norm c."""
    if not (math.isfinite(c_chi_delta_inv) and c_chi_delta_inv >= 0.0):
        raise ValueError(f"gradient norm must be >= 0, got {c_chi_delta_inv}")
    return math.exp(c_chi_delta_inv)


@dataclass(frozen=True)
class ParameterGrid:
    """Sweep axes: p values in (1, inf), alpha fractions alpha*p/d in (0, 1),
    integer dimensions.  Axes are sorted and deduplicated at construction;
    a d value with a fractional part is rejected, not truncated."""

    p_values: tuple
    alpha_fractions: tuple
    d_values: tuple

    def __post_init__(self) -> None:
        for d in self.d_values:
            if not float(d).is_integer():
                raise ValueError(f"d values must be integers, got {d}")
        ps = tuple(sorted(set(float(p) for p in self.p_values)))
        fr = tuple(sorted(set(float(f) for f in self.alpha_fractions)))
        ds = tuple(sorted(set(int(d) for d in self.d_values)))
        for p in ps:
            if not (math.isfinite(p) and p > 1.0):
                raise ValueError(f"p values must lie in (1, inf), got {p}")
        for f in fr:
            if not (0.0 < f < 1.0):
                raise ValueError(f"alpha fractions must lie in (0, 1), got {f}")
        for d in ds:
            if d < 1:
                raise ValueError(f"d values must be >= 1, got {d}")
        object.__setattr__(self, "p_values", ps)
        object.__setattr__(self, "alpha_fractions", fr)
        object.__setattr__(self, "d_values", ds)


def make_grid(spec: ParameterGrid) -> list:
    """Cartesian product of the grid axes as validated ExponentPairs.

    Deterministic lexicographic order in (d, p, alpha); alpha = fraction*d/p.
    """
    pairs = [
        ExponentPair(p, frac * d / p, d)
        for d in spec.d_values
        for p in spec.p_values
        for frac in spec.alpha_fractions
    ]
    if not pairs:
        raise ValueError("parameter grid is empty")
    return pairs


def default_grid() -> ParameterGrid:
    """Desk-scale sweep grid: 13 p values geometric in p - 1 over [1.05, 16]
    (probing the 1/(p-1) blow-up), 9 alpha fractions uniform over
    [0.1, 0.9], d in {1, 2, 3, 4}."""
    ratio = 15.0 / 0.05
    p_values = tuple(1.0 + 0.05 * ratio ** (i / 12) for i in range(13))
    fractions = tuple(0.1 + 0.8 * i / 8 for i in range(9))
    return ParameterGrid(p_values, fractions, (1, 2, 3, 4))


def refine_grid(spec: ParameterGrid) -> ParameterGrid:
    """Insert midpoints on every axis (geometric in p - 1, arithmetic in the
    alpha fractions) while keeping all existing points, so the refined grid
    nests the original."""
    p_mid = [1.0 + math.sqrt((a - 1.0) * (b - 1.0)) for a, b in zip(spec.p_values, spec.p_values[1:])]
    f_mid = [0.5 * (a + b) for a, b in zip(spec.alpha_fractions, spec.alpha_fractions[1:])]
    return ParameterGrid(
        spec.p_values + tuple(p_mid),
        spec.alpha_fractions + tuple(f_mid),
        spec.d_values,
    )


def grid_fingerprint(spec: ParameterGrid) -> str:
    """Short stable hash of the grid axes; golden snapshots refuse to compare
    across different fingerprints."""
    text = ";".join(
        ",".join(f"{v:.17g}" for v in axis)
        for axis in (spec.p_values, spec.alpha_fractions, spec.d_values)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def read_grid_config(path) -> ParameterGrid:
    """Parse a plain-text key-value grid file.

    Recognized keys: p_values, alpha_fractions, d_values; values are
    comma-separated decimals.  '#' starts a comment; blank lines ignored.
    A repeated key is an error.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = values', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
        raw[key] = value.strip()
    missing = {"p_values", "alpha_fractions", "d_values"} - set(raw)
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")

    def floats(key: str) -> Iterable[float]:
        try:
            return [float(tok) for tok in raw[key].split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"{path}: bad decimal in {key}: {raw[key]!r}") from exc

    return ParameterGrid(
        tuple(floats("p_values")), tuple(floats("alpha_fractions")), tuple(floats("d_values"))
    )
