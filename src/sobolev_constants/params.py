"""Exponent algebra and group-geometry parameters.

Everything downstream (closed-form constants, the interpolation assembly,
kernel envelopes, spectral sweeps) consumes the validated types defined
here.  All types are immutable and all operations are pure.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

# the logs of the least and greatest normal doubles
LOG_NORMAL_MIN = math.log(sys.float_info.min)
LOG_NORMAL_MAX = math.log(sys.float_info.max)


def check_dimension(d) -> None:
    """Raise ValueError unless d is a positive integer that a double holds
    exactly (at most 2^53), so that every formula may take d as a float."""
    if not (isinstance(d, int) and 1 <= d <= 2**53):
        raise ValueError(f"d must be a positive integer of at most 2^53, got {d!r}")


def conjugate_exponent(p: float) -> float:
    """Holder conjugate p' = p/(p - 1); involutive on (1, inf)."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"conjugate exponent needs p in (1, inf), got {p}")
    return p / (p - 1.0)


def solve_q(p: float, alpha: float, d: int) -> float:
    """The exponent q of the scaling relation 1/q = 1/p - alpha/d; alpha = 0
    gives q = p exactly.  A gap 1/p - alpha/d that is not positive (alpha at
    d/p or above, also after rounding) has no q and raises ValueError."""
    gap = 1.0 / p - alpha / d
    if not gap > 0.0:
        raise ValueError(
            f"1/q = 1/p - alpha/d is not positive for p={p}, alpha={alpha}, d={d}: "
            "alpha must stay below d/p"
        )
    return p if alpha == 0.0 else 1.0 / gap


def _usable_q(p: float, alpha: float, d: int) -> float:
    """q for exponents (p, alpha, d) that are usable in double precision:
    p in (1, inf), alpha in [0, d/p), a positive alpha moves q above p, q is
    finite and its conjugate q' = q/(q - 1) stays above 1."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    if not (math.isfinite(alpha) and 0.0 <= alpha < d / p):
        raise ValueError(f"alpha must lie in [0, d/p) = [0, {d / p:g}), got {alpha}")
    q = solve_q(p, alpha, d)
    if alpha > 0.0 and not q > p:
        raise ValueError(
            f"alpha={alpha} is too small to move q above p={p} in double precision (d={d})"
        )
    if not math.isfinite(q):
        raise ValueError(f"q = 1/(1/p - alpha/d) overflows for p={p}, alpha={alpha}, d={d}")
    if not q / (q - 1.0) > 1.0:
        raise ValueError(
            f"p={p:g}, q={q:g}: the conjugate exponent q' = q/(q - 1) rounds to 1, "
            "so the dual pair (q', p') is undefined"
        )
    return q


def _usable_q_array(p, alpha, d):
    """_usable_q over arrays: q as solve_q computes it, and the mask of the
    entries that _usable_q accepts (it raises for the others)."""
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = 1.0 / p - alpha / d
        q = np.where(alpha == 0.0, p, 1.0 / gap)
        usable = (
            np.isfinite(p)
            & (p > 1.0)
            & np.isfinite(alpha)
            & (0.0 <= alpha)
            & (alpha < d / p)
            & (gap > 0.0)
            & ((alpha == 0.0) | (q > p))
            & np.isfinite(q)
            & (q / (q - 1.0) > 1.0)
        )
    return q, usable


@dataclass(frozen=True)
class ExponentPair:
    """A (p, q, alpha, d) quadruple locked to the scaling relation
    1/q = 1/p - alpha/d.

    q is always derived from (p, alpha, d) at construction, so the relation
    cannot drift; alpha = 0 collapses to q = p exactly.  Construction raises
    ValueError unless the exponents of the pair and of its dual
    (q', p', alpha, d) are usable in double precision.
    """

    p: float
    alpha: float
    d: int
    q: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        check_dimension(self.d)
        q = _usable_q(self.p, self.alpha, self.d)
        object.__setattr__(self, "q", q)
        q_conj = conjugate_exponent(q)
        try:
            _usable_q(q_conj, self.alpha, self.d)
        except ValueError as exc:
            raise ValueError(
                f"p={self.p}, alpha={self.alpha}, d={self.d}: the dual pair (q', p') "
                f"with q' = {q_conj} is not usable in double precision ({exc})"
            ) from None

    @property
    def p_conj(self) -> float:
        return conjugate_exponent(self.p)

    @property
    def q_conj(self) -> float:
        return conjugate_exponent(self.q)


@dataclass(frozen=True, eq=False)
class ExponentArrays:
    """Many ExponentPairs at once: float arrays p and alpha, an integer array
    d, and q derived as ExponentPair derives it.

    Construction applies ExponentPair's rules, for each pair and its dual, as
    masks; the first refused pair is rebuilt as an ExponentPair, whose
    ValueError names it.  Inputs that are not three 1-D arrays of one length
    raise ValueError naming their shapes.  The grid sweeps evaluate and print
    every pair from these arrays; iterating yields the pairs as ExponentPairs.
    """

    p: "np.ndarray"
    alpha: "np.ndarray"
    d: "np.ndarray"
    q: "np.ndarray" = field(init=False, default=None)

    def __post_init__(self) -> None:
        import numpy as np

        p, alpha = np.asarray(self.p, dtype=float), np.asarray(self.alpha, dtype=float)
        d = np.asarray(self.d)
        if not (p.ndim == alpha.ndim == d.ndim == 1 and len(p) == len(alpha) == len(d)):
            raise ValueError(
                "p, alpha and d must be 1-D arrays of one length, got shapes "
                f"p {p.shape}, alpha {alpha.shape} and d {d.shape}"
            )
        for dim in sorted(set(d.tolist())):  # np.unique imports numpy.ma
            check_dimension(dim)
        q, usable = _usable_q_array(p, alpha, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            usable &= _usable_q_array(q / (q - 1.0), alpha, d)[1]
        for name, value in (("p", p), ("alpha", alpha), ("d", d), ("q", q)):
            object.__setattr__(self, name, value)
        for i in np.flatnonzero(~usable).tolist():
            self.pair(i)  # raises ExponentPair's ValueError, which names the pair

    def __len__(self) -> int:
        return len(self.p)

    def __iter__(self):
        return (self.pair(i) for i in range(len(self)))

    def pair(self, i: int) -> ExponentPair:
        """Pair i as an ExponentPair."""
        return ExponentPair(float(self.p[i]), float(self.alpha[i]), int(self.d[i]))

    def dual(self) -> "ExponentArrays":
        """The pairs (q', p', alpha, d)."""
        return ExponentArrays(self.q / (self.q - 1.0), self.alpha, self.d)


@dataclass(frozen=True)
class GroupGeometry:
    """Geometry record (D, b, c_delta).

    D is the exponential volume-growth rate, b the Gaussian heat-bound decay
    rate, and c_delta the gradient norm at the identity of the modular
    function.  No group is ever constructed: all geometry enters downstream
    computations through this record.  The local dimension is not stored:
    each check passes the dimensions it sweeps.

    The defaults (b = 1, D = 1, c_delta = 0) describe a unimodular group of
    unit growth rate.
    """

    D: float = 1.0
    b: float = 1.0
    c_delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("D", "b", "c_delta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.D < 0.0:
            raise ValueError(f"D must be >= 0, got {self.D}")
        if self.b <= 0.0:
            raise ValueError("b must be positive")
        if self.c_delta < 0.0:
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
            # an int is exact, and float() would overflow past 1e308
            if not (isinstance(d, int) or float(d).is_integer()):
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
            check_dimension(d)
        object.__setattr__(self, "p_values", ps)
        object.__setattr__(self, "alpha_fractions", fr)
        object.__setattr__(self, "d_values", ds)


def make_grid(spec: ParameterGrid) -> ExponentArrays:
    """Cartesian product of the grid axes as validated ExponentArrays.

    Deterministic lexicographic order in (d, p, alpha); alpha = fraction*d/p.
    """
    import numpy as np

    if not (spec.d_values and spec.p_values and spec.alpha_fractions):
        raise ValueError("parameter grid is empty")
    d, p, frac = (
        axis.ravel()
        for axis in np.meshgrid(spec.d_values, spec.p_values, spec.alpha_fractions, indexing="ij")
    )
    return ExponentArrays(p, frac * d / p, d)


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


def grid_fingerprint(spec: ParameterGrid, geometry: GroupGeometry) -> str:
    """Short stable hash of the grid axes and the geometry; golden snapshots
    refuse to compare across different fingerprints.  The default geometry
    adds nothing to the hashed text, so its fingerprints are the grid's own."""
    axes = [spec.p_values, spec.alpha_fractions, spec.d_values]
    if geometry != GroupGeometry():
        axes.append((geometry.D, geometry.b, geometry.c_delta))
    text = ";".join(",".join(f"{v:.17g}" for v in axis) for axis in axes)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def read_grid_config(path) -> ParameterGrid:
    """Parse a plain-text key-value grid file.

    Recognized keys: p_values, alpha_fractions, d_values; values are
    comma-separated decimals.  '#' starts a comment; blank lines ignored.
    A repeated key is an error.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read grid config {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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

    def numbers(key: str, parse=float) -> tuple:
        try:
            return tuple(parse(tok) for tok in raw[key].split(",") if tok.strip())
        except ValueError as exc:
            raise ValueError(f"{path}: bad decimal in {key}: {raw[key]!r}") from exc

    def dimension(tok: str):
        # exact: float() alone reads 2^53 + 1 as 2^53 and 2.0000000000000001 as 2
        try:
            return int(tok)
        except ValueError:
            value = float(tok)
        if value.is_integer() and Decimal(value) != Decimal(tok):
            raise ValueError(f"{tok.strip()} is no integer of at most 2^53")
        return value

    return ParameterGrid(numbers("p_values"), numbers("alpha_fractions"), numbers("d_values", dimension))
