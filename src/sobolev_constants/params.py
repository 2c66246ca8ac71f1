"""Exponent algebra and group-geometry parameters.

Everything downstream (closed-form constants, the interpolation assembly,
kernel envelopes, spectral sweeps) consumes the validated types defined
here.  All types are immutable and all operations are pure.  One pair is an
ExponentPair and many are ExponentArrays; each carries the library (`xp`,
math or numpy) its closed forms run on, and one list of rules validates both.

Every value type of the package derives from Value, defined here, which
needs no import.  A point query loads no numpy, hashlib or decimal: each is
imported by the functions that read it.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

# the logs of the least and greatest normal doubles
LOG_NORMAL_MIN = math.log(sys.float_info.min)
LOG_NORMAL_MAX = math.log(sys.float_info.max)


class Value:
    """Base of the package's value types: a subclass names its fields in
    __slots__ and sets them once, by _set, in an __init__ of its own (Value
    has none).  Assignment raises AttributeError; equality, hash and repr go
    field by field, in slot order.  A slot whose name starts with _ is no
    field: "__dict__" gives an instance a dict for functools.cached_property."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


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


def _logaddexp(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


# The library (`xp`) of the closed forms for an ExponentPair; ExponentArrays
# carry numpy's.  A pair and a one-entry array may differ in the last bit
# where numpy's exp or pow is not libm's.  `where` evaluates both branches.
FLOATS = SimpleNamespace(
    **{name: getattr(math, name) for name in ("exp", "log", "log1p", "lgamma", "isfinite")},
    minimum=min, where=lambda condition, x, y: x if condition else y, logaddexp=_logaddexp,
)


@functools.cache
def _arrays() -> SimpleNamespace:
    """FLOATS over numpy arrays, built on first use: this module imports without numpy."""
    import numpy as np

    names = ("exp", "log", "log1p", "isfinite", "minimum", "where", "logaddexp")
    return SimpleNamespace(
        **{name: getattr(np, name) for name in names},
        lgamma=lambda x: np.fromiter(map(math.lgamma, x.tolist()), float, len(x)),
    )


def refuse_unless(ok, template: str, *values) -> None:
    """Raise ValueError(template.format(*values)) unless ok."""
    if not ok:
        raise ValueError(template.format(*values))


def rules(xp):
    """Context for ordered refusal rules over the library xp, yielding
    rule(ok, template, *values): an input refused by ok raises
    ValueError(template.format(*values)).  On floats a failed rule raises at
    once, so no later rule runs (it may divide by zero).  On arrays all rules
    run under np.errstate, and leaving the context raises for the first
    refused entry the message of the first rule it fails, formatted with that
    entry of each value (an ExponentArrays entry as its ExponentPair)."""
    return nullcontext(refuse_unless) if xp is FLOATS else _array_rules()


@contextmanager
def _array_rules():
    import numpy as np

    checked = []
    with np.errstate(all="ignore"):
        yield lambda ok, template, *values: checked.append((ok, template, values))
    refused = ~np.logical_and.reduce([ok for ok, _, _ in checked])
    if refused.any():
        i = int(np.argmax(refused))
        template, values = next((template, values) for ok, template, values in checked if not ok[i])
        entry = (v.pair(i) if isinstance(v, ExponentArrays) else v[i].item() for v in values)
        raise ValueError(template.format(*entry))


def check_p(p, xp=FLOATS, rule=refuse_unless) -> None:
    """The first rule of ExponentPair and ExponentArrays: p lies in (1, inf)."""
    rule(xp.isfinite(p) & (p > 1.0), "p must lie in (1, inf), got {}", p)


def solve_q(p, alpha, d, xp=FLOATS, rule=refuse_unless):
    """The exponent q of the scaling relation 1/q = 1/p - alpha/d, of floats or
    (with a numpy xp and its rule) of arrays; alpha = 0 gives q = p exactly.
    A gap that is not positive (alpha >= d/p, also after rounding) is refused."""
    gap = 1.0 / p - alpha / d
    gap_text = "1/q = 1/p - alpha/d is not positive for p={}, alpha={}, d={}: alpha must stay below d/p"
    rule(gap > 0.0, gap_text, p, alpha, d)
    return xp.where(alpha == 0.0, p, 1.0 / gap)


def _usable_q(p, alpha, d, xp=FLOATS, rule=refuse_unless, dual=True):
    """q for exponents (p, alpha, d) usable in double precision, by these rules
    in this order: p in (1, inf), alpha in [0, d/p), a positive gap, a positive
    alpha moves q above p, q is finite and q' = q/(q - 1) stays above 1; then
    the same rules for the dual pair (q', p', alpha, d)."""
    check_p(p, xp, rule)
    d_over_p = d / p
    alpha_text = "alpha must lie in [0, d/p) = [0, {:g}), got {}"
    rule(xp.isfinite(alpha) & (0.0 <= alpha) & (alpha < d_over_p), alpha_text, d_over_p, alpha)
    q = solve_q(p, alpha, d, xp, rule)
    small_text = "alpha={} is too small to move q above p={} in double precision (d={})"
    rule((alpha == 0.0) | (q > p), small_text, alpha, p, d)
    rule(xp.isfinite(q), "q = 1/(1/p - alpha/d) overflows for p={}, alpha={}, d={}", p, alpha, d)
    q_conj = q / (q - 1.0)
    conj_text = "p={:g}, q={:g}: the conjugate exponent q' = q/(q - 1) rounds to 1, so the dual pair"
    rule(q_conj > 1.0, conj_text + " (q', p') is undefined", p, q)
    if dual:
        def dual_rule(ok, template, *values):
            if ok is not True:  # on floats, a rule that holds needs no message
                head = "p={}, alpha={}, d={}: the dual pair (q', p') with q' = {} is not usable in double"
                rule(ok, head + " precision (" + template + ")", p, alpha, d, q_conj, *values)

        _usable_q(q_conj, alpha, d, xp, dual_rule, dual=False)
    return q


class ExponentPair(Value):
    """A (p, q, alpha, d) quadruple locked to the scaling relation
    1/q = 1/p - alpha/d.

    q is always derived from (p, alpha, d) at construction, so the relation
    cannot drift; alpha = 0 collapses to q = p exactly.  Construction raises
    ValueError unless the exponents of the pair and of its dual
    (q', p', alpha, d) are usable in double precision.
    """

    __slots__ = ("p", "alpha", "d", "q")
    xp = FLOATS  # the library of the closed forms

    # __post_init__ is looked up at each call, where perfbench/tracer.py counts the pairs
    def __init__(self, p: float, alpha: float, d: int) -> None:
        self._set(p=p, alpha=alpha, d=d)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_dimension(self.d)
        alpha = self.alpha + 0.0  # -0.0 is alpha = 0, and prints so
        self._set(alpha=alpha, q=_usable_q(self.p, alpha, self.d))


class ExponentArrays(Value):
    """Many ExponentPairs at once: float arrays p and alpha, an integer array
    d, and q derived as ExponentPair derives it.

    Construction applies ExponentPair's rules, for each pair and its dual,
    to all entries at once; the first refused pair raises the ValueError
    that ExponentPair raises for it.  Inputs that are not three 1-D arrays of
    one length raise ValueError naming their shapes.  The grid sweeps
    evaluate and print every pair from these arrays; iterating yields the
    pairs as ExponentPairs.  Equality is identity.
    """

    __slots__ = ("p", "alpha", "d", "q")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, p, alpha, d) -> None:
        import numpy as np

        p, alpha = np.asarray(p, dtype=float), np.asarray(alpha, dtype=float) + 0.0
        d = np.asarray(d)
        if not (p.ndim == alpha.ndim == d.ndim == 1 and len(p) == len(alpha) == len(d)):
            raise ValueError(
                "p, alpha and d must be 1-D arrays of one length, got shapes "
                f"p {p.shape}, alpha {alpha.shape} and d {d.shape}"
            )
        for dim in sorted(set(d.tolist())):  # np.unique imports numpy.ma
            check_dimension(dim)
        with rules(self.xp) as rule:
            q = _usable_q(p, alpha, d, self.xp, rule)
        self._set(p=p, alpha=alpha, d=d, q=q)

    @property
    def xp(self) -> SimpleNamespace:
        """The library of the closed forms: numpy's."""
        return _arrays()

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


class GroupGeometry(Value):
    """Geometry record (D, b, c_delta).

    D is the exponential volume-growth rate, b the Gaussian heat-bound decay
    rate, and c_delta the gradient norm at the identity of the modular
    function.  No group is ever constructed: all geometry enters downstream
    computations through this record.  The local dimension is not stored:
    each check passes the dimensions it sweeps.

    The defaults (b = 1, D = 1, c_delta = 0) describe a unimodular group of
    unit growth rate.
    """

    __slots__ = ("D", "b", "c_delta")

    def __init__(self, D: float = 1.0, b: float = 1.0, c_delta: float = 0.0) -> None:
        for name, v in zip(self._fields, (D, b, c_delta)):
            refuse_unless(math.isfinite(v), "{} must be finite, got {}", name, v)
        refuse_unless(D >= 0.0, "D must be >= 0, got {}", D)
        refuse_unless(b > 0.0, "b must be positive")
        refuse_unless(c_delta >= 0.0, "character gradient norms must be >= 0")
        self._set(D=D, b=b, c_delta=c_delta)
        # the kernel shift a = tau_delta + c_delta^2/4 is at most this sum
        try:
            shift = self.shift_threshold + 0.25 * c_delta**2
        except OverflowError:
            shift = math.inf
        shift_text = "shift threshold (2/b)(2D + b0)^2 plus c_delta^2/4 overflows for D={}, b={}, c_delta={}"
        refuse_unless(math.isfinite(shift), shift_text, D, b, c_delta)

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


class ParameterGrid(Value):
    """Sweep axes: p values in (1, inf), alpha fractions alpha*p/d in (0, 1),
    integer dimensions.  Axes are sorted and deduplicated at construction;
    a d value with a fractional part is rejected, not truncated."""

    __slots__ = ("p_values", "alpha_fractions", "d_values")

    def __init__(self, p_values: tuple, alpha_fractions: tuple, d_values: tuple) -> None:
        for d in d_values:  # an int is exact, and float() would overflow past 1e308
            refuse_unless(isinstance(d, int) or float(d).is_integer(), "d values must be integers, got {}", d)
        ps = tuple(sorted(set(float(p) for p in p_values)))
        fr = tuple(sorted(set(float(f) for f in alpha_fractions)))
        ds = tuple(sorted(set(int(d) for d in d_values)))
        for p in ps:
            refuse_unless(math.isfinite(p) and p > 1.0, "p values must lie in (1, inf), got {}", p)
        for f in fr:
            refuse_unless(0.0 < f < 1.0, "alpha fractions must lie in (0, 1), got {}", f)
        for d in ds:
            check_dimension(d)
        self._set(p_values=ps, alpha_fractions=fr, d_values=ds)


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
    """Short stable hash (SHA-256, from the interpreter's builtin module where
    it has one) of the grid axes and the geometry; golden snapshots refuse to
    compare across different fingerprints.  The default geometry adds nothing
    to the hashed text, so its fingerprints are the grid's own."""
    axes = [spec.p_values, spec.alpha_fractions, spec.d_values]
    if geometry != GroupGeometry():
        axes.append((geometry.D, geometry.b, geometry.c_delta))
    text = ";".join(",".join(f"{v:.17g}" for v in axis) for axis in axes)
    try:  # the interpreter's builtin SHA-256: hashlib loads OpenSSL's libcrypto
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    return sha256(text.encode()).hexdigest()[:12]


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
        from decimal import Decimal

        if value.is_integer() and Decimal(value) != Decimal(tok):
            raise ValueError(f"{tok.strip()} is no integer of at most 2^53")
        return value

    return ParameterGrid(numbers("p_values"), numbers("alpha_fractions"), numbers("d_values", dimension))
