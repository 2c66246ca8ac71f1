"""Outside-in tracer: wraps the package's public functions from outside and
records one span (name, start, end, parent) per call.

Nothing in the package is edited.  `install` replaces a function in every
module namespace that bound it, because the package imports names with
`from .kernel import ...`: wrapping only `kernel.green_kernel_upper` would
miss the calls `verify` makes through its own binding.

Spans stay in memory in four flat lists and are written once, at exit, as a
small JSON header plus packed arrays.  `aggregate` turns a span file into
per-name calls, total time (outermost spans only) and self time (duration
minus the part of it that child spans cover).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PACKAGE = "sobolev_constants"


def _quad_neval(args, kwargs, result) -> int:
    # quad(..., full_output=1) already returns (y, abserr, infodict[, message]);
    # calls made without full_output return no evaluation count
    if len(result) >= 3 and isinstance(result[2], dict):
        return int(result[2]["neval"])
    return 0


def _bessel_points(args, kwargs, result) -> int:
    field, alpha = args[0], kwargs.get("alpha", args[2] if len(args) > 2 else None)
    # alpha == 0 returns the field untransformed; the count is computed from
    # the grid size, not measured
    return 0 if alpha == 0.0 else int(field.values.size)


def _table_bytes(args, kwargs, result) -> int:
    return Path(result).stat().st_size


# (module, attribute, span name, optional (counter suffix, hook)); a hook maps
# (args, kwargs, result) of one call to the amount added to <span name>.<suffix>
SPAN_TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("verify", "check_constants", "verify.check_constants", None),
    ("verify", "check_interpolation", "verify.check_interpolation", None),
    ("verify", "check_kernel", "verify.check_kernel", None),
    ("verify", "check_series", "verify.check_series", None),
    ("verify", "check_spectral", "verify.check_spectral", None),
    ("kernel", "green_kernel_upper", "kernel.green_kernel_upper", None),
    ("kernel", "local_bound_constant", "kernel.local_bound_constant", None),
    ("kernel", "global_bound_constant", "kernel.global_bound_constant", None),
    ("kernel", "kalpha_norms_quadrature", "kernel.kalpha_norms_quadrature", None),
    ("kernel", "quad", "kernel.quad", ("neval", _quad_neval)),
    ("constants", "constant_report", "constants.constant_report", None),
    ("constants", "lieb_upper_bound", "constants.lieb_upper_bound", None),
    ("constants", "s_constant", "constants.s_constant", None),
    ("constants", "f_constant", "constants.f_constant", None),
    ("interpolation", "assemble", "interpolation.assemble", None),
    ("interpolation", "weak_sup_factor", "interpolation.weak_sup_factor", None),
    ("params", "make_grid", "params.make_grid", None),
    ("spectral", "embedding_sweep", "spectral.embedding_sweep", None),
    ("spectral", "bessel_apply", "spectral.bessel_apply", ("points", _bessel_points)),
    ("spectral", "lp_norm", "spectral.lp_norm", None),
    ("series", "mt_series_radius", "series.mt_series_radius", None),
    ("series", "term_ratios", "series.term_ratios", None),
    ("series", "mt_scaling_divergence", "series.mt_scaling_divergence", None),
    ("report", "write_table", "report.write_table", ("bytes", _table_bytes)),
    ("report", "compare_golden", "report.compare_golden", None),
)

# Constructors counted without a span: ExponentPair is built ~10^5 times per
# grid op, and only its call count is reported.
COUNT_TARGETS = (("params", "ExponentPair", "params.ExponentPair.calls"),)


# Every per-layer metric a traced op yields: each span's calls, total and self
# time, the hook and COUNT_TARGETS counters, and the failed checks the runner
# counts in the op's output
METRICS = frozenset(
    [f"{name}.{stat}" for _, _, name, _ in SPAN_TARGETS for stat in ("calls", "total_s", "self_s")]
    + [f"{name}.{hook[0]}" for _, _, name, hook in SPAN_TARGETS if hook]
    + [key for _, _, key in COUNT_TARGETS]
    + ["verify.failed_checks"]
)


class Tracer:
    """Span store for one process.  Spans are appended in call order; a
    span's parent is the span open when it started (-1 at top level)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.span_parent: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn: Callable, name: str, hook: Optional[Tuple[str, Callable]] = None) -> Callable:
        nid = self._name_id(name)
        key, measure = (f"{name}.{hook[0]}", hook[1]) if hook else (None, None)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends, counters = self.span_start, self.span_end, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if measure is not None:
                counters[key] = counters.get(key, 0) + measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn: Callable, key: str) -> Callable:
        counters = self.counters
        counters.setdefault(key, 0)

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def dump(self, path: Path) -> None:
        """Write the header (names, counters, span count) to path and the
        packed span arrays to path + '.bin'."""
        n = len(self.span_name)
        header = {"names": self.names, "counters": self.counters, "spans": n}
        Path(path).write_text(json.dumps(header, sort_keys=True))
        with open(f"{path}.bin", "wb") as handle:
            array("i", self.span_name).tofile(handle)
            array("i", self.span_parent).tofile(handle)
            array("d", self.span_start).tofile(handle)
            array("d", self.span_end).tofile(handle)


def _rebind(original, replacement) -> int:
    """Replace `original` in every loaded package module that bound it;
    returns how many namespaces were patched."""
    patched = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched += 1
    return patched


def install(tracer: Tracer) -> None:
    """Wrap every target; call after the whole package has been imported
    (importing sobolev_constants.cli imports every module)."""
    for mod, attr, name, hook in SPAN_TARGETS:
        original = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
        if _rebind(original, tracer.wrap(original, name, hook)) == 0:
            raise RuntimeError(f"no namespace binds {mod}.{attr}")
    for mod, attr, key in COUNT_TARGETS:
        cls = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
        # dataclass __init__ looks __post_init__ up on the class at call time
        cls.__post_init__ = tracer.count(cls.__post_init__, key)


def load_spans(path: Path) -> Tuple[List[str], Dict[str, int], List[Tuple[int, int, float, float]]]:
    header = json.loads(Path(path).read_text())
    n = header["spans"]
    with open(f"{path}.bin", "rb") as handle:
        cols = []
        for code in ("i", "i", "d", "d"):
            col = array(code)
            col.fromfile(handle, n)
            cols.append(col)
    return header["names"], header["counters"], list(zip(*cols))


def _covered(start: float, end: float, children: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of the child intervals, clipped to [start, end]."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        lo, hi = max(c_start, reach), min(c_end, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def aggregate(names: Sequence[str], spans: Sequence[Tuple[int, int, float, float]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total_s (spans not nested in a span of the same
    name, so recursion is not double counted) and self_s (duration minus the
    union of direct children)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name_id, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for idx, (name_id, parent, start, end) in enumerate(spans):
        entry = out[names[name_id]]
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - _covered(start, end, children.get(idx, ()))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["total_s"] += duration
    return out
