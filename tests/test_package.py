"""Every definition of the package is read by package code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sobolev_constants"
TRACER = ROOT / "perfbench" / "tracer.py"


def _definitions_and_reads():
    """(name, module.name, whether it is a function or class) for each
    top-level definition of the package, and the names package code reads;
    a name that is only assigned is not read."""
    defined = set()
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((node.name, f"{path.stem}.{node.name}", True))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((t.id, f"{path.stem}.{t.id}", False) for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return defined, read


def test_every_public_definition_is_read_by_package_code():
    defined, read = _definitions_and_reads()
    unread = sorted(
        qualified
        for name, qualified, is_def in defined
        if is_def and not name.startswith("_") and name not in read
    )
    assert unread == [], unread


def test_every_top_level_name_is_read_by_package_code():
    # private helpers and module constants too
    defined, read = _definitions_and_reads()
    unread = sorted(qualified for name, qualified, _ in defined if name not in read)
    # the package version is read by whoever imports the package
    assert unread == ["__init__.__version__"], unread


def _tracer_targets():
    """(module, attribute) of each entry of the benchmark tracer's
    SPAN_TARGETS and COUNT_TARGETS, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    targets = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id in ("SPAN_TARGETS", "COUNT_TARGETS") for t in names):
                targets += [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return targets


def test_every_traced_name_is_defined_and_read_by_package_code():
    # a wrapped name that no package code reads always reports 0 calls
    defined, read = _definitions_and_reads()
    qualified = {q for _, q, _ in defined}
    targets = _tracer_targets()
    assert ("kernel", "quad") in targets and ("params", "ExponentPair") in targets
    missing = [f"{m}.{a}" for m, a in targets if f"{m}.{a}" not in qualified]
    unread = [f"{m}.{a}" for m, a in targets if a not in read]
    assert (missing, unread) == ([], []), (missing, unread)


def test_constants_and_params_import_without_numpy():
    # numpy is imported when ExponentArrays are built or read; a pair's
    # closed forms run on math, and report formats a numpy cell only when
    # numpy is already loaded
    code = (
        "import sys, sobolev_constants.report; "
        "from sobolev_constants.constants import constant_report, f_constant, lieb_upper_bound, s_constant; "
        "from sobolev_constants.params import ExponentPair; "
        "pair = ExponentPair(2.0, 1.0, 4); "
        "s_constant(pair), lieb_upper_bound(pair), constant_report(pair), f_constant(pair.p, pair.q); "
        "constant_report(ExponentPair(2.0, 0.0, 4)); "
        "print('numpy' in sys.modules)"
    )
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def test_no_module_imports_dataclasses():
    # the value types derive from params.Value; dataclasses and the inspect
    # it imports cost a point query about 12 ms
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = [node.module] if isinstance(node, ast.ImportFrom) else []
            names += [alias.name for alias in node.names] if isinstance(node, ast.Import) else []
            if "dataclasses" in names:
                importers.append(path.name)
    assert importers == []


def _value_types():
    """(type name, a function building one instance) for each value type; two
    calls build two instances from equal inputs."""
    import numpy as np

    from sobolev_constants import kernel, params, report, series, spectral, verify

    grid = spectral.TorusGrid(1, 8)
    makers = [
        lambda: params.ExponentPair(2.0, 1.0, 4),
        lambda: params.ExponentArrays([2.0], [1.0], [4]),
        lambda: params.GroupGeometry(2.0, 1.0, 0.5),
        lambda: params.ParameterGrid((2.0, 1.5), (0.5,), (1, 2)),
        lambda: report.GoldenSnapshot("fitted", "abc", {"k": (1.0, 0.1)}),
        lambda: kernel.GreenKernelParams(1.0, 3),
        lambda: kernel.CutoffSchedule(2.0, 1.0, 4),
        lambda: series.MTSeriesSpec(2.0, 1.0),
        lambda: spectral.TorusGrid(1, 8),
        lambda: spectral.SpectralField(grid, np.ones(8)),
        lambda: verify.CheckResult(fitted={"k": (1.0, 0.1)}),
    ]
    return [(make().__class__.__name__, make) for make in makers]


_IDENTITY_EQUALITY = ("ExponentArrays", "SpectralField")
_MUTABLE = ("GoldenSnapshot", "CheckResult")


_VALUE_TYPES = _value_types()


@pytest.mark.parametrize("name, make", _VALUE_TYPES, ids=[name for name, _ in _VALUE_TYPES])
def test_value_type_semantics(name, make):
    a, b = make(), make()
    fields = type(a)._fields
    assert fields and all(hasattr(a, field) for field in fields)
    for field in fields:
        if name in _MUTABLE:
            setattr(a, field, getattr(b, field))
            assert getattr(a, field) is getattr(b, field)
        else:
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):  # no instance dict holds an unknown name
        a.unknown = 1
    if name in _IDENTITY_EQUALITY:
        assert a == a and a != b and len({a, b}) == 2
    elif name in _MUTABLE:
        assert a == b and a is not b
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a == b and hash(a) == hash(b)
    assert a != object()


def test_value_type_reprs():
    from sobolev_constants.kernel import GreenKernelParams
    from sobolev_constants.params import ExponentArrays, ExponentPair, GroupGeometry

    # kernel error lines embed the GreenKernelParams text
    assert repr(GreenKernelParams(1.0, 3)) == "GreenKernelParams(alpha=1.0, d=3, a=1.0, b=1.0)"
    assert repr(GroupGeometry()) == "GroupGeometry(D=1.0, b=1.0, c_delta=0.0)"
    assert repr(ExponentPair(2.0, 1.0, 4)) == "ExponentPair(p=2.0, alpha=1.0, d=4, q=4.0)"
    assert "xp=" not in repr(ExponentArrays([2.0], [1.0], [4]))
    assert f"{ExponentPair(2.0, -0.0, 4).alpha:g}" == "0"


def test_check_results_share_no_list():
    from sobolev_constants.verify import CheckResult

    a, b = CheckResult(), CheckResult()
    a.record("check", True)
    a.tables.append(None)
    assert (b.checks, b.tables, b.fitted) == ([], [], {})
    assert CheckResult(fitted={"k": (1.0, 0.1)}).fitted == {"k": (1.0, 0.1)}


def test_cached_transforms_are_computed_once_and_read_only():
    import numpy as np

    from sobolev_constants.spectral import SpectralField, TorusGrid

    grid = TorusGrid(2, 8)
    field = SpectralField(grid, np.ones((8, 8)))
    for array in (grid.squared_frequencies, field.coeffs):
        assert not array.flags.writeable
    assert grid.squared_frequencies is grid.squared_frequencies and field.coeffs is field.coeffs
    assert grid == TorusGrid(2, 8) and repr(grid) == "TorusGrid(dim=2, n=8)"
