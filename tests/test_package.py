"""Every definition of the package is read by package code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
