"""Every public function and class of the package is read by package code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sobolev_constants"

# name -> why it stays although no package code reads it
UNREAD_ALLOWED = {
    "kernel.local_bound_constant": "the benchmark's tracer binds it by name and refuses to install without it",
}


def test_every_public_definition_is_read_by_package_code():
    defined = {}
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = f"{path.stem}.{node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unread = sorted(qualified for name, qualified in defined.items() if name not in referenced)
    assert unread == sorted(UNREAD_ALLOWED), unread


def test_constants_and_params_import_without_numpy():
    # numpy is imported inside their array forms, when one is called
    code = "import sys, sobolev_constants.constants, sobolev_constants.params; print('numpy' in sys.modules)"
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr
