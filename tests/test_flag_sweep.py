"""Every numeric flag of every subcommand, at extreme values: the run exits
0, 1 or 2, raises no warning and no exception, and an exit of 2 prints one
error line.

The suite turns warnings into errors, so a numpy warning escapes main as an
exception and fails the example.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolev_constants.cli import main

REPO_GOLDEN = Path(__file__).resolve().parent.parent / "golden"

EXTREME_FLOATS = (
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,  # the least normal double
    1e-300,
    1e300,
    -1e300,
    1.7976931348623157e308,
    -1.0,
    0.5,
    math.nextafter(1.0, 0.0),
    1.0,
    math.nextafter(1.0, 2.0),
    2.0,
)
EXTREME_INTS = (-1, 0, 1, 2, 3, 4, 300, 10**12, 10**400)

GEOMETRY = ("--geom-growth", "--geom-b", "--geom-c-delta")
# numeric flags per subcommand; interp and mt take none
FLOAT_FLAGS = {
    "constants": ("--p", "--q", "--alpha"),
    "kernel": GEOMETRY + ("--alpha",),
    "embed": GEOMETRY,
    "verify-all": GEOMETRY,
}
INT_FLAGS = {"constants": ("--d",), "kernel": ("--d",)}
# a valid run that the drawn flags perturb; other flags are at their defaults
BASE = {"constants": {"--p": 2.0, "--alpha": 1.0, "--d": 4}}
# each example that passes the boundary runs the subcommand's families
EXAMPLES = {"constants": 100, "kernel": 20, "embed": 20, "verify-all": 8}


@st.composite
def flag_values(draw, subcommand):
    """The subcommand's argv: one or two of its numeric flags absent or at an
    extreme value, the others as in BASE, written as --flag=value so that a
    negative value is not read as a flag."""
    extremes = {flag: EXTREME_FLOATS for flag in FLOAT_FLAGS[subcommand]}
    extremes.update({flag: EXTREME_INTS for flag in INT_FLAGS.get(subcommand, ())})
    chosen = draw(st.lists(st.sampled_from(sorted(extremes)), min_size=1, max_size=2, unique=True))
    flags = dict(BASE.get(subcommand, {}))
    flags.update({flag: draw(st.sampled_from((None,) + extremes[flag])) for flag in chosen})
    return [subcommand] + [f"{flag}={value!r}" for flag, value in flags.items() if value is not None]


def run_in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("subcommand", sorted(FLOAT_FLAGS))
def test_extreme_flags_exit_cleanly(subcommand):
    @settings(derandomize=True, database=None, deadline=None, max_examples=EXAMPLES[subcommand])
    @given(flag_values(subcommand))
    def sweep(argv):
        with tempfile.TemporaryDirectory() as out:
            extra = ["--golden-dir", str(REPO_GOLDEN)] if subcommand == "verify-all" else []
            code, stdout, stderr = run_in_process(argv + extra + ["--out", out])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr and "Warning" not in stderr, (argv, stderr)
        if code == 2:
            errors = [line for line in stderr.splitlines() if "error:" in line]
            assert len(errors) == 1, (argv, stderr)

    sweep()
