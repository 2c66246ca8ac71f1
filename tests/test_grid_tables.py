"""The grid tables, built as numpy columns and written in column blocks, are
byte for byte the tables of the per-pair reference (grid_reference.py)."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sobolev_constants.cli import main
from sobolev_constants.constants import REL_SLACK, constant_report, constants_table
from sobolev_constants.params import ExponentPair, ParameterGrid, default_grid
from sobolev_constants.report import BLOCK_ROWS, ResultTable, write_table
from sobolev_constants.verify import check_constants, check_interpolation

from grid_reference import RowTable, constants_rows, interpolation_rows, write_rows
from test_params import pair_inputs, scalar_grid

GRID_TABLES = ("constants", "marcinkiewicz")


def _cells(line: str, fmt: str) -> list:
    # a grid table holds numbers and bools only, so no cell contains a separator
    return line.strip().strip("[],").split(", ") if fmt == "json" else line.split(",")


def assert_same_file(path: Path, reference: Path, columns, fmt: str) -> None:
    """The two files are equal; otherwise name the first differing cell."""
    got, want = path.read_text(), reference.read_text()
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            for column, x, y in zip(columns, _cells(a, fmt), _cells(b, fmt)):
                if x != y:
                    pytest.fail(f"{path.name} line {i + 1} column {column}: wrote {x}, reference {y}")
            pytest.fail(f"{path.name} line {i + 1}: wrote {a!r}, reference {b!r}")
    pytest.fail(f"{path.name}: {len(got_lines)} lines, reference {len(want_lines)}")


def reference_tables(grid: ParameterGrid) -> list:
    pairs = scalar_grid(grid)
    reports = [constant_report(pair) for pair in pairs]
    return [constants_rows(reports), interpolation_rows(pairs)]


def assert_grid_tables_match(out: Path, grid: ParameterGrid, fmt: str) -> None:
    for table in reference_tables(grid):
        reference = write_rows(table, out / "reference", fmt)
        assert_same_file(out / f"{table.name}.{fmt}", reference, table.columns, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_default_grid_tables_match_the_reference(tmp_path, fmt, capsys):
    for command in ("constants", "interp"):
        assert main([command, "--out", str(tmp_path), "--format", fmt]) == 0
    assert_grid_tables_match(tmp_path, default_grid(), fmt)


@st.composite
def jittered_grids(draw):
    """Small grids inside the default span: p - 1 geometric over [0.05, 15]
    and fractions over [0.1, 0.9], each node jittered, d in 1..8."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    ps = draw(st.lists(unit, min_size=1, max_size=4, unique=True))
    fractions = draw(st.lists(unit, min_size=1, max_size=4, unique=True))
    ds = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3, unique=True))
    lo, hi = math.log(0.05), math.log(15.0)
    return ParameterGrid(
        tuple(1.0 + math.exp(lo + (hi - lo) * t) for t in ps),
        tuple(0.1 + 0.8 * t for t in fractions),
        tuple(ds),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(jittered_grids())
def test_jittered_grid_tables_match_the_reference(grid):
    with tempfile.TemporaryDirectory() as name:
        out = Path(name)
        tables = check_constants(grid).tables + check_interpolation(grid).tables
        for fmt in ("csv", "json"):
            for table in tables:
                if table.name in GRID_TABLES:
                    write_table(table, out, fmt)
            assert_grid_tables_match(out, grid, fmt)


def _known_cell(name, p, fraction, d, cell, numpy_differs, mpmath_value):
    """A one-pair grid whose array tables print cell one unit off in the 12th
    digit where numpy's exp or pow differs from libm's in the last bit of one
    intermediate (numpy_differs); the reference prints the correctly rounded
    value, which mpmath_value (40 digits, from the same doubles) shows."""
    mark = pytest.mark.xfail(
        numpy_differs,
        reason=f"numpy's SIMD exp/pow is not correctly rounded here; mpmath {mpmath_value}",
        raises=pytest.fail.Exception,
        strict=True,
    )
    return pytest.param(ParameterGrid((p,), (fraction,), (d,)), cell, marks=mark, id=name)


KNOWN_LAST_DIGIT_CELLS = [
    _known_cell(
        "marcinkiewicz-m0",
        4.0938848054613945,  # alpha = 0.45007013694957104, q = 5.556449782530572
        0.26321932786425395,
        7,
        "marcinkiewicz.csv line 2 column m0: wrote 6.85703252353, reference 6.85703252354",
        # e^x in the first m0 summand, x = (q2/p2) log(p2/p)
        np.exp(np.array([0.16945729682737065]))[0] != math.exp(0.16945729682737065),
        "6.8570325235350016",
    ),
    _known_cell(
        "constants-S",
        1.0001237911897853,  # alpha = 94.15835785226794, q = 2.499116182923956
        0.5998090052701573,
        157,
        "constants.csv line 2 column S: wrote 54.8698331496, reference 54.8698331497",
        # p'^(1 - 1/q') in Q_dual, which is S here
        np.power(np.array([8079.119305049598]), 0.4001414607423349)[0] != 8079.119305049598**0.4001414607423349,
        "54.869833149650013",
    ),
]


@pytest.mark.parametrize("grid, cell", KNOWN_LAST_DIGIT_CELLS)
def test_known_last_digit_cells(tmp_path, grid, cell):
    # strict xfail where numpy differs from libm: the test must fail, and name
    # exactly this cell; a pass there, or another cell, fails the test
    tables = check_constants(grid).tables + check_interpolation(grid).tables
    for table in tables:
        if table.name in GRID_TABLES:
            write_table(table, tmp_path, "csv")
    try:
        assert_grid_tables_match(tmp_path, grid, "csv")
    except pytest.fail.Exception as failed:
        assert str(failed) == cell
        raise


# ---------------------------------------------------------------------------
# the block writer against the row-by-row writer
# ---------------------------------------------------------------------------


def mixed_cells(n: int) -> dict:
    """Columns of every kind the writer formats: numpy floats, ints and bools,
    and lists of None, bools, ints, strings and numpy scalars."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    generic = [None, True, 7, "a,b", 'say "hi"', np.float64(0.1), np.int64(-3), np.bool_(False), -0.0, 2.5e-13]
    return {
        "x": x,
        "k": rng.integers(-(2**40), 2**40, n),
        "ok": x > 0.0,
        "cell": [generic[i % len(generic)] for i in range(n)],
        "name": [f"row {i}" for i in range(n)],
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7])
def test_block_writer_matches_the_row_writer(tmp_path, n, fmt):
    cells = mixed_cells(n)
    table = ResultTable.from_columns("mixed", cells)
    reference = RowTable("mixed", tuple(cells), list(zip(*cells.values())))
    assert list(zip(*table.cells)) == reference.rows
    path = write_table(table, tmp_path, fmt)
    assert path.read_bytes() == write_rows(reference, tmp_path / "reference", fmt).read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_row_built_tables_match_the_row_writer(tmp_path, fmt):
    rows = list(zip(*mixed_cells(BLOCK_ROWS + 3).values()))
    table = ResultTable("mixed", ("x", "k", "ok", "cell", "name"), rows)
    path = write_table(table, tmp_path, fmt)
    reference = RowTable("mixed", table.columns, rows)
    assert path.read_bytes() == write_rows(reference, tmp_path / "reference", fmt).read_bytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_float_columns_format_as_format_value(values):
    with tempfile.TemporaryDirectory() as name:
        for fmt in ("csv", "json"):
            path = write_table(ResultTable.from_columns("floats", {"v": np.array(values)}), name, fmt)
            reference = RowTable("floats", ("v",), [(v,) for v in values])
            assert path.read_bytes() == write_rows(reference, Path(name) / "reference", fmt).read_bytes()


def _written(table: ResultTable, directory: Path, fmt: str):
    """The bytes write_table writes for the table, or the message it refuses it with."""
    try:
        return write_table(table, directory, fmt).read_bytes()
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@example((3.0, 0.0, 7))  # alpha = 0: empty E_H_tilde cells
@given(pair_inputs)
def test_point_table_writes_as_its_numpy_form(inputs):
    # the point query's one-row table holds Python values; the reference wraps
    # each of the report's values in a numpy array and takes the pass cell by
    # the array expression ~(q >= p') | in_regime
    try:
        report = constant_report(ExponentPair(*inputs))
    except ValueError:
        assume(False)
    pair = report.pair
    p, q, qv, qd, fv, sv = (
        np.atleast_1d(v) for v in (pair.p, pair.q, report.Q, report.Q_dual, report.F, report.S)
    )
    regime = q >= p / (p - 1.0)
    in_regime = (0.25 * qv * (1.0 - REL_SLACK) <= fv) & (fv <= 4.0 * qv * (1.0 + REL_SLACK))
    in_regime &= qv <= qd * (1.0 + REL_SLACK)
    cells = {
        "d": pair.d,
        "p": p,
        "q": q,
        "alpha": pair.alpha,
        "S": sv,
        "Q": qv,
        "Q_dual": qd,
        "F": fv,
        "E_H_tilde": report.E_H_tilde,
        "ratio_EH_over_S": report.ratio_EH_over_S,
        "pass": (fv >= 0.25 * sv * (1.0 - REL_SLACK)) & (~regime | in_regime),
    }
    reference = ResultTable.from_columns("constants", {k: np.atleast_1d(v) for k, v in cells.items()})
    table = constants_table(report)
    assert all(type(column) is list for column in table.cells)
    with tempfile.TemporaryDirectory() as name:
        for fmt in ("csv", "json"):
            written = _written(table, Path(name) / "point", fmt)
            assert written == _written(reference, Path(name) / "reference", fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_cell_in_the_last_block_writes_nothing(tmp_path, fmt, bad):
    cells = mixed_cells(3 * BLOCK_ROWS + 5)
    cells["x"][-1] = bad
    with pytest.raises(ValueError, match=f"refusing to serialize non-finite value {bad}$"):
        write_table(ResultTable.from_columns("mixed", cells), tmp_path / "out", fmt)
    assert not (tmp_path / "out").exists()


def test_first_nonfinite_cell_in_row_order_is_named(tmp_path):
    table = ResultTable.from_columns(
        "t", {"a": np.array([1.0, 2.0, math.inf]), "b": [1.0, math.nan, 3.0], "c": np.array([-math.inf, 1.0, 1.0])}
    )
    with pytest.raises(ValueError, match="value -inf$"):
        write_table(table, tmp_path, "csv")
    table.cells[2][0] = 0.0
    with pytest.raises(ValueError, match="value nan$"):
        write_table(table, tmp_path, "csv")
    assert list(tmp_path.iterdir()) == []


def test_columns_of_unequal_length_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        ResultTable.from_columns("t", {"a": np.zeros(3), "b": [1, 2]})
