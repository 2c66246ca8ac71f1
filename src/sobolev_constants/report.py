"""Result tables, CSV/JSON emission with fixed numeric formatting, and
golden-snapshot regression.

Numbers are always rendered with 12 significant digits and LF line endings
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

SCHEMA_VERSION = "1"


def format_value(v) -> str:
    # a numpy scalar or array exists only if numpy is loaded, so this module
    # never imports it: the one-row table of a point query is Python values
    np = sys.modules.get("numpy")
    if np is not None and isinstance(v, np.generic):
        v = v.item()
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"refusing to serialize non-finite value {v}")
        return f"{v:.12g}"
    if isinstance(v, str):
        return v
    raise TypeError(f"unsupported cell type {type(v).__name__}")


class ResultTable:
    """Named table with a fixed column set, held by column: each column is a
    list or a numpy array, all of one length.  Producers emit rows already
    sorted by their input key."""

    def __init__(self, name: str, columns: Sequence[str], rows: Iterable[tuple] = ()) -> None:
        self.name = name
        self.columns = tuple(columns)
        self.cells: Tuple[Sequence, ...] = tuple([] for _ in self.columns)
        for row in rows:
            self.append(row)

    @classmethod
    def from_columns(cls, name: str, cells: Dict[str, Sequence]) -> "ResultTable":
        """A table whose columns are the values of cells, in its order."""
        if len({len(column) for column in cells.values()}) > 1:
            raise ValueError(f"columns of table {name!r} differ in length")
        table = cls(name, tuple(cells))
        table.cells = tuple(cells.values())
        return table

    def __len__(self) -> int:
        return len(self.cells[0])

    def column(self, name: str) -> Sequence:
        return self.cells[self.columns.index(name)]

    def append(self, row: tuple) -> None:
        """Add one row to a table built row by row (its columns are lists)."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table {self.name!r} has {len(self.columns)} columns"
            )
        for column, v in zip(self.cells, row):
            column.append(v)


BLOCK_ROWS = 1024  # rows formatted at a time: the memory stays flat on long tables

_BOOL_CELLS = ("false", "true")


def _format_floats(block) -> List[str]:
    return list(map("%.12g".__mod__, block.tolist()))


def _format_bools(block) -> List[str]:
    return list(map(_BOOL_CELLS.__getitem__, block.tolist()))


def _format_ints(block) -> List[str]:
    return list(map(str, block.tolist()))


_ARRAY_FORMATTERS = {"f": _format_floats, "b": _format_bools, "i": _format_ints, "u": _format_ints}


def _array_kind(column: Sequence) -> str:
    """The numpy dtype kind of a column held as an array, else "O"."""
    np = sys.modules.get("numpy")
    return column.dtype.kind if np is not None and isinstance(column, np.ndarray) else "O"


def _refuse_nonfinite(table: ResultTable) -> None:
    """Raise ValueError naming the first non-finite cell of the table in row
    order, if there is one."""
    np = sys.modules.get("numpy")
    floats = float if np is None else (float, np.floating)
    found = []  # (row, column index) of each column's first non-finite cell
    for j, column in enumerate(table.cells):
        kind = _array_kind(column)
        if kind == "f":
            bad = np.flatnonzero(~np.isfinite(column)).tolist()
        elif kind in _ARRAY_FORMATTERS:
            continue
        else:
            bad = [i for i, v in enumerate(column) if isinstance(v, floats) and not math.isfinite(v)]
        if bad:
            found.append((bad[0], j))
    if found:
        i, j = min(found)
        raise ValueError(f"refusing to serialize non-finite value {float(table.cells[j][i])}")


def _formatted_blocks(table: ResultTable, cell: Callable) -> Iterator[Iterator[tuple]]:
    """The table's rows as formatted cells, one block of BLOCK_ROWS rows at a
    time, each block formatted one column at a time: by dtype for a numpy
    array of floats, bools or ints, else by cell(v) cell by cell."""

    def by_cell(block):
        return [cell(v) for v in block]

    formatters = [_ARRAY_FORMATTERS.get(_array_kind(column), by_cell) for column in table.cells]
    for start in range(0, len(table), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        yield zip(*(fmt(column[start:stop]) for fmt, column in zip(formatters, table.cells)))


def write_table(table: ResultTable, directory, fmt: str = "csv") -> Path:
    """Write the table as <name>.csv or <name>.json under directory.

    CSV: header row, '.' decimal point, 12 significant digits, LF endings.
    JSON: object {schema_version, name, columns, rows} with the identical
    numeric formatting.  A table with a non-finite cell is refused before
    any file is opened.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    _refuse_nonfinite(table)
    directory = Path(directory)
    path = directory / f"{table.name}.{fmt}"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            if fmt == "csv":
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(table.columns)
                for block in _formatted_blocks(table, format_value):
                    writer.writerows(block)
            else:
                handle.write(
                    "{\n"
                    f'  "schema_version": {json.dumps(SCHEMA_VERSION)},\n'
                    f'  "name": {json.dumps(table.name)},\n'
                    f'  "columns": {json.dumps(list(table.columns))},\n'
                    '  "rows": [\n'
                )
                separator = ""
                for block in _formatted_blocks(table, _json_cell):
                    handle.write(separator + ",\n".join("    [" + ", ".join(row) + "]" for row in block))
                    separator = ",\n"
                handle.write("\n  ]\n}\n")
    except OSError as exc:
        raise ValueError(f"cannot write table {table.name!r} under {directory}: {exc}") from exc
    return path


def _json_cell(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    return format_value(v)


@dataclass
class GoldenSnapshot:
    """Named collection of fitted values with per-key relative tolerances,
    tied to the grid fingerprint it was produced from."""

    name: str
    grid_hash: str
    values: Dict[str, Tuple[float, float]]  # key -> (value, rel tolerance)

    def to_file(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        entries = ",\n".join(
            f'    {json.dumps(k)}: {{"value": {format_value(v)}, "tolerance": {format_value(tol)}}}'
            for k, (v, tol) in sorted(self.values.items())
        )
        path.write_text(
            "{\n"
            f'  "name": {json.dumps(self.name)},\n'
            f'  "grid_hash": {json.dumps(self.grid_hash)},\n'
            '  "values": {\n' + entries + "\n  }\n}\n"
        )
        return path

    @classmethod
    def from_file(cls, path) -> "GoldenSnapshot":
        data = json.loads(Path(path).read_text())
        values = {k: (float(e["value"]), float(e["tolerance"])) for k, e in data["values"].items()}
        return cls(name=data["name"], grid_hash=data["grid_hash"], values=values)


@dataclass
class GoldenComparison:
    ok: bool
    checked: int
    failures: List[str]


def compare_golden(
    computed: Dict[str, float], golden: GoldenSnapshot, grid_hash: str
) -> GoldenComparison:
    """Per-key relative comparison of computed values against a snapshot.

    A fingerprint mismatch fails loudly as 'grid or geometry changed'
    instead of producing a meaningless numeric diff; unknown and missing keys
    are failures.
    """
    if grid_hash != golden.grid_hash:
        mismatch = f"grid or geometry changed: run fingerprint {grid_hash} != snapshot {golden.grid_hash}"
        return GoldenComparison(False, 0, [mismatch])
    failures: List[str] = []
    for key in sorted(computed):
        if key not in golden.values:
            failures.append(f"unknown key {key!r} (not in snapshot; re-bless to add)")
    checked = 0
    for key in sorted(golden.values):
        if key not in computed:
            failures.append(f"missing value for snapshot key {key!r}")
            continue
        expected, tol = golden.values[key]
        got = computed[key]
        checked += 1
        scale = max(abs(expected), 1e-300)
        # written as a negation so that a nan value fails
        if not abs(got - expected) <= tol * scale:
            failures.append(
                f"{key}: got {got:.12g}, snapshot {expected:.12g} "
                f"(relative error {abs(got - expected) / scale:.3g} > tolerance {tol:g})"
            )
    return GoldenComparison(not failures, checked, failures)
