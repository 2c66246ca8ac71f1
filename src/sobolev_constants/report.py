"""Result tables, CSV/JSON emission with fixed numeric formatting, and
golden-snapshot regression.

Numbers are always rendered with 12 significant digits and LF line endings
so identical runs produce byte-identical files.  json is imported by the
JSON writer and the golden-snapshot files alone: a CSV table needs none.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .params import Value

SCHEMA_VERSION = "1"
NUMBER_FORMAT = "%.12g"  # every float cell, of every table and snapshot


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
        return NUMBER_FORMAT % v
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
        elif kind in ("b", "i", "u"):
            continue
        else:
            bad = [i for i, v in enumerate(column) if isinstance(v, floats) and not math.isfinite(v)]
        if bad:
            found.append((bad[0], j))
    if found:
        i, j = min(found)
        raise ValueError(f"refusing to serialize non-finite value {float(table.cells[j][i])}")


def _row_blocks(table: ResultTable, cell: Callable, separator: str, row_format: str) -> Iterator[List[str]]:
    """The table's rows as text, BLOCK_ROWS at a time: each row is one
    %-format of a template, the column specs joined by separator inside
    row_format: NUMBER_FORMAT for a float array, %d for an int array, and %s
    ("true"/"false" for a bool array, else cell(v) cell by cell) otherwise."""
    columns = []  # per column: its spec, and its block -> the spec's arguments
    for column in table.cells:
        kind = _array_kind(column)
        if kind in ("f", "i", "u"):
            columns.append((NUMBER_FORMAT if kind == "f" else "%d", lambda block: block.tolist()))
        elif kind == "b":
            columns.append(("%s", lambda block: map(_BOOL_CELLS.__getitem__, block.tolist())))
        else:
            columns.append(("%s", lambda block: map(cell, block)))
    template = row_format % separator.join(spec for spec, _ in columns)
    for start in range(0, len(table), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        rows = zip(*(to_values(column[start:stop]) for (_, to_values), column in zip(columns, table.cells)))
        yield list(map(template.__mod__, rows))


def write_table(table: ResultTable, directory, fmt: str = "csv") -> Path:
    """Write the table as <name>.csv or <name>.json under directory.

    CSV: header row, fields quoted as csv.writer quotes them (one empty field
    alone on its row as ""), 12 significant digits, LF endings.  JSON: object
    {schema_version, name, columns, rows} with the identical numeric
    formatting.  A table with a non-finite cell is refused before any file
    is opened.
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
                cell = _csv_cell if len(table.columns) > 1 else lambda v: _csv_cell(v) or '""'
                handle.write(",".join(map(cell, table.columns)) + "\n")
                for block in _row_blocks(table, cell, ",", "%s\n"):
                    handle.write("".join(block))
            else:
                handle.write(
                    "{\n"
                    f'  "schema_version": {_json_cell(SCHEMA_VERSION)},\n'
                    f'  "name": {_json_cell(table.name)},\n'
                    f'  "columns": [{", ".join(map(_json_cell, table.columns))}],\n'
                    '  "rows": [\n'
                )
                separator = ""
                for block in _row_blocks(table, _json_cell, ", ", "    [%s]"):
                    handle.write(separator + ",\n".join(block))
                    separator = ",\n"
                handle.write("\n  ]\n}\n")
    except OSError as exc:
        raise ValueError(f"cannot write table {table.name!r} under {directory}: {exc}") from exc
    return path


def _csv_cell(v) -> str:
    text = format_value(v)
    quoted = "," in text or '"' in text or "\n" in text
    return '"' + text.replace('"', '""') + '"' if quoted else text


def _json_cell(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        import json

        return json.dumps(v)
    return format_value(v)


class GoldenSnapshot(Value):
    """Named collection of fitted values with per-key relative tolerances
    (values: key -> (value, rel tolerance)), tied to the grid fingerprint it
    was produced from; mutable, so unhashable."""

    __slots__ = ("name", "grid_hash", "values")
    __setattr__, __hash__ = object.__setattr__, None

    def __init__(self, name: str, grid_hash: str, values: Dict[str, Tuple[float, float]]) -> None:
        self._set(name=name, grid_hash=grid_hash, values=values)

    def to_file(self, directory) -> Path:
        directory = Path(directory)
        path = directory / f"{self.name}.json"
        entries = ",\n".join(
            f'    {_json_cell(k)}: {{"value": {format_value(v)}, "tolerance": {format_value(tol)}}}'
            for k, (v, tol) in sorted(self.values.items())
        )
        try:  # a non-finite value has raised above, before the directory is made
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text(
                "{\n"
                f'  "name": {_json_cell(self.name)},\n'
                f'  "grid_hash": {_json_cell(self.grid_hash)},\n'
                '  "values": {\n' + entries + "\n  }\n}\n"
            )
        except OSError as exc:
            raise ValueError(f"cannot write golden snapshot {path}: {exc}") from None
        return path

    @classmethod
    def from_file(cls, path) -> "GoldenSnapshot":
        import json

        try:
            data = json.loads(Path(path).read_text())
            values = {k: (float(e["value"]), float(e["tolerance"])) for k, e in data["values"].items()}
            if not all(math.isfinite(v) and 0.0 <= tol < math.inf for v, tol in values.values()):
                raise ValueError("a value is not finite, or a tolerance is not in [0, inf)")
            return cls(name=data["name"], grid_hash=data["grid_hash"], values=values)
        except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
            raise ValueError(f"cannot read golden snapshot {path}: {type(exc).__name__}: {exc}") from None


def compare_golden(
    computed: Dict[str, float], golden: GoldenSnapshot, grid_hash: str
) -> Tuple[List[str], int]:
    """Per-key relative comparison of computed values against a snapshot:
    the failures, and the number of keys compared.

    A fingerprint mismatch fails loudly as 'grid or geometry changed'
    instead of producing a meaningless numeric diff; unknown and missing keys
    are failures.
    """
    if grid_hash != golden.grid_hash:
        mismatch = f"grid or geometry changed: run fingerprint {grid_hash} != snapshot {golden.grid_hash}"
        return [mismatch], 0
    unknown = sorted(computed.keys() - golden.values.keys())
    failures = [f"unknown key {key!r} (not in snapshot; re-bless to add)" for key in unknown]
    for key, (expected, tol) in sorted(golden.values.items()):
        if key not in computed:
            failures.append(f"missing value for snapshot key {key!r}")
            continue
        got = computed[key]
        scale = max(abs(expected), 1e-300)
        # written as a negation so that a nan value fails
        if not abs(got - expected) <= tol * scale:
            failures.append(
                f"{key}: got {got:.12g}, snapshot {expected:.12g} "
                f"(relative error {abs(got - expected) / scale:.3g} > tolerance {tol:g})"
            )
    return failures, len(golden.values.keys() & computed.keys())
