"""Result tables, CSV/JSON emission with fixed numeric formatting, and
golden-snapshot regression.

Numbers are always rendered with 12 significant digits and LF line endings
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

SCHEMA_VERSION = "1"


def format_value(v) -> str:
    if isinstance(v, np.generic):
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


@dataclass
class ResultTable:
    """Named table with a fixed column set; every row has one cell per
    column.  Producers emit rows already sorted by their input key."""

    name: str
    columns: Tuple[str, ...]
    rows: List[tuple] = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def append(self, row: tuple) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells, table {self.name!r} has {len(self.columns)} columns"
            )
        self.rows.append(tuple(row))


def write_table(table: ResultTable, directory, fmt: str = "csv") -> Path:
    """Write the table as <name>.csv or <name>.json under directory.

    CSV: header row, '.' decimal point, 12 significant digits, LF endings.
    JSON: object {schema_version, name, columns, rows} with the identical
    numeric formatting.
    """
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            path = directory / f"{table.name}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(table.columns)
                for row in table.rows:
                    writer.writerow([format_value(v) for v in row])
        elif fmt == "json":
            path = directory / f"{table.name}.json"
            rendered_rows = ",\n".join(
                "    [" + ", ".join(_json_cell(v) for v in row) + "]" for row in table.rows
            )
            body = (
                "{\n"
                f'  "schema_version": {json.dumps(table.schema_version)},\n'
                f'  "name": {json.dumps(table.name)},\n'
                f'  "columns": {json.dumps(list(table.columns))},\n'
                '  "rows": [\n' + rendered_rows + "\n  ]\n}\n"
            )
            path.write_text(body)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise ValueError(f"cannot write table {table.name!r} under {directory}: {exc}") from exc
    return path


def _json_cell(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    return format_value(v)


def read_csv_cells(path) -> Tuple[Tuple[str, ...], List[Tuple[str, ...]]]:
    """Read back a CSV table as raw string cells (header, rows)."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        rows = [tuple(r) for r in reader]
    if not rows:
        raise ValueError(f"{path}: empty table file")
    return rows[0], rows[1:]


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
    name: str
    ok: bool
    checked: int
    failures: List[str]


def compare_golden(
    computed: Dict[str, float], golden: GoldenSnapshot, grid_hash: str
) -> GoldenComparison:
    """Per-key relative comparison of computed values against a snapshot.

    A fingerprint mismatch fails loudly as 'grid changed' instead of
    producing a meaningless numeric diff; unknown and missing keys are
    failures.
    """
    if grid_hash != golden.grid_hash:
        return GoldenComparison(
            golden.name,
            False,
            0,
            [f"grid changed: run fingerprint {grid_hash} != snapshot {golden.grid_hash}"],
        )
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
        if abs(got - expected) > tol * scale:
            failures.append(
                f"{key}: got {got:.12g}, snapshot {expected:.12g} "
                f"(relative error {abs(got - expected) / scale:.3g} > tolerance {tol:g})"
            )
    return GoldenComparison(golden.name, not failures, checked, failures)
