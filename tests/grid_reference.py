"""Reference for the grid tables: each row built from one ExponentPair with
one constant_report or assemble call, and written one row at a time with
format_value per cell.

These are the per-pair row builders, pointwise bounds and table writer that
the package used before it built the constants, comparison_claims and
marcinkiewicz tables as numpy columns; test_grid_tables holds the package's
files to theirs byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

from sobolev_constants.constants import ConstantReport
from sobolev_constants.interpolation import assemble, theta
from sobolev_constants.params import ExponentPair, conjugate_exponent
from sobolev_constants.report import SCHEMA_VERSION, format_value
from sobolev_constants.verify import REL_SLACK


@dataclass
class RowTable:
    name: str
    columns: Tuple[str, ...]
    rows: List[tuple] = field(default_factory=list)


def write_rows(table: RowTable, directory, fmt: str) -> Path:
    """Write the table as <name>.csv or <name>.json, one row at a time."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = directory / f"{table.name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(table.columns)
            for row in table.rows:
                writer.writerow([format_value(v) for v in row])
        return path
    path = directory / f"{table.name}.json"
    rendered_rows = ",\n".join(
        "    [" + ", ".join(_json_cell(v) for v in row) + "]" for row in table.rows
    )
    body = (
        "{\n"
        f'  "schema_version": {json.dumps(SCHEMA_VERSION)},\n'
        f'  "name": {json.dumps(table.name)},\n'
        f'  "columns": {json.dumps(list(table.columns))},\n'
        '  "rows": [\n' + rendered_rows + "\n  ]\n}\n"
    )
    path.write_text(body)
    return path


def _json_cell(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    return format_value(v)


# ---------------------------------------------------------------------------
# the pointwise bounds of the marcinkiewicz pass column, one pair at a time
# ---------------------------------------------------------------------------


def m1_bound(alpha: float, d: int) -> float:
    return d / alpha


def m0_tail_term(p: float, q: float) -> float:
    pp = conjugate_exponent(p)
    return math.exp(-(pp * q / (q + pp)) * math.log(p)) * (1.0 + pp / q)


def m0_bound(pair: ExponentPair) -> float:
    return math.e * pair.q + m0_tail_term(pair.p, pair.q)


def m2_theta_bound(pair: ExponentPair) -> float:
    th = theta(pair)
    return 2.0 * math.exp(
        th * math.log(pair.d)
        + (1.0 - 1.0 / pair.p) * math.log(pair.q / pair.p)
        - th * math.log(pair.alpha)
    )


def assembled_bound(pair: ExponentPair) -> float:
    return (
        2.0
        * pair.d
        / pair.alpha
        * m0_bound(pair) ** (1.0 / pair.q)
        * math.exp((1.0 - 1.0 / pair.p) * math.log(pair.q / pair.p))
    )


# ---------------------------------------------------------------------------
# the row builders
# ---------------------------------------------------------------------------


def constants_rows(reports: List[ConstantReport]) -> RowTable:
    table = RowTable(
        "constants",
        ("d", "p", "q", "alpha", "S", "Q", "Q_dual", "F", "E_H_tilde", "ratio_EH_over_S"),
    )
    for r in reports:
        pair = r.pair
        table.rows.append(
            (pair.d, pair.p, pair.q, pair.alpha, r.S, r.Q, r.Q_dual, r.F, r.E_H_tilde, r.ratio_EH_over_S)
        )
    return table


def comparison_claims_rows(reports: List[ConstantReport]) -> RowTable:
    table = RowTable(
        "comparison_claims",
        ("d", "p", "q", "alpha", "regime_q_ge_pconj", "Q", "Q_dual", "F", "S", "pass"),
    )
    for r in reports:
        pair = r.pair
        p, q = pair.p, pair.q
        qv, qd, fv, sv = r.Q, r.Q_dual, r.F, r.S
        regime = q >= conjugate_exponent(p)
        ok = fv >= 0.25 * sv * (1.0 - REL_SLACK)
        if regime:
            ok = ok and (0.25 * qv * (1.0 - REL_SLACK) <= fv <= 4.0 * qv * (1.0 + REL_SLACK))
            ok = ok and qv <= qd * (1.0 + REL_SLACK)
        table.rows.append((pair.d, p, q, pair.alpha, regime, qv, qd, fv, sv, ok))
    return table


def interpolation_rows(pairs: List[ExponentPair]) -> RowTable:
    table = RowTable(
        "marcinkiewicz",
        (
            "d",
            "p",
            "q",
            "alpha",
            "theta",
            "m0",
            "m1",
            "m2",
            "assembled",
            "ipq_rhs_shape",
            "ratio",
            "identity_err_p",
            "identity_err_q",
            "pass",
        ),
    )
    for pair in pairs:
        md = assemble(pair)
        th = md.theta
        err_p = abs(1.0 / pair.p - ((1.0 - th) / md.p1 + th / md.p2))
        err_q = abs(1.0 / pair.q - ((1.0 - th) / md.q1 + th / md.q2))
        ok = err_p <= 1e-10 and err_q <= 1e-10
        ok = ok and md.m1 <= m1_bound(pair.alpha, pair.d) * (1.0 + REL_SLACK)
        ok = ok and md.m0 <= m0_bound(pair) * (1.0 + REL_SLACK)
        m2_theta = math.exp(th * math.log(md.m2))
        ok = ok and m2_theta <= m2_theta_bound(pair) * (1.0 + REL_SLACK)
        ok = ok and md.assembled <= assembled_bound(pair) * (1.0 + REL_SLACK)
        table.rows.append(
            (
                pair.d,
                pair.p,
                pair.q,
                pair.alpha,
                th,
                md.m0,
                md.m1,
                md.m2,
                md.assembled,
                md.ipq_rhs_shape,
                md.ratio,
                err_p,
                err_q,
                ok,
            )
        )
    return table
