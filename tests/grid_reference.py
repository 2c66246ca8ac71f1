"""Reference for the grid tables: each row built from one ExponentPair with
one constant_report or assemble call, and written one row at a time with
format_value per cell.

These are the per-pair assembly, row builders, pointwise bounds and table
writer that the package used before it built the constants and
marcinkiewicz tables as numpy columns and assembled over arrays only;
test_grid_tables holds the package's files to theirs byte for byte, and
test_interpolation holds the array assembly to this one.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

from sobolev_constants.constants import REL_SLACK, ConstantReport
from sobolev_constants.interpolation import MarcinkiewiczData
from sobolev_constants.params import ExponentPair, conjugate_exponent, solve_q
from sobolev_constants.report import SCHEMA_VERSION, format_value


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
# the per-pair assembly
# ---------------------------------------------------------------------------


def endpoints(pair: ExponentPair) -> tuple[float, float, float, float]:
    """Endpoint exponents (p1, q1, p2, q2) flanking (p, q): reciprocals
    (1, 1 - alpha/d) and (alpha/d + 1/(q+1), 1/(q+1)).

    p1 = 1 and q2 = q + 1 exactly.
    """
    if pair.alpha <= 0.0:
        raise ValueError("endpoints need alpha > 0 (for alpha = 0 nothing is interpolated)")
    q1 = solve_q(1.0, pair.alpha, pair.d)
    p2 = 1.0 / (pair.alpha / pair.d + 1.0 / (pair.q + 1.0))
    return 1.0, q1, p2, pair.q + 1.0


def theta(pair: ExponentPair) -> float:
    """Interpolation weight (1 - 1/p) / (1 - alpha/d - 1/(q+1)); satisfies
    both convex-combination identities 1/p = (1-t)/p1 + t/p2 and
    1/q = (1-t)/q1 + t/q2."""
    if pair.alpha <= 0.0:
        raise ValueError("theta needs alpha > 0")
    denom = 1.0 - pair.alpha / pair.d - 1.0 / (pair.q + 1.0)
    # 1 - alpha/d = 1/p' + 1/q > 1/(q+1) for every valid pair
    if not denom > 0.0:
        raise ValueError(f"impossible endpoint gap for {pair}")
    return (1.0 - 1.0 / pair.p) / denom


def m1(alpha: float, d: int) -> float:
    """Endpoint weak-(1, q1) norm alpha^{-(1 - alpha/d)}; at most d/alpha."""
    if not (0.0 < alpha < d):
        raise ValueError(f"need 0 < alpha < d, got alpha={alpha}, d={d}")
    return math.exp(-(1.0 - alpha / d) * math.log(alpha))


def m2(pair: ExponentPair) -> float:
    """Weak-(p2, q2) norm

        (d^{alpha/d}/alpha) (alpha/d)^{e1} [(1 - alpha/d - 1/(q+1))(q+1)]^{e1 - alpha/d}

    with e1 = (alpha/d)/(alpha/d + 1/(q+1))."""
    if pair.alpha <= 0.0:
        raise ValueError("m2 needs alpha > 0")
    a = pair.alpha
    d = float(pair.d)
    q = pair.q
    ad = a / d
    z = ad + 1.0 / (q + 1.0)
    e1 = ad / z
    bracket = (1.0 - z) * (q + 1.0)
    log_m2 = ad * math.log(d) - math.log(a) + e1 * math.log(ad) + (e1 - ad) * math.log(bracket)
    return math.exp(log_m2)


def m0(pair: ExponentPair) -> float:
    """Strong-type assembly constant q (p2/p)^{q2/p2}/(q2 - q)
    + (q/p^{q1})/(q - q1), with the endpoints of the pair."""
    _, q1, p2, q2 = endpoints(pair)
    p, q = pair.p, pair.q
    if not q1 < q < q2:
        raise ValueError(f"q must lie strictly between the endpoint exponents for {pair}")
    first = q * math.exp((q2 / p2) * math.log(p2 / p)) / (q2 - q)
    second = q * math.exp(-q1 * math.log(p)) / (q - q1)
    return first + second


def assemble(pair: ExponentPair) -> MarcinkiewiczData:
    """Assemble m0^{1/q} m1^{1-theta} m2^theta and its ratio to the target
    shape ((d - alpha)/alpha) p' q^{1 - 1/p}."""
    ends = endpoints(pair)
    th = theta(pair)
    v0 = m0(pair)
    v1 = m1(pair.alpha, pair.d)
    v2 = m2(pair)
    assembled = math.exp(
        math.log(v0) / pair.q + (1.0 - th) * math.log(v1) + th * math.log(v2)
    )
    rhs_shape = (
        (pair.d - pair.alpha)
        / pair.alpha
        * pair.p_conj
        * math.exp((1.0 - 1.0 / pair.p) * math.log(pair.q))
    )
    ratio = assembled / rhs_shape
    if not math.isfinite(ratio):
        raise ValueError(f"non-finite assembly ratio for {pair}")
    return MarcinkiewiczData(pair, *ends, th, v0, v1, v2, assembled, rhs_shape, ratio)


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
        ("d", "p", "q", "alpha", "S", "Q", "Q_dual", "F", "E_H_tilde", "ratio_EH_over_S", "pass"),
    )
    for r in reports:
        pair = r.pair
        p, q = pair.p, pair.q
        qv, qd, fv, sv = r.Q, r.Q_dual, r.F, r.S
        # the comparison claims: on q >= p', Q/4 <= F <= 4Q and Q <= Q_dual; F >= S/4
        ok = fv >= 0.25 * sv * (1.0 - REL_SLACK)
        if q >= conjugate_exponent(p):
            ok = ok and (0.25 * qv * (1.0 - REL_SLACK) <= fv <= 4.0 * qv * (1.0 + REL_SLACK))
            ok = ok and qv <= qd * (1.0 + REL_SLACK)
        table.rows.append(
            (pair.d, p, q, pair.alpha, sv, qv, qd, fv, r.E_H_tilde, r.ratio_EH_over_S, ok)
        )
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
