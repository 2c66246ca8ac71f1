"""Command-line front end.

Exit codes: 0 all checks pass, 1 at least one verification failure (failing
rows are listed), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
from pathlib import Path

from .constants import constant_report, constants_table
from .params import (
    ExponentPair,
    GroupGeometry,
    ParameterGrid,
    check_dimension,
    default_grid,
    grid_fingerprint,
    read_grid_config,
)
from .report import GoldenSnapshot, ResultTable, compare_golden, write_table


def _register_lazily(name: str) -> None:
    """Put the package module `name` in sys.modules and on the package
    without running its body, which runs on the first attribute read (the
    importlib.util.LazyLoader recipe).  These modules import numpy, which a
    point query never reads; registered, they are in sys.modules after
    `import sobolev_constants.cli`, where perfbench/tracer.py finds them."""
    qualified = f"{__package__}.{name}"
    if qualified in sys.modules:
        return
    spec = importlib.util.find_spec(qualified)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)


for _module in ("interpolation", "kernel", "series", "spectral", "verify"):
    _register_lazily(_module)

from . import kernel, spectral, verify  # each body runs on its first attribute read


def _geometry_from_args(args) -> GroupGeometry:
    return GroupGeometry(D=args.geom_growth, b=args.geom_b, c_delta=args.geom_c_delta)


def _grid_from_args(args) -> ParameterGrid:
    if args.config is not None:
        return read_grid_config(args.config)
    return default_grid()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolev-constants",
        description=(
            "Evaluate embedding constants, kernel envelopes and exponential-"
            "integrability thresholds, and verify the inequalities they obey."
        ),
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default="results", help="output directory for tables")
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--config", default=None, help="grid config file (key = v1, v2, ...)")
    geometry = argparse.ArgumentParser(add_help=False)
    geometry.add_argument("--geom-growth", type=float, default=1.0, help="exponential growth rate D")
    geometry.add_argument("--geom-b", type=float, default=1.0, help="Gaussian decay rate b")
    geometry.add_argument("--geom-c-delta", type=float, default=0.0, help="modular gradient norm c_delta")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_const = sub.add_parser("constants", parents=[output, grid], help="closed-form constant tables")
    p_const.add_argument("--p", type=float, default=None)
    p_const.add_argument("--q", type=float, default=None)
    p_const.add_argument("--alpha", type=float, default=None)
    p_const.add_argument("--d", type=int, default=None)

    sub.add_parser("interp", parents=[output, grid], help="interpolation assembly checks")

    p_kernel = sub.add_parser("kernel", parents=[output, geometry], help="kernel envelope checks")
    p_kernel.add_argument("--alpha", type=float, default=1.0, help="envelope profile order")
    p_kernel.add_argument("--d", type=int, default=3, help="envelope profile dimension")

    p_embed = sub.add_parser("embed", parents=[output, geometry], help="spectral embedding sweeps")
    p_embed.add_argument(
        "--dump-profiles", action="store_true", help="write (x, |f|) profiles for plotting"
    )

    sub.add_parser("mt", parents=[output], help="exponential-series checks")

    p_all = sub.add_parser("verify-all", parents=[output, grid, geometry], help="run every check")
    p_all.add_argument("--golden-dir", default="golden")
    p_all.add_argument("--bless", action="store_true", help="refresh golden snapshots")
    return parser


def _finish(result: verify.CheckResult, args) -> int:
    for table in result.tables:
        write_table(table, args.out, args.format)
    for line in result.lines:
        print(line)
    for failure in result.failures:
        print(f"failing check: {failure}", file=sys.stderr)
    return 0 if not result.failures else 1


def _point_constants(args) -> int:
    if args.config is not None:
        raise ValueError("point mode takes no --config")
    if args.d is None:
        raise ValueError("point mode needs --d")
    if args.q is None and args.alpha is None:
        raise ValueError("point mode needs --q or --alpha")
    if args.p is None:
        raise ValueError("point mode needs --p")
    if not args.p > 1.0:
        raise ValueError(f"--p must be > 1, got {args.p}")
    alpha = args.alpha
    if args.q is not None:
        if not args.q >= args.p:
            raise ValueError(f"--q must be >= --p, got q={args.q} < p={args.p}")
        check_dimension(args.d)
        implied = args.d * (1.0 / args.p - 1.0 / args.q)
        # agreement relative to alpha, with a few ulps of 1/p for the rounding of 1/p - 1/q
        if alpha is None:
            alpha = implied
        elif abs(implied - alpha) > 1e-9 * abs(alpha) + 4.0 * args.d * math.ulp(1.0 / args.p):
            raise ValueError(
                f"--q {args.q} and --alpha {alpha} disagree: the scaling relation "
                f"gives alpha = {implied:g}"
            )
    pair = ExponentPair(args.p, alpha, args.d)
    report = constant_report(pair)
    write_table(constants_table(report), args.out, args.format)
    print(f"p={pair.p:g} q={pair.q:g} alpha={pair.alpha:g} d={pair.d}")
    print(f"S        = {report.S:.12g}")
    print(f"Q        = {report.Q:.12g}")
    print(f"Q_dual   = {report.Q_dual:.12g}")
    print(f"F        = {report.F:.12g}")
    if report.E_H_tilde is not None:
        print(f"E_H_tilde = {report.E_H_tilde:.12g}")
        print(f"E_H_tilde/S = {report.ratio_EH_over_S:.12g}")
    return 0


def _run_constants(args) -> int:
    if any(v is not None for v in (args.p, args.q, args.alpha, args.d)):
        return _point_constants(args)
    grid = _grid_from_args(args)
    return _finish(verify.check_constants(grid), args)


def _run_interp(args) -> int:
    return _finish(verify.check_interpolation(_grid_from_args(args)), args)


def _run_kernel(args) -> int:
    geometry = _geometry_from_args(args)
    # validate the profile's order before the slow checks run
    profile = kernel.GreenKernelParams(args.alpha, args.d)
    return _finish(verify.check_kernel(geometry, profile), args)


def _run_embed(args) -> int:
    result = verify.check_spectral(_geometry_from_args(args))
    if args.dump_profiles:
        grid = spectral.TorusGrid(1, 128)
        table = ResultTable("field_profiles", ("width", "x", "abs_f"))
        for width in spectral.TRIAL_WIDTHS:
            f = spectral.gaussian_field(grid, width)
            xs = grid.axis_coordinates()
            for x, v in zip(xs, f.values):
                table.append((width, float(x), float(abs(v))))
        result.tables.append(table)
    return _finish(result, args)


def _run_mt(args) -> int:
    return _finish(verify.check_series(), args)


def _run_verify_all(args) -> int:
    geometry = _geometry_from_args(args)
    grid = _grid_from_args(args)
    result = verify.run_all_checks(grid, geometry)
    fingerprint = grid_fingerprint(grid, geometry)
    golden_dir = Path(args.golden_dir)
    if args.bless:
        # to_file refuses a non-finite value with ValueError (exit 2)
        path = GoldenSnapshot("fitted_constants", fingerprint, dict(result.fitted)).to_file(golden_dir)
        result.record(f"golden snapshot refreshed at {path}", True)
    else:
        golden_path = golden_dir / "fitted_constants.json"
        if not golden_path.exists():
            result.record(
                "golden snapshot comparison",
                False,
                f"no snapshot at {golden_path}; run with --bless to create it",
            )
        else:
            snapshot = GoldenSnapshot.from_file(golden_path)
            values = {key: value for key, (value, _) in result.fitted.items()}
            comparison = compare_golden(values, snapshot, fingerprint)
            detail = f"{comparison.checked} keys"
            if comparison.failures:
                detail = "; ".join(comparison.failures[:4])
            result.record("golden snapshot comparison", comparison.ok, detail)
    # built last, so the golden record gets a row too
    result.tables.append(ResultTable("summary", ("check", "pass"), list(result.checks)))
    return _finish(result, args)


_HANDLERS = {
    "constants": _run_constants,
    "interp": _run_interp,
    "kernel": _run_kernel,
    "embed": _run_embed,
    "mt": _run_mt,
    "verify-all": _run_verify_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return _HANDLERS[args.subcommand](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
