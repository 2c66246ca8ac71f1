"""Verification sweeps.

Each check_* function runs one family of assertions at desk scale and
returns a CheckResult: its result tables, the fitted (grid-dependent)
constants with the golden tolerance each is regressed at, and one
(text, passed) record per check.  Each table with a pass column backs one
check (record_table), which passes exactly when every row of the table has
a true pass cell; interpolation.assemble returns the marcinkiewicz table
whole, as constants.constant_report returns the constants table.  The
printed [PASS]/[FAIL] lines, the failure list and summary.csv are all
rendered from the check records.  Everything is deterministic: random draws
are uniforms from random.Random(seed).random() at fixed seeds, a stream that
Python keeps the same across versions for an integer seed (numpy's Generator
streams carry no such promise, NEP 19), and reductions run in a fixed order,
so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

import numpy as np

from .constants import (
    b1_multiplier_bound,
    constant_report,
    f_constant,
    lieb_upper_bound,
    s_constant,
)
from .interpolation import assemble, weak_sup_factor
from .kernel import (
    R_GLOBAL_MAX,
    R_LOCAL_MIN,
    R_SPLIT,
    CutoffSchedule,
    GreenKernelParams,
    cutoff_s,
    global_bound_constant,
    green_kernel_params_from_geometry,
    green_kernel_upper,
    kalpha_norms,
    kalpha_norms_quadrature,
    local_bound_constant,
    tilde_k_norm,
)
from .params import (
    ExponentArrays,
    ExponentPair,
    GroupGeometry,
    ParameterGrid,
    Value,
    make_grid,
    refine_grid,
    tau_delta,
)
from .report import ResultTable
from .series import (
    MTSeriesSpec,
    mt_scaling_divergence,
    mt_series_radius,
    s_majorant_gap,
    term_ratios,
)
from .spectral import (
    TRIAL_WIDTHS,
    TorusGrid,
    bessel_apply,
    embedding_ratio,
    embedding_sweep,
    gagliardo_interp_check,
    gaussian_field,
    interpolation_check,
    lp_norm,
    mt_functional,
    refined_widths,
)


def _uniform(draw, lo: float, hi: float) -> float:
    """lo + (hi - lo) u for the next u = draw() of a random.Random(seed).random."""
    return lo + (hi - lo) * draw()


def _violations(table: ResultTable) -> int:
    return len(table) - int(np.count_nonzero(table.column("pass")))


class CheckResult(Value):
    """The tables, the fitted values (key -> (value, rel tolerance)) and the
    checks ((name plus " (detail)", passed)) of a run.  Each starts empty,
    fitted unless given; mutable, so unhashable."""

    __slots__ = ("tables", "fitted", "checks")
    __setattr__, __hash__ = object.__setattr__, None

    def __init__(self, fitted: Dict[str, Tuple[float, float]] = None) -> None:
        self.tables: List[ResultTable] = []
        self.fitted = {} if fitted is None else fitted
        self.checks: List[Tuple[str, bool]] = []

    @property
    def lines(self) -> List[str]:
        return [f"[{'PASS' if ok else 'FAIL'}] {text}" for text, ok in self.checks]

    @property
    def failures(self) -> List[str]:
        return [text for text, ok in self.checks if not ok]

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((f"{name} ({detail})" if detail else name, bool(ok)))

    def record_table(self, table: ResultTable, name: str, detail: str = "") -> None:
        """Append the table; the check passes iff every row's pass cell is true."""
        self.tables.append(table)
        self.record(name, _violations(table) == 0, detail)

    def merge(self, other: "CheckResult") -> None:
        self.tables.extend(other.tables)
        self.fitted.update(other.fitted)
        self.checks.extend(other.checks)


# ---------------------------------------------------------------------------
# constants: duality, comparison claims, comparability bands, multiplier bound
# ---------------------------------------------------------------------------


_DUALITY_DRAWS = 10_000


def check_duality(result: CheckResult) -> None:
    draw = random.Random(20240811).random
    n = _DUALITY_DRAWS
    d = np.array([1 + math.floor(4.0 * draw()) for _ in range(n)])
    p = 1.0 + np.exp([_uniform(draw, math.log(0.02), math.log(50.0)) for _ in range(n)])
    frac = np.array([_uniform(draw, 0.01, 0.99) for _ in range(n)])
    pairs = ExponentArrays(p, frac * d / p, d)
    dual = pairs.dual()
    s1, s2 = s_constant(pairs), s_constant(dual)
    f1, f2 = f_constant(pairs.p, pairs.q), f_constant(dual.p, dual.q)
    max_s = float(np.max(np.abs(s1 - s2) / s1))
    max_f = float(np.max(np.abs(f1 - f2) / f1))
    ok = max_s <= 1e-12 and max_f <= 1e-12
    result.record(
        "duality symmetry of S and F on random pairs",
        ok,
        f"max rel err S={max_s:.2e}, F={max_f:.2e}, n={_DUALITY_DRAWS}",
    )


def check_constants(grid: ParameterGrid) -> CheckResult:
    result = CheckResult()
    pairs = make_grid(grid)
    table = constant_report(pairs)
    refined = refine_grid(grid)
    refined_pairs = make_grid(refined)
    with np.errstate(over="ignore"):  # an infinite ratio fails the band check below
        ratios = lieb_upper_bound(refined_pairs) / s_constant(refined_pairs)
    ratios = ratios.reshape(len(refined.d_values), len(refined.p_values), len(refined.alpha_fractions))

    check_duality(result)

    result.record_table(
        table,
        "comparison claims (F vs Q vs S) pointwise on the grid",
        f"{_violations(table)} violations over {len(pairs)} pairs",
    )

    # the grid is the sub-grid of the refined grid at its own axis values
    on_grid = np.ix_(
        np.searchsorted(refined.p_values, grid.p_values),
        np.searchsorted(refined.alpha_fractions, grid.alpha_fractions),
    )
    band_table = ResultTable("b3_bands", ("d", "band", "band_refined", "rel_change", "pass"))
    for d, d_ratios in zip(grid.d_values, ratios):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            band, band_refined = (float(r.max() / r.min()) for r in (d_ratios[on_grid], d_ratios))
        if not (math.isfinite(band) and math.isfinite(band_refined)):
            raise ValueError(f"comparability band max/min of E_H_tilde/S is not finite for d={d}")
        change = abs(band_refined - band) / band
        band_table.append((d, band, band_refined, change, change <= 0.05))
        result.fitted[f"B3_band_d{d}"] = (band, 0.05)
    result.record_table(band_table, "comparability band finite and refinement-stable (5%)")

    b1_table = ResultTable("b1_multiplier", ("alpha", "value", "expected", "pass"))
    for alpha in (0.5, 1.0, 2.0):
        v = b1_multiplier_bound(alpha)
        b1_table.append((alpha, v, 2.0, abs(v - 2.0) <= 1e-10))
    for alpha in (2.5, 3.0, 3.5):
        v = b1_multiplier_bound(alpha)
        b1_table.append((alpha, v, None, math.isfinite(v)))
    result.record_table(b1_table, "multiplier total-variation bound (2 below alpha = 2, finite to 3.5)")
    return result


# ---------------------------------------------------------------------------
# interpolation: assembly identities, intermediate bounds, fitted C, weak sup
# ---------------------------------------------------------------------------


def check_interpolation(grid: ParameterGrid) -> CheckResult:
    result = CheckResult()
    pairs = make_grid(grid)
    table = assemble(pairs)
    result.record_table(
        table,
        "assembly identities and intermediate bounds pointwise",
        f"{_violations(table)} violations over {len(pairs)} pairs",
    )

    refined = assemble(make_grid(refine_grid(grid)))
    ratios = (t.column("ratio").reshape(len(grid.d_values), -1) for t in (table, refined))
    grid_max, refined_max = (r.max(axis=1) for r in ratios)
    global_max = float(grid_max.max())
    stable = abs(float(refined_max.max()) - global_max) / global_max <= 0.05
    for d, value, value_refined in zip(grid.d_values, grid_max.tolist(), refined_max.tolist()):
        result.fitted[f"ipq_C_d{d}"] = (value, 0.05)
        stable = stable and abs(value_refined - value) / value <= 0.05
    result.fitted["ipq_C_global"] = (global_max, 0.05)
    result.record(
        "fitted strong-type ratio bound refinement-stable (5%)",
        stable,
        f"global C={global_max:.6g}",
    )

    sup_table = ResultTable("weak_sup", ("p", "q", "value", "pass"))
    draw = random.Random(20240812).random
    for _ in range(50):
        p_t = 1.0 + math.exp(_uniform(draw, math.log(0.02), math.log(20.0)))
        frac = _uniform(draw, 0.05, 0.95)
        q_t = ExponentPair(p_t, frac / p_t, 1).q
        v = weak_sup_factor(p_t, q_t)
        sup_table.append((p_t, q_t, v, (1.0 - 1e-6) <= v <= 1.0 + 1e-12))
    result.record_table(sup_table, "weak-type supremum factor equals 1 from below")
    return result


# ---------------------------------------------------------------------------
# kernel: envelope suprema, stability, precondition, closed-form agreement
# ---------------------------------------------------------------------------

_LOCAL_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def envelope_table(kp: GreenKernelParams, g: GroupGeometry, n_points: int = 80) -> ResultTable:
    """Plot-ready (r, green, normalized_local, log_normalized_global) profile;
    the global column is log(green e^{(2D + b0) r}), which stays finite where
    the weighted envelope itself leaves the double range."""
    table = ResultTable("envelope", ("r", "green", "normalized_local", "log_normalized_global"))
    scale = (kp.d - kp.alpha) / kp.alpha
    for r in np.geomspace(R_LOCAL_MIN, R_GLOBAL_MAX, n_points):
        r = float(r)
        green = green_kernel_upper(r, kp)
        loc = green * r ** (kp.d - kp.alpha) * scale if r <= R_SPLIT else None
        glob = math.log(green) + g.weight_rate * r if r >= R_SPLIT else None
        table.append((r, green, loc, glob))
    return table


def check_kernel(
    geometry: GroupGeometry, profile: GreenKernelParams = GreenKernelParams(1.0, 3)
) -> CheckResult:
    """The kernel checks, plus the envelope profile table of `profile`."""
    result = CheckResult()

    local_table = ResultTable(
        "kernel_local", ("d", "alpha", "sup", "sup_tight", "rel_change", "pass")
    )
    cases = [(d, frac) for d in (1, 2, 3) for frac in _LOCAL_FRACTIONS]
    profiles = [GreenKernelParams(frac * d, d) for d, frac in cases]
    # the fast split rule, one pass for every profile, against adaptive quad
    # at each arg-sup radius
    for (d, frac), kp, (r_star, v) in zip(cases, profiles, local_bound_constant(*profiles)):
        green_tight = green_kernel_upper(r_star, kp, rel_tol=1e-9)
        v_tight = green_tight * r_star ** (d - kp.alpha) * (d - kp.alpha) / kp.alpha
        change = abs(v_tight - v) / v
        local_table.append((d, frac * d, v, v_tight, change, math.isfinite(v) and change <= 0.02))
        result.fitted[f"kernel_local_sup_d{d}_f{int(round(frac * 10))}"] = (v, 0.02)
    result.record_table(local_table, "local kernel envelope finite and quadrature-stable (2%)")

    global_table = ResultTable("kernel_global", ("d", "alpha", "a", "sup", "pass"))
    for d in (1, 2, 3):
        kp = green_kernel_params_from_geometry(0.5 * d, d, geometry)
        v = global_bound_constant(kp, geometry)
        global_table.append((d, 0.5 * d, kp.a, v, math.isfinite(v)))
        result.fitted[f"kernel_global_sup_d{d}"] = (v, 0.02)
    result.record_table(global_table, "global kernel envelope finite under the shift precondition")

    # the default shift clamps at 1, so a threshold at or below 1 leaves nothing to reject
    rejected = geometry.shift_threshold <= 1.0 + 1e-9
    if not rejected:
        try:
            global_bound_constant(GreenKernelParams(0.5, 1, 1.0, geometry.b), geometry)
        except ValueError:
            rejected = True
    result.record("below-threshold shift rejected by the global envelope", rejected)

    agreement = ResultTable(
        "kalpha_agreement",
        ("d", "alpha", "s", "r_exp", "l1_closed", "l1_quad", "outer_closed", "outer_quad", "pass"),
    )
    r_exps = (1.0, 1.7, 3.0)
    for d in (1, 2, 3):
        for frac in (0.25, 0.5, 0.75):
            for s in (0.25, 0.5, 1.0):
                alpha = frac * d
                # one inner integral serves every r_exp
                l1q, *outer_quads = kalpha_norms_quadrature(alpha, d, s, *r_exps)
                for r_exp, outq in zip(r_exps, outer_quads):
                    l1c, outc = kalpha_norms(alpha, d, s, r_exp)
                    ok = abs(l1c - l1q) <= 1e-8 * l1c
                    if outc > 0.0:
                        ok = ok and abs(outc - outq) <= 1e-8 * outc
                    else:
                        ok = ok and outq == 0.0
                    agreement.append((d, alpha, s, r_exp, l1c, l1q, outc, outq, ok))
    result.record_table(agreement, "closed-form kernel norms match direct quadrature (1e-8)")

    cutoff_table = ResultTable("cutoff", ("mode", "p", "q", "alpha", "d", "max_s", "pass"))
    t_grid = np.geomspace(1e-6, 1e6, 61)
    cases = [(p_t, frac * d / p_t, d) for p_t, frac, d in ((2.0, 0.5, 4), (1.5, 0.3, 2), (4.0, 0.8, 3))]
    for p_t, alpha, d in cases + [(1.0, 1.0, 3), (1.0, 0.5, 1)]:
        sched = CutoffSchedule(p_t, alpha, d)
        max_s = max(cutoff_s(float(t), sched) for t in t_grid)
        mode = "endpoint" if p_t == 1.0 else "integrable"
        cutoff_table.append((mode, p_t, sched.q_t, alpha, d, max_s, max_s <= 1.0 + 1e-15))
    result.record_table(cutoff_table, "cutoff schedules stay at or below 1")

    shell_table = ResultTable("shell_sums", ("r_exp", "tilde_k", "pass"))
    for r_exp in (1.0, 1.5, 2.0):
        t = tilde_k_norm(r_exp, geometry)
        shell_table.append((r_exp, t, math.isfinite(t)))
    result.record_table(shell_table, "shell sums finite")

    result.tables.append(envelope_table(profile, geometry))
    return result


# ---------------------------------------------------------------------------
# series: radius vs closed form, majorant, scaling divergence, term ratios
# ---------------------------------------------------------------------------


def check_series() -> CheckResult:
    result = CheckResult()
    radius_table = ResultTable(
        "mt_radius", ("p", "c", "radius", "closed_form", "product", "pass")
    )
    ratio_table = ResultTable("mt_term_ratios", ("p", "c", "gamma_over_radius", "crossings", "pass"))
    for p in (1.5, 2.0, 3.0, 4.0):
        for c in (0.5, 1.0, 2.0):
            spec = MTSeriesSpec(p, c)
            radius = mt_series_radius(spec)
            closed = spec.threshold
            product = radius / closed
            radius_table.append((p, c, radius, closed, product, 0.98 <= product <= 1.02))
            for factor in (0.9, 1.1):
                ratios = term_ratios(spec, factor * radius)
                crossings = np.count_nonzero((ratios[:-1] < 1.0) & (ratios[1:] >= 1.0))
                if factor < 1.0:
                    ok = np.all(ratios <= 1.0)
                else:
                    ok = crossings == 1 and ratios[0] < 1.0 < ratios[-1]
                ratio_table.append((p, c, factor, crossings, ok))
    result.record_table(radius_table, "series radius matches the closed-form threshold (2%)")
    result.record_table(ratio_table, "term ratios cross 1 once above the radius, never below")

    majorant_table = ResultTable("mt_majorant", ("p", "k_max", "min_gap", "pass"))
    for p in (1.5, 2.0, 3.0, 4.0):
        start = max(math.ceil(p - 1.0), 1)
        min_gap = min(s_majorant_gap(p, k) for k in range(start, 201))
        majorant_table.append((p, 200, min_gap, min_gap >= -1e-8))
    result.record_table(majorant_table, "embedding-factor powers stay below the counting majorant (k <= 200)")

    draw = random.Random(20240813).random
    scaling_table = ResultTable("mt_scaling", ("case", "lhs", "rhs", "pass"))
    # every failing random case gets a row, so the table carries the verdict
    for i in range(1000):
        p = _uniform(draw, 1.1, 4.5)
        gamma = math.exp(_uniform(draw, math.log(1e-3), math.log(2.0)))
        sigma = math.exp(_uniform(draw, 0.0, math.log(20.0)))
        moments = [_uniform(draw, 0.0, 5.0) for _ in range(6)]
        moments = [m if draw() > 0.3 else 0.0 for m in moments]
        if all(m == 0.0 for m in moments):
            moments[0] = 1.0
        lhs, rhs = mt_scaling_divergence(p, gamma, moments, sigma)
        ok = lhs >= rhs * (1.0 - 1e-12)
        if i < 5 or not ok:
            scaling_table.append((f"random_{i}", lhs, rhs, ok))
    lhs, rhs = mt_scaling_divergence(2.0, 1.0, [1.0, 0.5, 2.0], 1.0)
    scaling_table.append(("sigma_1_equality", lhs, rhs, lhs == rhs))
    lhs, rhs = mt_scaling_divergence(2.0, 1.0, [1.0], 2.0)
    scaling_table.append(("boundary_k_equals_p", lhs, rhs, lhs == rhs))
    result.record_table(
        scaling_table, "scaling comparison dominates pointwise with equality at sigma=1 and k=p"
    )
    return result


# ---------------------------------------------------------------------------
# spectral: transforms, contraction, sweeps, functional limits
# ---------------------------------------------------------------------------


def check_spectral(geometry: GroupGeometry) -> CheckResult:
    result = CheckResult()
    tau = tau_delta(geometry)

    grids = {1: TorusGrid(1, 128), 2: TorusGrid(2, 64)}
    doubled = {1: TorusGrid(1, 256), 2: TorusGrid(2, 128)}

    ok_transform = True
    detail = []
    for dim, grid in grids.items():
        f = gaussian_field(grid, 1.0)
        values, coeffs = f.values, f.coeffs
        back = np.fft.irfftn(coeffs, s=grid.shape, axes=range(dim))
        rt = float(np.max(np.abs(back - values)) / np.max(np.abs(values)))
        grid_sum = float(np.sum(values**2) * grid.cell_volume)
        # the half spectrum holds the zero and Nyquist columns once, the rest twice
        weights = np.full(coeffs.shape[-1], 2.0)
        weights[[0, -1]] = 1.0
        coeff_sum = float(np.sum(np.abs(coeffs) ** 2 * weights) * grid.cell_volume / values.size)
        pv = abs(grid_sum - coeff_sum) / grid_sum
        ok_transform = ok_transform and rt <= 1e-10 and pv <= 1e-10
        detail.append(f"dim{dim}: roundtrip={rt:.2e}, parseval={pv:.2e}")
    result.record("transform round-trip and Parseval identity (1e-10)", ok_transform, "; ".join(detail))

    ok_contract = True
    for dim, grid in grids.items():
        f = gaussian_field(grid, 1.0)
        flat = ExponentPair(2.0, 0.0, dim)
        r = embedding_ratio(f, flat, tau)
        ok_contract = ok_contract and r <= 1.0 + 1e-9
        smoothed = bessel_apply(f, tau, -1.0)
        ok_contract = ok_contract and lp_norm(smoothed, 2.0) <= lp_norm(f, 2.0) * (1.0 + 1e-9)
    result.record("order-zero and inverse-operator contraction at p = 2", ok_contract)

    sweep_table = ResultTable(
        "embed", ("kind", "width", "d", "p", "q", "alpha", "ratio", "ratio_over_S")
    )
    ok_sweep = True
    fitted_note = []
    for dim, grid in grids.items():
        pairs = make_grid(ParameterGrid((1.05, 1.5, 2.0, 4.0), (0.3, 0.6, 0.9), (dim,)))
        # the refined widths contain the trial widths, so one sweep gives both
        refined_rows, fitted_refined = embedding_sweep(refined_widths(TRIAL_WIDTHS), pairs, tau, grid)
        rows = [row for row in refined_rows if row[1] in TRIAL_WIDTHS]
        fitted = max(row[7] for row in rows)
        for row in rows:
            sweep_table.append(row)
            ok_sweep = ok_sweep and math.isfinite(row[6]) and row[6] > 0.0
        _, fitted_doubled = embedding_sweep(TRIAL_WIDTHS, pairs, tau, doubled[dim])
        stable = (
            abs(fitted_doubled - fitted) / fitted <= 0.10
            and abs(fitted_refined - fitted) / fitted <= 0.10
        )
        ok_sweep = ok_sweep and stable
        result.fitted[f"embed_A_dim{dim}"] = (fitted, 0.10)
        fitted_note.append(f"dim{dim}: A={fitted:.4g}")
    result.tables.append(sweep_table)
    result.record(
        "embedding ratios finite; fitted constant stable under doubling and width refinement (10%)",
        ok_sweep,
        "; ".join(fitted_note),
    )

    pair_2d = ExponentPair(2.0, 0.5, 2)
    f_2d = gaussian_field(grids[2], 1.0)
    f_2d_fine = gaussian_field(doubled[2], 1.0)
    ratio_coarse = embedding_ratio(f_2d, pair_2d, tau)
    ratio_fine = embedding_ratio(f_2d_fine, pair_2d, tau)
    ok_golden = abs(ratio_fine - ratio_coarse) / ratio_coarse <= 0.01
    result.fitted["embed_ratio_gaussian_w1"] = (ratio_coarse, 0.05)
    result.record(
        "reference embedding ratio resolution-converged (1%)",
        ok_golden,
        f"ratio={ratio_coarse:.6g}",
    )

    interp_table = ResultTable("interp_ratios", ("p", "theta", "alpha", "width", "ratio", "pass"))
    c4 = 0.0
    for width in TRIAL_WIDTHS:
        f1 = gaussian_field(grids[1], width)
        _, _, ratio2 = interpolation_check(f1, 2.0, 1.0, 0.5, tau)
        interp_table.append((2.0, 0.5, 1.0, width, ratio2, ratio2 <= 1.0 + 1e-9))
        _, _, ratio4 = interpolation_check(f1, 4.0, 1.0, 0.5, tau)
        c4 = max(c4, ratio4)
        interp_table.append((4.0, 0.5, 1.0, width, ratio4, math.isfinite(ratio4)))
        for boundary in (0.0, 1.0):
            _, _, ratio_b = interpolation_check(f1, 2.0, 1.0, boundary, tau)
            interp_table.append((2.0, boundary, 1.0, width, ratio_b, ratio_b == 1.0))
    result.fitted["c4_empirical"] = (c4, 0.10)
    result.record_table(
        interp_table,
        "interpolation ratio at p = 2 within the frequency-side bound; exact at the ends",
        f"empirical p=4 constant {c4:.6g}",
    )

    gag_table = ResultTable("gagliardo", ("width", "lhs", "rhs_shape", "quotient", "pass"))
    pair_g = ExponentPair(2.0, 0.25, 1)
    gag_max = 0.0
    for width in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        f = gaussian_field(grids[1], width)
        lhs, rhs_shape = gagliardo_interp_check(f, pair_g, tau)
        quotient = lhs / rhs_shape
        gag_max = max(gag_max, quotient)
        gag_table.append((width, lhs, rhs_shape, quotient, math.isfinite(quotient) and quotient > 0.0))
    result.fitted["gagliardo_max"] = (gag_max, 0.10)
    result.record_table(gag_table, "limiting-order interpolation quotient bounded over widths")

    f1 = gaussian_field(grids[1], 1.0)
    ok_mt = True
    details = []
    for p in (2.0, 3.0):
        m = max(math.ceil(p - 1.0), 1)
        pp = p / (p - 1.0)
        moment = lp_norm(f1, pp * m) ** (pp * m) / math.factorial(m)
        gamma = 1e-4
        v = mt_functional(f1, gamma, p) / gamma**m
        rel = abs(v - moment) / moment
        ok_mt = ok_mt and rel <= 0.01
        details.append(f"p={p}: rel={rel:.2e}")
    values = [mt_functional(f1, g, 2.0) for g in (0.1, 0.2, 0.4)]
    ok_mt = ok_mt and values[0] <= values[1] <= values[2]
    try:
        mt_functional(f1, 1e6, 2.0)
        ok_mt = False
    except ValueError:
        pass
    result.record(
        "exponential functional: small-gamma moment limit (1%), monotone, overflow guarded",
        ok_mt,
        "; ".join(details),
    )
    return result


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def run_all_checks(grid: ParameterGrid, geometry: GroupGeometry) -> CheckResult:
    result = CheckResult()
    result.merge(check_constants(grid))
    result.merge(check_interpolation(grid))
    result.merge(check_kernel(geometry))
    result.merge(check_series())
    result.merge(check_spectral(geometry))
    return result
