"""Sobolev-embedding constants, kernel envelopes and exponential-
integrability thresholds, with desk-scale verification of the inequality
chains connecting them."""

from .constants import (
    ConstantReport,
    a2_bound_factor,
    b1_multiplier_bound,
    constant_report,
    f_constant,
    gamma_one,
    gamma_two,
    lieb_upper_bound,
    log_gamma,
    q_constant,
    s_constant,
)
from .interpolation import MarcinkiewiczData, assemble, endpoints, m0, m1, m2, theta, weak_sup_factor
from .kernel import (
    CutoffSchedule,
    GreenKernelParams,
    chi_global_norm,
    chi_weighted_local_norm,
    cutoff_s,
    global_bound_constant,
    green_kernel_params_from_geometry,
    green_kernel_upper,
    kalpha_norms,
    kalpha_norms_quadrature,
    local_bound_constant,
    tilde_k_norm,
    weak_type_constant,
)
from .params import (
    ExponentPair,
    GroupGeometry,
    ParameterGrid,
    conjugate_exponent,
    default_grid,
    grid_fingerprint,
    make_grid,
    read_grid_config,
    s_chi,
    tau_chi,
    tau_delta,
)
from .report import GoldenSnapshot, ResultTable, compare_golden, write_table
from .series import (
    MTSeriesSpec,
    mt_scaling_divergence,
    mt_series_partial,
    mt_series_radius,
    s_majorant_gap,
)
from .spectral import (
    SpectralField,
    TorusGrid,
    TrialFamily,
    bessel_apply,
    embedding_ratio,
    embedding_sweep,
    gagliardo_interp_check,
    gaussian_field,
    interpolation_check,
    lp_norm,
    mt_functional,
)

__version__ = "0.1.0"
