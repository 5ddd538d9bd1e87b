"""Gaussian information-inequality calculators, two-encoder rate regions,
and a covering-ellipsoid compression simulator."""

from .errors import (
    CrossCheckFailed,
    DegenerateShrinkage,
    DomainError,
    GaussExtremalError,
    Infeasible,
    NotPositiveDefinite,
)
from .gauss_model import (
    GaussianAuxChannel,
    GaussianPairModel,
    InfoVector,
    cholesky_pd,
    conditional_cov_noise,
    information_batch,
    log_det,
    matrix_from_json,
    mutual_information,
    schur_conditional_cov,
)
from .extremal import (
    DualValue,
    MinimizerPair,
    alpha_family_channel,
    dual_functional,
    exponent_tradeoff_min,
    minimizer_equation_residual,
    minkowski_gap,
    nondegenerate_minimizers,
    oohama_gap,
    scalar_dual_closed,
    scalar_dual_oracle,
    scalar_dual_oracle_argmin,
    scalar_extremal_gap,
    vector_dual_lower,
    vector_extremal_forms,
    vector_extremal_gap,
    vector_gap_forms,
)
from .rate_region import (
    RegionQuery,
    RegionVerdict,
    beta,
    distortion_of_sum_rate,
    min_nu_boundary,
    mmse_jensen_gap,
    region_verdict,
    sum_rate_bound,
    sum_rate_bound_raw,
)
from .ellipsoid_codec import (
    CodecConfig,
    SimulationReport,
    TrialReport,
    build_shrunk_matrix,
    implied_rates,
    log_unit_ball_volume,
    report_to_dict,
    run_simulation,
    solve_noise_levels,
    trials_csv_rows,
)

__version__ = "0.1.0"
