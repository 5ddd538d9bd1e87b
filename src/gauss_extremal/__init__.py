"""Gaussian information-inequality calculators, two-encoder rate regions,
and a covering-ellipsoid compression simulator."""

from .errors import (
    CrossCheckFailed,
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
    information_batch,
    log_det,
    matrix_from_json,
    mutual_information,
)
from .extremal import (
    DualValue,
    MinimizerPair,
    alpha_family_channel,
    dual_functional,
    exponent_tradeoff_min,
    minkowski_gap,
    nondegenerate_minimizers,
    oohama_gap,
    scalar_dual_closed,
    scalar_dual_oracle,
    vector_dual_lower,
    vector_extremal_forms,
    vector_extremal_gap,
    vector_gap_forms,
)
from .rate_region import (
    RegionVerdict,
    beta,
    distortion_of_sum_rate,
    region_verdict,
    sum_rate_bound,
    sum_rate_bound_raw,
)
from .ellipsoid_codec import (
    CodecConfig,
    SimulationReport,
    TrialReport,
    implied_rates,
    log_unit_ball_volume,
    report_to_dict,
    run_simulation,
    solve_noise_levels,
    trials_csv_rows,
)

__version__ = "0.1.0"
