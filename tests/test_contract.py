"""The library's contract on bad input: every export that takes numbers
returns finite values or raises a GaussExtremalError, and never warns.

Each export is called with edge values in every argument: all combinations
where there are few, else each argument through every edge value with the
others valid, plus seeded random combinations. Matrix arguments take a set
of edge matrices, and the exports that take models, channels or information
records take those that the package builds from edge values.
"""

import dataclasses
import itertools
import math
import sys
import types
import warnings

import numpy as np
import pytest

import gauss_extremal as ge
from gauss_extremal.extremal import volume_ratio

EDGE_NUMBERS = (
    0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e-16,
    0.3, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0,
    1e16, 1e300, sys.float_info.max,
    -0.5, -1.0, -1e300,
    math.inf, -math.inf, math.nan,
    True, 3, 0, -2, 2**1023, 10**400, -10**400,
)

EDGE_MATRICES = (
    np.zeros((0, 0)),
    np.ones((2, 3)),
    np.array([[math.nan, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 2.0], [0.0, 1.0]]),  # not symmetric
    np.ones((2, 2)),  # singular
    1e308 * np.eye(2),
    np.ones((2, 2, 2)),  # a stack where a matrix is due
    np.array([[2.0, 0.5], [0.5, 1.0]]),
    0.5 * np.eye(2),
    np.eye(2),
    np.array([[0.3]]),
)

# Random combinations drawn per export with more than _FULL combinations.
_FULL = 3000
_RANDOM = 1500


def _finite(value) -> bool:
    if value is None or isinstance(value, (int, str, np.bool_, np.integer)):  # an int is exact, never inf
        return True
    if isinstance(value, (float, np.floating, np.ndarray)):
        return bool(np.all(np.isfinite(value)))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    raise TypeError(f"no finiteness rule for {type(value).__name__}")


def _accepted(build, *pools):
    """The values build(*args) returns over every combination of the pools, where it does not refuse."""
    out = []
    for args in itertools.product(*pools):
        try:
            out.append(build(*args))
        except ge.GaussExtremalError:
            pass
    return out


MODELS = _accepted(ge.GaussianPairModel.scalar, EDGE_NUMBERS) + _accepted(
    ge.GaussianPairModel.vector, EDGE_MATRICES, EDGE_MATRICES
)
CHANNELS_X = _accepted(ge.GaussianAuxChannel.scalar_corr, EDGE_NUMBERS, ["x"]) + [
    ge.GaussianAuxChannel.degenerate_on("x")
]
CHANNELS_Y = [ge.GaussianAuxChannel.scalar_corr(0.5, "y"), ge.GaussianAuxChannel.degenerate_on("y")]
INFOS = [ge.mutual_information(ge.GaussianPairModel.scalar(0.5), u, CHANNELS_Y[0]) for u in CHANNELS_X[:6]]
SIDES = ("x", "y", "z")
KERNEL_INFO, KERNEL_LD = ge.information_batch(
    np.eye(2)[None], np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.ones((1, 1, 1))
)
# A kernel record whose V has zero gain: lam = inf meets its zero I(X;V|U) in a numpy multiply.
ZERO_GAIN_V_INFO = ge.information_batch(
    np.eye(2)[None], np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 1, 1)), np.ones((1, 1, 1))
)[0]

# Per export: (callable, argument pools, one valid argument per pool).
EXPORTS = {
    "GaussianPairModel.scalar": (ge.GaussianPairModel.scalar, [EDGE_NUMBERS], (0.5,)),
    "GaussianPairModel.vector": (ge.GaussianPairModel.vector, [EDGE_MATRICES] * 2, (np.eye(2), np.eye(2))),
    "GaussianAuxChannel.scalar_corr": (ge.GaussianAuxChannel.scalar_corr, [EDGE_NUMBERS, SIDES], (0.5, "x")),
    "GaussianAuxChannel.linear": (
        ge.GaussianAuxChannel.linear, [EDGE_MATRICES, EDGE_MATRICES, SIDES], (np.eye(2), np.eye(2), "x"),
    ),
    "GaussianAuxChannel.for_conditional_cov": (
        ge.GaussianAuxChannel.for_conditional_cov, [MODELS, EDGE_MATRICES, SIDES],
        (ge.GaussianPairModel.vector(np.eye(2), np.eye(2)), 0.5 * np.eye(2), "x"),
    ),
    "cholesky_pd": (ge.cholesky_pd, [EDGE_MATRICES], (np.eye(2),)),
    "log_det": (ge.log_det, [EDGE_MATRICES], (np.eye(2),)),
    "matrix_from_json": (
        lambda n, a, b: ge.matrix_from_json({"n": n, "data": [a, b, b, a][: n * n if isinstance(n, int) else 4]}),
        [EDGE_NUMBERS, EDGE_NUMBERS, EDGE_NUMBERS], (2, 1.0, 0.5),
    ),
    "information_batch": (
        lambda s, gain, noise: ge.information_batch(
            np.kron(np.eye(2), s)[None] if s.ndim == 2 else s, gain[None], noise[None], gain[None], noise[None]
        ),
        [EDGE_MATRICES] * 3, (np.eye(2), np.eye(2), np.eye(2)),
    ),
    "mutual_information": (ge.mutual_information, [MODELS, CHANNELS_X, CHANNELS_Y],
                           (MODELS[0], CHANNELS_X[0], CHANNELS_Y[0])),
    "oohama_gap": (ge.oohama_gap, [MODELS, CHANNELS_X], (MODELS[0], CHANNELS_X[0])),
    "vector_extremal_forms": (ge.vector_extremal_forms, [MODELS, CHANNELS_X, CHANNELS_Y],
                              (MODELS[0], CHANNELS_X[0], CHANNELS_Y[0])),
    "vector_extremal_gap": (ge.vector_extremal_gap, [MODELS, CHANNELS_X, CHANNELS_Y],
                            (MODELS[0], CHANNELS_X[0], CHANNELS_Y[0])),
    "alpha_family_channel": (ge.alpha_family_channel, [MODELS, EDGE_NUMBERS], (MODELS[0], 5.0)),
    "dual_functional": (ge.dual_functional, [INFOS + [ZERO_GAIN_V_INFO], EDGE_NUMBERS], (INFOS[0], 2.0)),
    "exponent_tradeoff_min": (ge.exponent_tradeoff_min, [EDGE_NUMBERS] * 3, (0.3, 0.5, 2.0)),
    "minkowski_gap": (ge.minkowski_gap, [EDGE_MATRICES] * 2, (np.eye(2), np.eye(2))),
    "nondegenerate_minimizers": (
        ge.nondegenerate_minimizers, [EDGE_NUMBERS, EDGE_NUMBERS, EDGE_NUMBERS], (5.0, 0.5, 3),
    ),
    "scalar_dual_closed": (ge.scalar_dual_closed, [EDGE_NUMBERS] * 2, (2.0, 0.5)),
    "scalar_dual_oracle": (ge.scalar_dual_oracle, [EDGE_NUMBERS, EDGE_NUMBERS, EDGE_NUMBERS + (100,)],
                           (2.0, 0.5, 100)),
    "vector_dual_lower": (ge.vector_dual_lower, [EDGE_NUMBERS, EDGE_MATRICES, EDGE_MATRICES],
                          (2.0, np.eye(2), np.eye(2))),
    "vector_gap_forms": (ge.vector_gap_forms, [[KERNEL_INFO], EDGE_NUMBERS, EDGE_NUMBERS], (KERNEL_INFO, 1, 0.5)),
    "volume_ratio": (volume_ratio, [[KERNEL_LD], EDGE_NUMBERS, EDGE_NUMBERS], (KERNEL_LD, 1, 0.5)),
    "beta": (ge.beta, [EDGE_NUMBERS] * 2, (0.5, 0.5)),
    "distortion_of_sum_rate": (ge.distortion_of_sum_rate, [EDGE_NUMBERS] * 2, (0.5, 1.0)),
    "region_verdict": (ge.region_verdict, [EDGE_NUMBERS] * 5, (0.5, 1.0, 1.0, 0.3, 0.3)),
    "sum_rate_bound": (ge.sum_rate_bound, [EDGE_NUMBERS] * 3, (0.5, 0.3, 0.3)),
    "sum_rate_bound_raw": (ge.sum_rate_bound_raw, [EDGE_NUMBERS] * 3, (0.5, 0.3, 0.3)),
    "CodecConfig": (
        ge.CodecConfig, [EDGE_NUMBERS, EDGE_NUMBERS, EDGE_NUMBERS, EDGE_MATRICES] + [EDGE_NUMBERS] * 3
        + [EDGE_NUMBERS] * 2,
        (2, 1, 0.5, np.eye(2), 0.3, 0.3, 0.0025, 2, 0),
    ),
    "implied_rates": (ge.implied_rates, [EDGE_NUMBERS] * 5, (0.5, 0.3, 0.3, *ge.solve_noise_levels(0.5, 0.3, 0.3))),
    "log_unit_ball_volume": (ge.log_unit_ball_volume, [EDGE_NUMBERS], (3,)),
    "solve_noise_levels": (ge.solve_noise_levels, [EDGE_NUMBERS] * 3, (0.5, 0.3, 0.3)),
}


def _calls(pools, valid, seed):
    """Every combination of the pools if there are at most _FULL, else each pool through all
    its values with the others valid, then _RANDOM seeded random combinations."""
    if math.prod(map(len, pools)) <= _FULL:
        yield from itertools.product(*pools)
        return
    for i, pool in enumerate(pools):
        for value in pool:
            yield (*valid[:i], value, *valid[i + 1:])
    gen = np.random.default_rng(seed)
    for _ in range(_RANDOM):
        yield tuple(pool[int(gen.integers(len(pool)))] for pool in pools)


def _documented_non_finite(name, result) -> bool:
    """The one output documented as not finite: solve_noise_levels' q = inf for a target of 1,
    a description that is not sent."""
    return name == "solve_noise_levels" and all(q == math.inf or math.isfinite(q) for q in result)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_returns_finite_values_or_raises_a_package_error(name):
    func, pools, valid = EXPORTS[name]
    broken = []
    for args in _calls(pools, valid, sum(map(ord, name))):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = func(*args)
        except ge.GaussExtremalError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other exception breaks the contract
            broken.append(f"{args!r:.300}: {type(exc).__name__}: {exc!s:.200}")
            continue
        if not (_finite(result) or _documented_non_finite(name, result)):
            broken.append(f"{args!r:.300} returned {result!r:.300}")
    assert broken == [], f"{len(broken)} calls broke the contract, first: {broken[:5]}"


def test_every_export_that_takes_numbers_is_walked():
    walked = {name.split(".")[0] for name in EXPORTS}
    skipped = {
        # Errors, result records and the functions that take a finished run.
        "CrossCheckFailed", "DomainError", "GaussExtremalError", "Infeasible", "NotPositiveDefinite",
        "InfoVector", "DualValue", "MinimizerPair", "RegionVerdict", "SimulationReport", "TrialReport",
        "report_to_dict", "trials_csv_rows", "run_simulation",
    }
    public = {name for name, value in vars(ge).items() if not name.startswith("_")}
    public -= {name for name in public if isinstance(getattr(ge, name), types.ModuleType)}
    assert public - skipped == walked - {"volume_ratio"}  # volume_ratio: the private helper that sweep shares
