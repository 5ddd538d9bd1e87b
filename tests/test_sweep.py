import numpy as np
import pytest

from gauss_extremal import sweep
from gauss_extremal.errors import GaussExtremalError
from gauss_extremal.extremal import (
    alpha_family_channel,
    oohama_gap,
    scalar_extremal_gap,
    vector_extremal_gap,
)
from gauss_extremal.gauss_model import GaussianAuxChannel, GaussianPairModel
from gauss_extremal.rng import random_pd, stream


def reference_sample(mode, t, dim, seed):
    """Gap of sample t through the single-triple API, one sample at a time:
    the same draws from stream(seed, t, 0) in the same order as the sweep."""
    gen = stream(seed, t, 0)

    def scalar_channel(side):
        if gen.uniform() < 0.02:
            return GaussianAuxChannel.degenerate_on(side)
        return GaussianAuxChannel.scalar_corr(gen.uniform(0.0, 0.999), side)

    def vector_channel(side):
        if gen.uniform() < 0.02:
            return GaussianAuxChannel.degenerate_on(side)
        return GaussianAuxChannel.linear(gen.standard_normal((dim, dim)), random_pd(gen, dim), side)

    if mode == "thm3":
        rho = gen.uniform(-0.99, 0.99)
        u, v = scalar_channel("x"), scalar_channel("y")
        return scalar_extremal_gap(rho, u, v)
    if mode == "thm1-scalar":
        sign = -1.0 if gen.uniform() < 0.5 else 1.0
        model = GaussianPairModel.scalar(sign * gen.uniform(0.05, 0.99))
        u, v = scalar_channel("x"), scalar_channel("y")
        return vector_extremal_gap(model, u, v)
    if mode == "oohama":
        model = GaussianPairModel.scalar(gen.uniform(-0.99, 0.99))
        return oohama_gap(model, GaussianAuxChannel.scalar_corr(gen.uniform(0.0, 0.999), "x"))
    model = GaussianPairModel.vector(random_pd(gen, dim), random_pd(gen, dim))
    if mode == "thm1-vector":
        u, v = vector_channel("x"), vector_channel("y")
        return vector_extremal_gap(model, u, v)
    if t % 2 == 0:
        white = np.linalg.inv(np.linalg.cholesky(model.sigma_x))
        top = float(np.linalg.eigvalsh(white @ model.sigma_z @ white.T).max())
        u, _ = alpha_family_channel(model, 1.0 + 1.0 / (gen.uniform(0.05, 0.95) / top))
    else:
        u = vector_channel("x")
    return oohama_gap(model, u)


CASES = [("thm3", 1), ("thm1-scalar", 1), ("oohama", 1),
         ("thm1-vector", 1), ("thm1-vector", 3), ("vec-epi", 2), ("vec-epi", 4)]


@pytest.mark.parametrize("mode,dim", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_gaps_match_single_triple_path(mode, dim, seed):
    trials = 120
    summary = sweep.run_verify_sweep(mode, trials, dim, seed)
    expect = np.array([reference_sample(mode, t, dim, seed) for t in range(trials)])
    assert np.max(np.abs(summary["gaps"] - expect)) <= 1e-12
    assert summary["negative_count"] == int(np.count_nonzero(expect < -sweep.GAP_TOL))
    # The reported argmin attains the minimum up to roundoff.
    assert expect[summary["argmin"]["sample"]] - expect.min() <= 1e-12


@pytest.mark.parametrize("mode,dim", [("thm3", 1), ("thm1-vector", 3), ("vec-epi", 3)])
def test_chunk_size_changes_no_gap(mode, dim, monkeypatch):
    whole = sweep.run_verify_sweep(mode, 50, dim, 4)
    monkeypatch.setattr(sweep, "_STACK_ENTRIES", 7 * (4 * dim) ** 2)
    chunked = sweep.run_verify_sweep(mode, 50, dim, 4)
    assert np.array_equal(whole.pop("gaps"), chunked.pop("gaps"))
    assert whole == chunked


def test_vec_epi_parameters_are_recorded_per_sample():
    summary = sweep.run_verify_sweep("vec-epi", 6, 3, 9)
    argmin = summary["argmin"]
    assert argmin["injected"] is (argmin["sample"] % 2 == 0)
    assert ("alpha" in argmin) is argmin["injected"]


@pytest.mark.parametrize("mode,trials,dim", [("bogus", 5, 1), ("thm3", 0, 1), ("thm1-vector", 5, 65)])
def test_rejects_bad_arguments(mode, trials, dim):
    with pytest.raises(GaussExtremalError):
        sweep.run_verify_sweep(mode, trials, dim, 0)
