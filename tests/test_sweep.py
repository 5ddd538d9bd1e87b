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
from gauss_extremal.gauss_model import GaussianAuxChannel, GaussianPairModel, mutual_information
from gauss_extremal.rng import Streams, random_pd, stream

from test_extremal import reference_scalar_gap


# The per-sample draws of a sweep before they were stacked: every value a
# sample's stream gives, in the same order, one numpy call per value.
def reference_scalar_corr(gen):
    if gen.uniform() < sweep.DEGENERATE_PROB:
        return 0.0
    return gen.uniform(0.0, 0.999)


def reference_draw_scalar(mode, gen):
    if mode == "thm3":
        rho = gen.uniform(-0.99, 0.99)
        return rho, reference_scalar_corr(gen), reference_scalar_corr(gen)
    if mode == "thm1-scalar":
        sign = -1.0 if gen.uniform() < 0.5 else 1.0
        rho = sign * gen.uniform(0.05, 0.99)
        return rho, reference_scalar_corr(gen), reference_scalar_corr(gen)
    rho = gen.uniform(-0.99, 0.99)
    return rho, gen.uniform(0.0, 0.999), 0.0


def reference_vector_channel(gen, n):
    if gen.uniform() < sweep.DEGENERATE_PROB:
        return np.zeros((n, n)), np.eye(n)
    gain = gen.standard_normal((n, n))
    return gain, random_pd(gen, n)


def reference_draw_vector(mode, t, n, gen):
    """(sigma_x, sigma_z, U channel, V channel, injection uniform); None
    for what the sample does not draw."""
    sigma_x, sigma_z = random_pd(gen, n), random_pd(gen, n)
    if mode == "thm1-vector":
        return sigma_x, sigma_z, reference_vector_channel(gen, n), reference_vector_channel(gen, n), None
    if t % 2 == 0:
        return sigma_x, sigma_z, None, None, gen.uniform(0.05, 0.95)
    return sigma_x, sigma_z, reference_vector_channel(gen, n), None, None


def reference_scalar_triple(mode, gen):
    """(rho, U channel, V channel) of a scalar sample's reference draws."""
    rho, corr_u, corr_v = reference_draw_scalar(mode, gen)
    u, v = (GaussianAuxChannel.scalar_corr(c, side) if c else GaussianAuxChannel.degenerate_on(side)
            for c, side in ((corr_u, "x"), (corr_v, "y")))
    return rho, u, v


def reference_sample(mode, t, dim, seed):
    """Gap of sample t through the single-triple API, one sample at a time,
    from the per-sample reference draws of stream(seed, t, 0)."""
    gen = stream(seed, t, 0)
    if mode in ("thm3", "thm1-scalar", "oohama"):
        rho, u, v = reference_scalar_triple(mode, gen)
        if mode == "thm3":
            return scalar_extremal_gap(rho, u, v)
        model = GaussianPairModel.scalar(rho)
        return vector_extremal_gap(model, u, v) if mode == "thm1-scalar" else oohama_gap(model, u)

    def channel(drawn, side):
        gain, noise = drawn
        return GaussianAuxChannel.linear(gain, noise, side) if gain.any() else GaussianAuxChannel.degenerate_on(side)

    sigma_x, sigma_z, drawn_u, drawn_v, inject = reference_draw_vector(mode, t, dim, gen)
    model = GaussianPairModel.vector(sigma_x, sigma_z)
    if mode == "thm1-vector":
        return vector_extremal_gap(model, channel(drawn_u, "x"), channel(drawn_v, "y"))
    if inject is None:
        return oohama_gap(model, channel(drawn_u, "x"))
    white = np.linalg.inv(np.linalg.cholesky(model.sigma_x))
    top = float(np.linalg.eigvalsh(white @ model.sigma_z @ white.T).max())
    return oohama_gap(model, alpha_family_channel(model, 1.0 + 1.0 / (inject / top))[0])


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


@pytest.mark.parametrize("mode", ["thm3", "oohama"])
def test_scalar_gaps_match_dedicated_scalar_formula(mode):
    gaps = sweep.run_verify_sweep(mode, 300, 1, 3)["gaps"]
    for t, gap in enumerate(gaps):
        rho, u, v = reference_scalar_triple(mode, stream(3, t, 0))
        info = mutual_information(GaussianPairModel.scalar(rho), u, v)
        assert abs(gap - reference_scalar_gap(info, rho * rho)) <= 1e-15, t


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


@pytest.mark.parametrize("degenerate_prob", [sweep.DEGENERATE_PROB, 0.5])
@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("mode", sweep.VERIFY_MODES)
def test_stacked_draws_equal_per_sample_draws(mode, seed, degenerate_prob, monkeypatch):
    monkeypatch.setattr(sweep, "DEGENERATE_PROB", degenerate_prob)
    samples = range(5, 45)
    if mode not in ("thm1-vector", "vec-epi"):
        got = np.array(sweep._draw_scalar(mode, samples, Streams(seed))).T
        expect = np.array([reference_draw_scalar(mode, stream(seed, t, 0)) for t in samples])
        assert np.array_equal(got, expect)
        return
    degenerate = 0
    for n in (1, 2, 4, 8):
        sigma_x, sigma_z, gain_u, noise_u, gain_v, noise_v, inject = sweep._draw_vector(
            mode, samples, n, Streams(seed))
        for i, t in enumerate(samples):
            sx, sz, u, v, inject_draw = reference_draw_vector(mode, t, n, stream(seed, t, 0))
            assert np.array_equal(sigma_x[i], sx) and np.array_equal(sigma_z[i], sz)
            for got, channel in (((gain_u[i], noise_u[i]), u), ((gain_v[i], noise_v[i]), v)):
                if channel is not None:
                    assert np.array_equal(got[0], channel[0]) and np.array_equal(got[1], channel[1])
                    degenerate += not channel[0].any()
            if inject_draw is not None:
                assert inject[i] == inject_draw
        if mode == "vec-epi":  # no V description
            assert not gain_v.any() and np.all(noise_v == 1.0) and noise_v.shape == (len(samples), 1, 1)
    if degenerate_prob == 0.5:
        assert degenerate > 10


@pytest.mark.parametrize("n", range(1, 33))
def test_stacked_covariances_equal_random_pd(n):
    """One stacked A A^T + 0.1 I gives each matrix rng.random_pd gives on
    its own; a BLAS whose batched and single products differ fails here."""
    sigma_x, sigma_z, _, noise_u, _, noise_v, _ = sweep._draw_vector("thm1-vector", range(6), n, Streams(44))
    for t in range(6):
        gen = stream(44, t, 0)
        assert np.array_equal(sigma_x[t], random_pd(gen, n))
        assert np.array_equal(sigma_z[t], random_pd(gen, n))
        for noise in (noise_u, noise_v):
            if gen.uniform() >= sweep.DEGENERATE_PROB:
                gen.standard_normal((n, n))
                assert np.array_equal(noise[t], random_pd(gen, n))
