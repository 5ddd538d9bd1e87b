import argparse
import ast
from pathlib import Path

import numpy as np
import pytest

from gauss_extremal import cli, sweep
from gauss_extremal.cli import main
from gauss_extremal.errors import DomainError, NotPositiveDefinite
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


@pytest.mark.parametrize("mode,dim", [("thm1-scalar", 1), ("thm1-vector", 1), ("thm1-vector", 3)])
def test_single_triple_gap_equals_sweep_gap_bit_for_bit(mode, dim):
    # Both paths take the informations and the volume ratio from one kernel
    # call on the same arrays, so the gaps are equal, not close.
    trials, seed = 40, 6
    gaps = sweep.run_verify_sweep(mode, trials, dim, seed)["gaps"]
    samples = range(trials)
    draw, _ = sweep._MODES[mode]
    (sigma_x, sigma_z, rho, *channels), _ = draw(samples, dim, Streams(seed))
    for t in samples:
        if np.ndim(rho):
            model = GaussianPairModel.scalar(rho[t])
        else:
            model = GaussianPairModel.vector(sigma_x[t], sigma_z[t])
        gain_u, noise_u, gain_v, noise_v = (c[t] for c in channels)
        u = GaussianAuxChannel.linear(gain_u, noise_u, "x")
        v = GaussianAuxChannel.linear(gain_v, noise_v, "y")
        assert vector_extremal_gap(model, u, v) == gaps[t], t


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


def test_first_sample_at_the_minimum_wins_across_chunks(monkeypatch):
    # The minimum gap is attained exactly at samples 11, 118, 140, ...; in
    # chunks of 7 samples these fall in different chunks.
    gaps = sweep.run_verify_sweep("thm3", 300, 1, 1)["gaps"]
    assert list(np.flatnonzero(gaps == gaps.min())[:3]) == [11, 118, 140]
    monkeypatch.setattr(sweep, "_STACK_ENTRIES", 7 * 4**2)
    assert sweep.run_verify_sweep("thm3", 300, 1, 1)["argmin"]["sample"] == 11


def test_modes_are_named_only_as_table_keys():
    # Each mode is declared once, as a key of sweep._MODES, in the order of
    # the CLI's --mode choices; no other code in sweep.py reads a mode name.
    tree = ast.parse(Path(sweep.__file__).read_text())
    table = next((node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["_MODES"]), None)
    assert isinstance(table, ast.Dict)
    keys = [key.value for key in table.keys]
    named = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in keys and node not in table.keys]
    assert named == []
    subcommands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    choices = next(a.choices for a in subcommands.choices["verify"]._actions if "--mode" in a.option_strings)
    assert tuple(keys) == sweep.VERIFY_MODES == tuple(choices)
    assert keys == ["thm1-scalar", "thm1-vector", "thm3", "oohama", "vec-epi"]


@pytest.mark.parametrize("mode,trials,dim,message", [
    ("bogus", 5, 1, "^unknown mode 'bogus'$"),
    ("thm3", 0, 1, r"^trials must be at least 1$"),
    ("thm1-vector", 5, 65, r"^dim must lie in \[1, 64\]$"),
])
def test_rejects_bad_arguments(mode, trials, dim, message):
    with pytest.raises(DomainError, match=message):
        sweep.run_verify_sweep(mode, trials, dim, 0)


@pytest.mark.parametrize("name,value", [
    ("trials", 2.5), ("dim", 2.5), ("seed", 1.5), ("trials", True), ("dim", True), ("seed", True),
])
def test_non_integral_arguments_are_domain_errors(name, value):
    # Each failed inside numpy or the streams with a TypeError, or, for
    # trials and seed True, ran as 1 and printed true.
    args = {"trials": 3, "dim": 2, "seed": 0} | {name: value}
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
        sweep.run_verify_sweep("thm1-vector", **args)


# The raw vector draw's (descriptions, inject_even) for each vector mode.
RAW_VECTOR_DRAWS = {"thm1-vector": (2, False), "vec-epi": (1, True)}


@pytest.mark.parametrize("degenerate_prob", [sweep.DEGENERATE_PROB, 0.5])
@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("mode", sweep.VERIFY_MODES)
def test_stacked_draws_equal_per_sample_draws(mode, seed, degenerate_prob, monkeypatch):
    monkeypatch.setattr(sweep, "DEGENERATE_PROB", degenerate_prob)
    samples = range(5, 45)
    if mode not in RAW_VECTOR_DRAWS:
        (_, _, rho, gain_u, _, gain_v, _), _ = sweep._MODES[mode][0](samples, 1, Streams(seed))
        got = np.array([rho, gain_u.ravel(), gain_v.ravel()]).T
        expect = np.array([reference_draw_scalar(mode, stream(seed, t, 0)) for t in samples])
        assert np.array_equal(got, expect)
        return
    degenerate = 0
    for n in (1, 2, 4, 8):
        sigma_x, sigma_z, gain_u, noise_u, gain_v, noise_v, inject = sweep._draw_vector(
            samples, n, Streams(seed), *RAW_VECTOR_DRAWS[mode])
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
    sigma_x, sigma_z, _, noise_u, _, noise_v, _ = sweep._draw_vector(range(6), n, Streams(44), 2, inject_even=False)
    for t in range(6):
        gen = stream(44, t, 0)
        assert np.array_equal(sigma_x[t], random_pd(gen, n))
        assert np.array_equal(sigma_z[t], random_pd(gen, n))
        for noise in (noise_u, noise_v):
            if gen.uniform() >= sweep.DEGENERATE_PROB:
                gen.standard_normal((n, n))
                assert np.array_equal(noise[t], random_pd(gen, n))


@pytest.mark.parametrize("mode,dim,calls", [("thm1-vector", 2, 3), ("thm1-vector", 8, 7), ("vec-epi", 4, 7)])
def test_drawn_covariances_are_factorized_only_by_the_kernel(mode, dim, calls, monkeypatch):
    # The kernel makes one batched factorization per subset size and group
    # of samples. At dim 2 the sizes are 2, 4 and 6: 3 calls. At dim 8 the
    # 30 samples of sizes 8, 16 and 24 take 1, 3 and 3 calls (at most 2^14
    # entries each). vec-epi at dim 4 has V degenerate (one row): sizes 4,
    # 1, 8, 5 and 9 take 5 calls, and its injected samples' pair spectrum
    # adds one of sigma_x and one of sigma_z; the equality channel is
    # diagonal in that basis and needs no factorization of its own.
    # A pre-check of the drawn sigma_x and sigma_z would add two more.
    cholesky, count = np.linalg.cholesky, []

    def counted(a):
        count.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    sweep.run_verify_sweep(mode, 30, dim, 0)
    assert len(count) == calls, count


def test_singular_drawn_sigma_z_is_named_by_the_kernel(monkeypatch, capsys):
    # Sigma_z is the Schur complement of X in the XY block of the joint, so
    # the kernel's pivot test on XY catches a singular sigma_z.
    draw, runs_at_dim = sweep._MODES["thm1-vector"]

    def singular_at_2(samples, n, streams):
        drawn, params = draw(samples, n, streams)
        drawn[1][2 - samples.start] = np.ones((n, n))  # rank one
        return drawn, params

    monkeypatch.setitem(sweep._MODES, "thm1-vector", (singular_at_2, runs_at_dim))
    with pytest.raises(NotPositiveDefinite, match=r"joint covariance block XY \(sample 2\)"):
        sweep.run_verify_sweep("thm1-vector", 30, 3, 0)
    assert main(["verify", "--mode", "thm1-vector", "--trials", "30", "--dim", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "joint covariance block XY (sample 2)" in captured.err
