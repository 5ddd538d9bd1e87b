"""Seeded falsification sweeps of the extremal inequalities.

Sample t of a sweep draws all its parameters from its own stream, the
(seed, t, 0) key of the sweep's rng.Streams, in a fixed order, so it does
not depend on the other samples or on the sweep length. A sample makes
as few numpy calls as that order allows: a scalar sample draws its six
standard uniforms in one call and maps them as Generator.uniform would;
a vector sample draws the factors of sigma_x and sigma_z in one call,
then per description a degeneracy uniform and, when live, the gain and
noise factor in one call. The sweep first draws every sample of a
chunk, forms all its covariances A A^T + 0.1 I in one stacked product,
then stacks the joint covariances and evaluates all of them in one call
of the batched information kernel. Every value equals the one drawn
with a call per value. Chunks only bound memory: every sample's gap is
the same whatever the chunk size.

Gap conventions per mode: thm3 and thm1-scalar use two descriptions on a
unit-variance pair, thm1-vector uses random covariances and channels,
oohama drops the second description, and vec-epi mixes random channels
with injected equality-family channels whose conditional covariance is
proportional to the noise covariance (those certify that zero gap is
attained).
"""

from __future__ import annotations

import numpy as np

from .errors import GaussExtremalError
from .extremal import vector_gap_forms
from .gauss_model import cholesky_pd, conditional_cov_noise, information_batch
from .rng import Streams

VERIFY_MODES = ("thm1-scalar", "thm1-vector", "thm3", "oohama", "vec-epi")
GAP_TOL = 1e-9

# Small chance of a degenerate description keeps the zero paths exercised.
DEGENERATE_PROB = 0.02

# Samples per kernel call are capped so that one stack of joint
# covariances holds about 2^18 entries (2 MB): the whole sweep in one call
# for scalar modes, 256 samples at dim 8, 4 at dim 64.
_STACK_ENTRIES = 1 << 18


# Standard uniforms a scalar sample draws at most: thm1-scalar's sign and
# |rho|, then a degeneracy draw and a correlation per description.
_SCALAR_DRAWS = 6


def _uniform(lo: float, hi: float, u):
    """gen.uniform(lo, hi) from the standard uniform u it would draw."""
    return lo + (hi - lo) * u


def _scalar_corrs(u: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correlations of the descriptions whose draws start at column at of
    each row of u, and the column after them. A degenerate description
    (zero gain, unit noise) has correlation 0 and draws no correlation."""
    rows = np.arange(len(u))
    degenerate = u[rows, at] < DEGENERATE_PROB
    corr = np.where(degenerate, 0.0, _uniform(0.0, 0.999, u[rows, at + 1]))
    return corr, at + np.where(degenerate, 1, 2)


def _draw_scalar(mode: str, samples: range, streams: Streams) -> tuple[np.ndarray, ...]:
    """(rho, U-channel correlation, V-channel correlation) of each sample.

    Each sample draws its standard uniforms from its stream in one call;
    the parameters are then mapped from them for all samples at once.
    """
    u = np.empty((len(samples), _SCALAR_DRAWS))
    for i, t in enumerate(samples):
        streams(t, 0).random(out=u[i])
    if mode == "oohama":  # no V description
        return _uniform(-0.99, 0.99, u[:, 0]), _uniform(0.0, 0.999, u[:, 1]), np.zeros(len(u))
    if mode == "thm3":
        rho, at = _uniform(-0.99, 0.99, u[:, 0]), 1
    else:
        rho, at = np.where(u[:, 0] < 0.5, -1.0, 1.0) * _uniform(0.05, 0.99, u[:, 1]), 2
    corr_u, at = _scalar_corrs(u, np.full(len(u), at))
    return rho, corr_u, _scalar_corrs(u, at)[0]


def _scalar_sweep(mode: str, samples: range, streams: Streams) -> tuple[np.ndarray, list[dict]]:
    rho, corr_u, corr_v = _draw_scalar(mode, samples, streams)
    source = np.empty((len(samples), 2, 2))
    source[:, 0, 0] = source[:, 1, 1] = 1.0
    source[:, 0, 1] = source[:, 1, 0] = rho
    gain_u, gain_v = corr_u.reshape(-1, 1, 1), corr_v.reshape(-1, 1, 1)
    info, _ = information_batch(source, gain_u, 1.0 - gain_u * gain_u, gain_v, 1.0 - gain_v * gain_v)
    # The scalar model's volume ratio is rho^2 (its joint has unit
    # variances, so the X and Y blocks do not give it).
    return vector_gap_forms(info, 1, rho * rho)[0], [{"sample": t, "rho": float(r)} for t, r in zip(samples, rho)]


def _draw_vector(mode: str, samples: range, n: int, streams: Streams) -> tuple[np.ndarray, ...]:
    """(sigma_x, sigma_z, gain_u, noise_u, gain_v, noise_v, inject_draw),
    stacked over the samples.

    Each sample draws, in stream order: the factors A of sigma_x and
    sigma_z in one call; then per description a degeneracy draw and, when
    live, its gain and the factor A of its noise covariance in one call.
    vec-epi has no V description, and its even samples draw the equality
    channel's uniform in place of a U description. Every covariance is
    A A^T + 0.1 I, as rng.random_pd makes it, from one stacked product.
    A degenerate description has zero gain and identity noise.
    """
    size = len(samples)
    channels = 2 if mode == "thm1-vector" else 1
    normals = np.zeros((size, 2 + 2 * channels, n, n))  # A_x, A_z, then (gain, A) per description
    live = np.zeros((size, channels), dtype=bool)
    inject_draw = np.zeros(size)
    for i, t in enumerate(samples):
        gen = streams(t, 0)
        gen.standard_normal(out=normals[i, :2])
        if mode == "vec-epi" and t % 2 == 0:
            inject_draw[i] = _uniform(0.05, 0.95, gen.random())
            continue
        for c in range(channels):
            if gen.random() >= DEGENERATE_PROB:
                live[i, c] = True
                gen.standard_normal(out=normals[i, 2 + 2 * c : 4 + 2 * c])
    factors = normals[:, [0, 1, *range(3, 2 + 2 * channels, 2)]]
    eye = np.eye(n)
    pd = factors @ factors.swapaxes(-1, -2) + 0.1 * eye
    noises = [np.where(live[:, c, None, None], pd[:, 2 + c], eye) for c in range(channels)]
    if mode == "thm1-vector":
        gain_v, noise_v = normals[:, 4], noises[1]
    else:  # no V description: zero gain, unit noise, one dimension
        gain_v, noise_v = np.zeros((size, 1, n)), np.ones((size, 1, 1))
    return pd[:, 0], pd[:, 1], normals[:, 2], noises[0], gain_v, noise_v, inject_draw


def _vector_sweep(
    mode: str, samples: range, n: int, streams: Streams
) -> tuple[np.ndarray, list[dict]]:
    sigma_x, sigma_z, gain_u, noise_u, gain_v, noise_v, inject_draw = _draw_vector(mode, samples, n, streams)
    lower_x = cholesky_pd(sigma_x, "sigma_x")
    cholesky_pd(sigma_z, "sigma_z")

    params = [{"sample": t, "n": n} for t in samples]
    if mode == "vec-epi":
        # Equality family on even samples: conditional covariance
        # alpha * sigma_z, scaled to stay below the source covariance.
        for p in params:
            p["injected"] = p["sample"] % 2 == 0
        inj = np.array([i for i, p in enumerate(params) if p["injected"]], dtype=int)
        white = np.linalg.inv(lower_x[inj])
        top = np.linalg.eigvalsh(white @ sigma_z[inj] @ white.transpose(0, 2, 1)).max(axis=1)
        lam = 1.0 + 1.0 / (inject_draw[inj] / top)
        alpha = 1.0 / (lam - 1.0)
        gain_u[inj] = np.eye(n)
        noise_u[inj] = conditional_cov_noise(sigma_x[inj], alpha[:, None, None] * sigma_z[inj])
        for i, a in zip(inj, alpha):
            params[i]["alpha"] = float(a)

    source = np.block([[sigma_x, sigma_x], [sigma_x, sigma_x + sigma_z]])
    info, ld = information_batch(source, gain_u, noise_u, gain_v, noise_v)
    ratio = np.exp((ld["x"] - ld["y"]) / n)
    return vector_gap_forms(info, n, ratio)[0], params


def run_verify_sweep(mode: str, trials: int, dim: int, seed: int) -> dict:
    """Seeded falsification sweep; returns the summary used by `verify`.

    The summary holds the gap statistics, the number of gaps below
    -GAP_TOL, the parameters of the first sample attaining the minimum
    gap, and the per-sample gaps as an array under "gaps".
    """
    if mode not in VERIFY_MODES:
        raise GaussExtremalError(f"unknown mode {mode!r}")
    if trials < 1:
        raise GaussExtremalError("trials must be at least 1")
    if not 1 <= dim <= 64:
        raise GaussExtremalError("dim must lie in [1, 64]")

    vector = mode in ("thm1-vector", "vec-epi")
    chunk = max(1, _STACK_ENTRIES // (4 * dim if vector else 4) ** 2)
    streams = Streams(seed)
    gaps, params = [], []
    for lo in range(0, trials, chunk):
        samples = range(lo, min(trials, lo + chunk))
        if vector:
            g, p = _vector_sweep(mode, samples, dim, streams)
        else:
            g, p = _scalar_sweep(mode, samples, streams)
        gaps.append(g)
        params += p
    gaps = np.concatenate(gaps)
    return {
        "mode": mode,
        "trials": trials,
        "dim": dim if vector else 1,
        "seed": seed,
        "min_gap": float(gaps.min()),
        "mean_gap": float(gaps.mean()),
        "max_gap": float(gaps.max()),
        "negative_count": int(np.count_nonzero(gaps < -GAP_TOL)),
        "argmin": params[int(np.argmin(gaps))],
        "gaps": gaps,
    }
