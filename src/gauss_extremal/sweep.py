"""Seeded falsification sweeps of the extremal inequalities.

Sample t of a sweep draws all its parameters from its own stream, the
(seed, t, 0) key of the sweep's rng.Streams, in a fixed order, so it does
not depend on the other samples or on the sweep length. The sweep first draws every
sample of a chunk, then stacks their joint covariances and evaluates
all of them in one call of the batched information kernel. Chunks only
bound memory: every sample's gap is the same whatever the chunk size.

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
from .extremal import scalar_gap, vector_gap_forms
from .gauss_model import cholesky_pd, conditional_cov_noise, information_batch
from .rng import Streams, random_pd

VERIFY_MODES = ("thm1-scalar", "thm1-vector", "thm3", "oohama", "vec-epi")
GAP_TOL = 1e-9

# Small chance of a degenerate description keeps the zero paths exercised.
DEGENERATE_PROB = 0.02

# Samples per kernel call are capped so that one stack of joint
# covariances holds about 2^18 entries (2 MB): the whole sweep in one call
# for scalar modes, 256 samples at dim 8, 4 at dim 64.
_STACK_ENTRIES = 1 << 18


def _scalar_corr(gen: np.random.Generator) -> float:
    """Channel correlation of a scalar description; 0 is the degenerate one
    (zero gain, unit noise)."""
    if gen.uniform() < DEGENERATE_PROB:
        return 0.0
    return gen.uniform(0.0, 0.999)


def _draw_scalar(mode: str, gen: np.random.Generator) -> tuple[float, float, float]:
    """(rho, U-channel correlation, V-channel correlation) of one sample."""
    if mode == "thm3":
        rho = gen.uniform(-0.99, 0.99)
        return rho, _scalar_corr(gen), _scalar_corr(gen)
    if mode == "thm1-scalar":
        sign = -1.0 if gen.uniform() < 0.5 else 1.0
        rho = sign * gen.uniform(0.05, 0.99)
        return rho, _scalar_corr(gen), _scalar_corr(gen)
    rho = gen.uniform(-0.99, 0.99)  # oohama: no V description
    return rho, gen.uniform(0.0, 0.999), 0.0


def _vector_channel(gen: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(gain, noise covariance) of a random description; the degenerate one
    has zero gain and identity noise."""
    if gen.uniform() < DEGENERATE_PROB:
        return np.zeros((n, n)), np.eye(n)
    gain = gen.standard_normal((n, n))
    return gain, random_pd(gen, n)


def _scalar_sweep(mode: str, samples: range, streams: Streams) -> tuple[np.ndarray, list[dict]]:
    draws = np.array([_draw_scalar(mode, streams(t, 0)) for t in samples])
    rho, corr_u, corr_v = draws.T
    source = np.empty((len(samples), 2, 2))
    source[:, 0, 0] = source[:, 1, 1] = 1.0
    source[:, 0, 1] = source[:, 1, 0] = rho
    gain_u, gain_v = corr_u.reshape(-1, 1, 1), corr_v.reshape(-1, 1, 1)
    info, _ = information_batch(source, gain_u, 1.0 - gain_u * gain_u, gain_v, 1.0 - gain_v * gain_v)
    r2 = rho * rho
    # thm1-scalar: the scalar model's volume ratio is rho^2 (its joint has
    # unit variances, so the X and Y blocks do not give it).
    gaps = vector_gap_forms(info, 1, r2)[0] if mode == "thm1-scalar" else scalar_gap(info, r2)
    return gaps, [{"sample": t, "rho": float(r)} for t, r in zip(samples, rho)]


def _vector_sweep(
    mode: str, samples: range, n: int, streams: Streams
) -> tuple[np.ndarray, list[dict]]:
    size = len(samples)
    sigma_x, sigma_z, gain_u, noise_u, gain_v, noise_v = (np.empty((size, n, n)) for _ in range(6))
    inject_draw = np.zeros(size)
    for i, t in enumerate(samples):
        gen = streams(t, 0)
        sigma_x[i] = random_pd(gen, n)
        sigma_z[i] = random_pd(gen, n)
        if mode == "thm1-vector":
            gain_u[i], noise_u[i] = _vector_channel(gen, n)
            gain_v[i], noise_v[i] = _vector_channel(gen, n)
        elif t % 2 == 0:
            inject_draw[i] = gen.uniform(0.05, 0.95)
        else:
            gain_u[i], noise_u[i] = _vector_channel(gen, n)
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
        # No V description: zero gain, unit noise, one dimension.
        gain_v, noise_v = np.zeros((size, 1, n)), np.ones((size, 1, 1))

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
