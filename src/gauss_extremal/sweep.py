"""Seeded falsification sweeps of the extremal inequalities.

Sample t of a sweep draws all its parameters from its own stream, the
(seed, t, 0) key of the sweep's rng.Streams, in a fixed order, so it does not
depend on the other samples or on the sweep length, and makes as few numpy
calls as that order allows. The sweep first draws every sample of a chunk,
forms all its covariances A A^T + PD_RIDGE I in one stacked product, then
stacks the joint covariances of its pairs Y = rho X + Z (the unit-variance
pair, sigma_z = 1 - rho^2, in the scalar modes; rho = 1 in the vector modes)
and evaluates all of them in one call of the batched information kernel,
whose log-determinants also give the volume ratio. The kernel checks a drawn
covariance: sigma_x is its X block and sigma_z the Schur complement of X in
its XY block. In every mode but vec-epi it is the only check. vec-epi's even
samples take the equality channel U = W X + N(0, diag(q)), q = alpha d /
(1 - alpha d), in the basis W of their pair (extremal._equality_noise); there
cholesky_pd of sigma_x and sigma_z names a failing sample by its position
among the chunk's even samples, not by its number. Every value equals the one
drawn with a call per value. Chunks only bound memory: every sample's gap is
the same whatever the chunk size. Each verify mode is one entry of _MODES.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import DomainError
from .extremal import _equality_noise, vector_gap_forms, volume_ratio
from .gauss_model import _pair_spectrum, _source_covariance, information_batch
from .rng import PD_RIDGE, Streams

GAP_TOL = 1e-9  # gaps that are 0 exactly (vec-epi's equality channels) round to -2.3e-12 at dim 16

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


def _scalar_corrs(u: np.ndarray, at: int) -> list[np.ndarray]:
    """Correlations of the U and V descriptions, whose draws start at
    column at of each row of u. A degenerate description (zero gain, unit
    noise) has correlation 0 and draws no correlation."""
    rows, at, corrs = np.arange(len(u)), np.full(len(u), at), []
    for _ in range(2):
        degenerate = u[rows, at] < DEGENERATE_PROB
        corrs.append(np.where(degenerate, 0.0, _uniform(0.0, 0.999, u[rows, at + 1])))
        at = at + np.where(degenerate, 1, 2)
    return corrs


def _thm3(u: np.ndarray) -> tuple[np.ndarray, ...]:
    return _uniform(-0.99, 0.99, u[:, 0]), *_scalar_corrs(u, 1)


def _thm1_scalar(u: np.ndarray) -> tuple[np.ndarray, ...]:  # a sign, then |rho|
    return np.where(u[:, 0] < 0.5, -1.0, 1.0) * _uniform(0.05, 0.99, u[:, 1]), *_scalar_corrs(u, 2)


def _oohama(u: np.ndarray) -> tuple[np.ndarray, ...]:  # U never degenerate, no V description
    return _uniform(-0.99, 0.99, u[:, 0]), _uniform(0.0, 0.999, u[:, 1]), np.zeros(len(u))


def _scalar_samples(corrs_of, samples: range, n: int, streams: Streams) -> tuple[tuple, list[dict]]:
    """(sigma_x, sigma_z, rho, gain_u, noise_u, gain_v, noise_v) of the
    unit-variance pairs (n = 1), stacked over the samples, and their params.
    Each sample draws its standard uniforms from its stream in one call, and
    corrs_of maps them, as Generator.uniform would, to (rho, U-channel
    correlation, V-channel correlation) for all samples at once."""
    u = np.empty((len(samples), _SCALAR_DRAWS))
    for i, t in enumerate(samples):
        streams(t, 0).random(out=u[i])
    rho, corr_u, corr_v = corrs_of(u)
    gain_u, gain_v = corr_u.reshape(-1, 1, 1), corr_v.reshape(-1, 1, 1)
    sources = np.ones((len(samples), 1, 1)), (1.0 - rho * rho).reshape(-1, 1, 1), rho
    channels = gain_u, 1.0 - gain_u * gain_u, gain_v, 1.0 - gain_v * gain_v
    return (*sources, *channels), [{"sample": t, "rho": float(r)} for t, r in zip(samples, rho)]


def _draw_vector(samples: range, n: int, streams: Streams, descriptions: int, inject_even: bool) -> tuple:
    """(sigma_x, sigma_z, gain_u, noise_u, gain_v, noise_v, inject_draw) of
    2 descriptions or only U, stacked over the samples. Each sample draws,
    in stream order: the factors A of sigma_x and sigma_z in one call; then
    per description a degeneracy draw and, when live, its gain and the
    factor A of its noise covariance in one call. With inject_even, even
    samples draw the equality channel's uniform in place of their
    descriptions. A degenerate description has zero gain and identity noise.
    """
    size = len(samples)
    normals = np.zeros((size, 2 + 2 * descriptions, n, n))  # A_x, A_z, then (gain, A) per description
    live = np.zeros((size, descriptions), dtype=bool)
    inject_draw = np.zeros(size)
    for i, t in enumerate(samples):
        gen = streams(t, 0)
        gen.standard_normal(out=normals[i, :2])
        if inject_even and t % 2 == 0:
            inject_draw[i] = _uniform(0.05, 0.95, gen.random())
            continue
        for c in range(descriptions):
            if gen.random() >= DEGENERATE_PROB:
                live[i, c] = True
                gen.standard_normal(out=normals[i, 2 + 2 * c : 4 + 2 * c])
    factors = normals[:, [0, 1, *range(3, 2 + 2 * descriptions, 2)]]
    eye = np.eye(n)
    pd = factors @ factors.swapaxes(-1, -2) + PD_RIDGE * eye
    noises = [np.where(live[:, c, None, None], pd[:, 2 + c], eye) for c in range(descriptions)]
    if descriptions == 2:
        gain_v, noise_v = normals[:, 4], noises[1]
    else:  # no V description: zero gain, unit noise, one dimension
        gain_v, noise_v = np.zeros((size, 1, n)), np.ones((size, 1, 1))
    return pd[:, 0], pd[:, 1], normals[:, 2], noises[0], gain_v, noise_v, inject_draw


def _thm1_vector(samples: range, n: int, streams: Streams) -> tuple[tuple, list[dict]]:
    sigma_x, sigma_z, *channels, _ = _draw_vector(samples, n, streams, 2, inject_even=False)
    return (sigma_x, sigma_z, 1.0, *channels), [{"sample": t, "n": n} for t in samples]


def _vec_epi(samples: range, n: int, streams: Streams) -> tuple[tuple, list[dict]]:
    drawn = _draw_vector(samples, n, streams, 1, inject_even=True)
    sigma_x, sigma_z, gain_u, noise_u, gain_v, noise_v, inject_draw = drawn
    inj = np.arange(samples.start % 2, len(samples), 2)  # the even samples
    d, gain_u[inj] = _pair_spectrum(sigma_x[inj], sigma_z[inj])
    alpha = inject_draw[inj] / d[:, -1]  # alpha max d in [0.05, 0.95): Cov(X|U) = alpha sigma_z exists
    noise_u[inj] = _equality_noise(alpha, d)
    params = [{"sample": t, "n": n, "injected": t % 2 == 0} for t in samples]
    for i, a in zip(inj, alpha):
        params[i]["alpha"] = float(a)
    return (sigma_x, sigma_z, 1.0, gain_u, noise_u, gain_v, noise_v), params


# Each verify mode, in the CLI's --mode order: its draw, (samples, n,
# streams) -> (stacked kernel inputs, per-sample params), and whether it
# runs at --dim (else at n = 1). thm1-scalar and thm3 describe a
# unit-variance pair twice, oohama once; thm1-vector draws random
# channels, and vec-epi mixes in equality-family ones, which attain zero gap.
_MODES = {
    "thm1-scalar": (functools.partial(_scalar_samples, _thm1_scalar), False),
    "thm1-vector": (_thm1_vector, True),
    "thm3": (functools.partial(_scalar_samples, _thm3), False),
    "oohama": (functools.partial(_scalar_samples, _oohama), False),
    "vec-epi": (_vec_epi, True),
}
VERIFY_MODES = tuple(_MODES)


def run_verify_sweep(mode: str, trials: int, dim: int, seed: int) -> dict:
    """Seeded falsification sweep; returns the summary used by `verify`.

    The summary holds the gap statistics, the number of gaps below
    -GAP_TOL, the parameters of the first sample attaining the minimum
    gap, and the per-sample gaps as an array under "gaps".
    """
    if mode not in VERIFY_MODES:
        raise DomainError(f"unknown mode {mode!r}")
    for name, value in (("trials", trials), ("dim", dim)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):  # 2.5 fails later, True passes as 1
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if not 1 <= dim <= 64:
        raise DomainError("dim must lie in [1, 64]")

    draw, runs_at_dim = _MODES[mode]
    n = dim if runs_at_dim else 1
    chunk = max(1, _STACK_ENTRIES // (4 * n) ** 2)
    streams = Streams(seed)
    gaps = []
    for lo in range(0, trials, chunk):
        (sigma_x, sigma_z, rho, *channels), params = draw(range(lo, min(trials, lo + chunk)), n, streams)
        info, ld = information_batch(_source_covariance(sigma_x, sigma_z, rho), *channels)
        gaps.append(vector_gap_forms(info, n, volume_ratio(ld, n, rho))[0])
        i = int(np.argmin(gaps[-1]))
        if lo == 0 or gaps[-1][i] < best:  # strictly: the first sample at the minimum wins
            best, argmin = gaps[-1][i], params[i]
    gaps = np.concatenate(gaps)
    return {
        "mode": mode,
        "trials": trials,
        "dim": n,
        "seed": seed,
        "min_gap": float(gaps.min()),
        "mean_gap": float(gaps.mean()),
        "max_gap": float(gaps.max()),
        "negative_count": int(np.count_nonzero(gaps < -GAP_TOL)),
        "argmin": argmin,
        "gaps": gaps,
    }
