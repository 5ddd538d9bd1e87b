"""Monte Carlo simulator of rate-constrained covering ellipsoids.

The construction being simulated: k independent source pairs (X_i, Y_i)
share an n x n covariance sigma (cross-covariance rho * sigma). Each
encoder sends a rate-constrained description of its samples; the decoder
forms per-pair conditional-mean estimates and publishes one ellipsoid per
source that covers all k of that source's points while keeping the
normalized volume near the information-theoretic floor.

Descriptions are idealized: instead of an explicit binning code, the
samples are passed through the additive-Gaussian test channel achieving
the same normalized MMSE targets (nu_x, nu_y) in whitened coordinates,
with the noise levels in closed form and the implied rates reported
and checked against the closed-form rate region. This keeps the
simulation honest at desk scale without implementing a quantizer.

The covering matrix deflates the whitening map along the span of the k
description centers: with tau = 1 - 2 sqrt(delta), gamma = (1 - delta) tau
and an orthonormal basis u_1..u_k' of the center span (the leading right
singular vectors of the k x n center matrix),

    B = (tau I - gamma sum_j u_j u_j^T) A,

whose determinant satisfies |B| = |A| tau^(n-k') (tau - gamma)^k' exactly.
Each trial factorizes B once per source (one LU, through slogdet); that
log|B| gives the normalized volume and is checked against the identity.
A = s Lambda^(-1/2) U^T is fixed for the run, so log|A| = n log s -
(1/2) log|sigma| comes once per run from the whitening eigenvalues, and the
check compares an independent LU of B with a value the identity did not
produce. Every trial reports its residual, and the report prints that same
log|sigma|, so sigma is factorized once for its validation and once for
its whitening.

Trials are independent; each draws from counter-based streams keyed by
(seed, trial, stream), so the aggregate is bit-reproducible regardless of
execution order. A run evaluates its trials in memory-bounded stacks,
with one stacked SVD and one stacked slogdet (one LU per trial) per stack
and source; numpy's stacked matmul, svd and slogdet work matrix by
matrix, and sums run in trial order, so the stack size changes no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShrinkage, DomainError, Infeasible
from .gauss_model import cholesky_pd, log_det
from .rate_region import RegionQuery, RegionVerdict, region_verdict
from .rng import STREAM_NOISE_X, STREAM_NOISE_Y, STREAM_SOURCE, Streams, check_seed
# stream stays importable from this module: the benchmark's tracer tests name it here.
from .rng import stream  # noqa: F401

# Implied rates sit on the dominant face of the achievable region; this
# slack nudges them strictly inside so boundary round-off cannot flip the
# membership check.
RATE_SLACK = 1e-9

LOG_2PIE = math.log(2.0 * math.pi * math.e)

# Trials per stack are capped so that one stack of n x n matrices holds
# about 2^18 entries (2 MB): 256 trials at n = 32, 4 at n = 256, and one
# for n > 362, where a trial's memory and work are what they are alone.
_STACK_ENTRIES = 1 << 18


def log_unit_ball_volume(n: int) -> float:
    """log c_n = (n/2) log pi - log Gamma(n/2 + 1), in nats."""
    if n < 1:
        raise DomainError("n must be at least 1")
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def unit_ball_volume(n: int) -> float:
    """Volume c_n of the n-dimensional unit ball (underflows to 0 for huge n)."""
    return math.exp(log_unit_ball_volume(n))


@dataclass(frozen=True)
class Ellipsoid:
    """The set {x : ||A x - b|| <= 1}."""

    a_matrix: np.ndarray
    b_center: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        b = np.asarray(self.b_center, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("a_matrix must be square")
        if b.shape != (a.shape[0],):
            raise DomainError("b_center length must match a_matrix")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DomainError("ellipsoid parameters must be finite")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_center", b)

    def contains(self, x) -> np.ndarray | bool:
        """Membership test; accepts one point (n,) or a batch (m, n)."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        inside = np.linalg.norm(pts @ self.a_matrix.T - self.b_center, axis=1) <= 1.0
        return bool(inside[0]) if single else inside


def ellipsoid_volume(e: Ellipsoid) -> float:
    """c_n / |A| for a positive-definite shape matrix, via log domain."""
    n = e.a_matrix.shape[0]
    return math.exp(log_unit_ball_volume(n) - log_det(e.a_matrix, "a_matrix"))


@dataclass(frozen=True)
class CodecConfig:
    """Parameters of one simulation run."""

    n: int
    k: int
    rho: float
    sigma: np.ndarray
    nu_x: float
    nu_y: float
    delta: float = 0.0025
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be at least 1")
        if not 1 <= self.k <= self.n:
            raise DomainError("k must satisfy 1 <= k <= n")
        if not -1.0 < self.rho < 1.0:
            raise DomainError("rho must lie in (-1, 1)")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (self.n, self.n):
            raise DomainError("sigma must be n x n")
        cholesky_pd(sigma, "sigma")
        sigma = sigma.copy()
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        for name in ("nu_x", "nu_y"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise DomainError(f"{name} must lie in (0, 1]")
        if not 0.0 < self.delta < 0.25:
            raise DomainError("delta must lie in (0, 0.25) so the shrinkage factor stays positive")
        if self.delta >= self.nu_x or self.delta >= self.nu_y:
            raise DomainError("delta must stay below both distortion targets")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        check_seed(self.seed)

    @property
    def tau(self) -> float:
        return 1.0 - 2.0 * math.sqrt(self.delta)


def solve_noise_levels(rho: float, nu_x: float, nu_y: float) -> tuple[float, float]:
    """Additive-noise variances (q_x, q_y) whose per-coordinate conditional
    errors hit the targets exactly: Var(X|U,V) = nu_x and Var(Y|U,V) = nu_y
    for unit-variance (X, Y) with correlation rho, U = X + N(0, q_x),
    V = Y + N(0, q_y).

    Closed form, from inverting the posterior precision of (X, Y): with
    c = 1 - rho^2, t = 4 nu_x nu_y rho^2 / c^2, h = c t / (1 + sqrt(1 + t))
    and the margins g_x = 1 - rho^2 (1 - nu_y) - nu_x (g_y likewise),
    q_x = c (h + 2 nu_x) / (2 g_x), free of cancellation; nu / (1 - nu) at
    rho = 0. Raises Infeasible when no nonnegative pair meets both targets:
    a margin is not positive while rho != 0, so one target is looser than
    what the other description alone achieves. A zero margin at rho = 0
    (nu = 1) is a description that is not sent, q = inf.
    """
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    if not (0.0 < nu_x <= 1.0 and 0.0 < nu_y <= 1.0):
        raise DomainError("targets must lie in (0, 1]")
    r2 = rho * rho
    if nu_x == 1.0 and nu_y == 1.0:
        return math.inf, math.inf
    g_x = (1.0 - r2 * (1.0 - nu_y)) - nu_x
    g_y = (1.0 - r2 * (1.0 - nu_x)) - nu_y
    if r2 != 0.0 and (g_x <= 0.0 or g_y <= 0.0):
        raise Infeasible(
            "no additive-noise pair attains both targets: one target is not "
            "below what the other description alone already achieves"
        )
    c = 1.0 - r2
    t = 4.0 * nu_x * nu_y * r2 / (c * c)
    h = c * t / (1.0 + math.sqrt(1.0 + t))
    q_x, q_y = (
        c * (h + 2.0 * nu) / (2.0 * g) if g > 0.0 else math.inf  # g = 0 only at rho = 0, nu = 1
        for nu, g in ((nu_x, g_x), (nu_y, g_y))
    )
    if not (q_x > 0.0 and q_y > 0.0):
        raise Infeasible("a target is so small that its noise level underflows to 0")
    (_, e_x, v_x), (_, e_y, v_y), d = _test_channel(rho, q_x, q_y)
    if not (abs(e_x * v_x / d - nu_x) <= 1e-9 and abs(e_y * v_y / d - nu_y) <= 1e-9):
        raise Infeasible("the solved noise levels miss the targets")
    return q_x, q_y


def _test_channel(rho: float, q_x: float, q_y: float):
    """((s_x, e_x, v_x), (s_y, e_y, v_y), d) of the noise levels q_x, q_y > 0.

    s_x = 1/(1 + q_x) = Corr(X, U)^2 and e_x = q_x/(1 + q_x) = Var(X|U),
    each without cancellation (s = 0, e = 1 for a description that is not
    sent, q = inf); v_x = 1 - rho^2 s_y = Var(X|V); d = 1 - rho^2 s_x s_y
    = 2^(-2 I(U;V)), so that Var(X|U,V) = e_x v_x / d. Likewise for Y.
    """
    r2 = rho * rho
    s_x, s_y = 1.0 / (1.0 + q_x), 1.0 / (1.0 + q_y)
    e_x, e_y = 1.0 / (1.0 + 1.0 / q_x), 1.0 / (1.0 + 1.0 / q_y)
    return (s_x, e_x, 1.0 - r2 * s_y), (s_y, e_y, 1.0 - r2 * s_x), 1.0 - r2 * s_x * s_y


def _cond_weights(q_x: float, q_y: float, rho: float) -> tuple[float, float, float, float]:
    """Coefficients of (U, V) in the conditional means of X and Y.

    The cross weights carry the sign of rho. A description that is not
    sent has weight 0.
    """
    (s_x, e_x, v_x), (s_y, e_y, v_y), d = _test_channel(rho, q_x, q_y)
    return s_x * v_x / d, rho * e_x * s_y / d, rho * s_x * e_y / d, s_y * v_y / d


def implied_rates(rho: float, nu_x: float, nu_y: float, q_x: float, q_y: float) -> tuple[float, float]:
    """Per-dimension description rates for the solved test channel.

    Each encoder is charged its conditional information given the other
    description plus half the shared information I(U;V); the pair then sits
    on the dominant face of the achievable region (the sum equals the joint
    information exactly) with a small slack pushing a sent description
    strictly inside. A description that is not sent has rate 0.
    """
    (s_x, _, v_x), (s_y, _, v_y), d = _test_channel(rho, q_x, q_y)
    shared = -0.5 * math.log2(d)  # I(U;V)
    # I(X;U|V) = (1/2) log2(Var(X|V) / nu_x), and likewise for Y.
    r_x = 0.5 * math.log2(v_x / nu_x) + 0.5 * shared + (RATE_SLACK if s_x > 0.0 else 0.0)
    r_y = 0.5 * math.log2(v_y / nu_y) + 0.5 * shared + (RATE_SLACK if s_y > 0.0 else 0.0)
    return r_x, r_y


@dataclass(frozen=True)
class ShrunkMatrix:
    b_matrix: np.ndarray
    logdet_b: float  # log |det B|, from the one LU of B
    logdet_residual: float
    rank: int
    basis: np.ndarray  # rank x n orthonormal rows spanning the centers


def _deflate(a: np.ndarray, centers: np.ndarray, delta: float, logdet_a: float):
    """Deflate a along the span of each trial's centers; logdet_a is log |det a|.

    centers is a (T, k, n) stack. A trial's span basis is the right
    singular vectors of its centers whose singular values exceed 1e-10
    times its largest center norm; the other rows of vt are zeroed, so the
    bases stay one (T, k, n) stack. Each B is factorized once (slogdet
    does one LU per matrix of the stack) and its log-determinant compared
    with the identity's value. Returns the (T, ...) stacks of B, log |det
    B|, the residual, the rank and the zero-padded basis.
    """
    tau = 1.0 - 2.0 * math.sqrt(delta)
    gamma = (1.0 - delta) * tau
    if tau - gamma <= 0.0:  # tau <= 0, or delta so small that 1 - delta rounds to 1
        raise DegenerateShrinkage(f"tau - gamma = {tau - gamma:g} <= 0 at delta = {delta:g}")
    _, singular, vt = np.linalg.svd(centers, full_matrices=False)
    cutoff = 1e-10 * np.max(np.linalg.norm(centers, axis=2), axis=1, initial=0.0)
    kept = singular > cutoff[:, None]
    vt[~kept] = 0.0
    rank = np.count_nonzero(kept, axis=1)

    b = gamma * vt.transpose(0, 2, 1) @ (vt @ a)
    np.subtract(tau * a, b, out=b)
    _, ld_b = np.linalg.slogdet(b)
    n = a.shape[0]
    expected = logdet_a + (n - rank) * math.log(tau) + rank * math.log(tau - gamma)
    return b, ld_b, np.abs(ld_b - expected), rank, vt


def build_shrunk_matrix(a_x: np.ndarray, centers, delta: float) -> ShrunkMatrix:
    """Deflate a_x along the span of the description centers.

    Returns the shrunk matrix, its log-determinant, the residual of the
    determinant identity |B| = |A| tau^(n-k') (tau - gamma)^k', and the span
    rank k'. Centers may be rank deficient; the identity uses the actual
    rank.
    """
    a = np.asarray(a_x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("a_x must be square")
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if c.shape[1] != a.shape[0]:
        raise DomainError("centers must have the same dimension as a_x")
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    _, ld_a = np.linalg.slogdet(a)
    b, ld_b, residual, rank, basis = _deflate(a, c[None], delta, float(ld_a))
    rank = int(rank[0])
    return ShrunkMatrix(
        b_matrix=b[0], logdet_b=float(ld_b[0]), logdet_residual=float(residual[0]), rank=rank,
        basis=basis[0, :rank],
    )


@dataclass(frozen=True)
class DescriptionSet:
    """One trial's conditional-mean estimates and the channel's rates."""

    x_hat: np.ndarray  # k x n, original coordinates
    y_hat: np.ndarray
    r_x: float
    r_y: float
    q_x: float
    q_y: float
    region: RegionVerdict


@dataclass(frozen=True)
class TrialReport:
    trial: int
    covered_x: tuple[bool, ...]
    covered_y: tuple[bool, ...]
    norm_volume_x: float
    norm_volume_y: float
    norm_volume_x_corrected: float
    norm_volume_y_corrected: float
    implied_rates: tuple[float, float]
    logdet_residual_x: float
    logdet_residual_y: float
    rank_x: int
    rank_y: int


@dataclass(frozen=True)
class SimulationReport:
    config: CodecConfig
    trials: tuple[TrialReport, ...]
    coverage_x: float
    coverage_y: float
    per_point_failure_max_x: float
    per_point_failure_max_y: float
    mean_norm_vol_x: float
    mean_norm_vol_y: float
    mean_norm_vol_x_corrected: float
    mean_norm_vol_y_corrected: float
    r_x: float
    r_y: float
    q_x: float
    q_y: float
    region: RegionVerdict
    region_inside: bool
    residual_max: float
    log_det_sigma: float  # natural log, from the whitening eigenvalues
    whitening_frobenius_error: float
    center_norm_exceed_frac_x: float
    center_norm_exceed_frac_y: float


class _Setup:
    """What every trial of a run shares: the whitening of sigma, the
    solved description channel and the run's random streams."""

    def __init__(self, config: CodecConfig):
        self.config = config
        eigvals, eigvecs = np.linalg.eigh(0.5 * (config.sigma + config.sigma.T))
        self.white = (eigvecs / np.sqrt(eigvals)).T  # Lambda^{-1/2} U^T
        self.unwhite = eigvecs * np.sqrt(eigvals)  # U Lambda^{1/2}
        self.log_det_sigma = float(np.sum(np.log(eigvals)))
        rho, nu_x, nu_y = config.rho, config.nu_x, config.nu_y
        self.q_x, self.q_y = solve_noise_levels(rho, nu_x, nu_y)
        self.r_x, self.r_y = implied_rates(rho, nu_x, nu_y, self.q_x, self.q_y)
        self.verdict = region_verdict(
            RegionQuery(rho=rho, r_x=self.r_x, r_y=self.r_y, nu_x=nu_x, nu_y=nu_y)
        )
        self.weights = _cond_weights(self.q_x, self.q_y, rho)
        self.streams = Streams(config.seed)

    def draw(self, trials: range):
        """Some trials: their whitened X samples, their (x, y) samples and
        the conditional-mean estimates (x_hat, y_hat) in original
        coordinates, each a (len(trials), k, n) stack."""
        cfg = self.config
        k, n, rho = cfg.k, cfg.n, cfg.rho
        shape = (len(trials), k, n)
        g1, g2 = np.empty(shape), np.empty(shape)
        noises = {
            stream_id: np.empty(shape)
            for stream_id, q in ((STREAM_NOISE_X, self.q_x), (STREAM_NOISE_Y, self.q_y))
            if math.isfinite(q)  # an infinite noise level: the description is not sent
        }
        for i, t in enumerate(trials):
            src = self.streams(t, STREAM_SOURCE)
            src.standard_normal(out=g1[i])
            src.standard_normal(out=g2[i])
            for stream_id, noise in noises.items():
                self.streams(t, stream_id).standard_normal(out=noise[i])
        xw = g1
        yw = rho * g1 + math.sqrt(1.0 - rho * rho) * g2
        w_xu, w_xv, w_yu, w_yv = self.weights
        xhat_w = np.zeros(shape)
        yhat_w = np.zeros(shape)
        for sample, q, stream_id, w_x, w_y in (
            (xw, self.q_x, STREAM_NOISE_X, w_xu, w_yu),
            (yw, self.q_y, STREAM_NOISE_Y, w_xv, w_yv),
        ):
            if stream_id in noises:
                desc = sample + math.sqrt(q) * noises[stream_id]
                xhat_w += w_x * desc
                yhat_w += w_y * desc
        unwhite_t = self.unwhite.T
        return xw, (xw @ unwhite_t, yw @ unwhite_t), (xhat_w @ unwhite_t, yhat_w @ unwhite_t)


def simulate_descriptions(config: CodecConfig, trial: int = 0) -> DescriptionSet:
    """One draw of the idealized description channel.

    The implied rates together with the distortion targets are checked
    against the closed-form region and the verdict is attached to the
    result (the construction should always land inside).
    """
    setup = _Setup(config)
    _, _, (x_hat, y_hat) = setup.draw(range(trial, trial + 1))
    return DescriptionSet(
        x_hat=x_hat[0], y_hat=y_hat[0], r_x=setup.r_x, r_y=setup.r_y, q_x=setup.q_x, q_y=setup.q_y,
        region=setup.verdict,
    )


def run_simulation(config: CodecConfig) -> SimulationReport:
    """Run all trials and aggregate coverage, volume, and identity checks.

    Per trial and source: draw the k pairs, form conditional-mean centers
    b_i = A x_hat_i with A the scaled whitening map, deflate A along the
    center span, then record which points satisfy ||B X_i|| <= 1, the
    vol^(1/n) of {||B x|| <= 1} normalized by sqrt(2 pi e nu |sigma|^(1/n)),
    the same volume with the deterministic shrinkage factor
    tau delta^(k'/n) divided out (this ratio tends to 1 as n grows), and
    the determinant-identity residual. Raises on any error; partial
    aggregates are never returned.
    """
    setup = _Setup(config)
    n, k, trials, delta, tau = config.n, config.k, config.trials, config.delta, config.tau
    log_cn = log_unit_ball_volume(n)
    nus = (config.nu_x, config.nu_y)
    scales = [1.0 / math.sqrt(n * nu) for nu in nus]
    a_mats = [s * setup.white for s in scales]
    # log |det (s Lambda^{-1/2} U^T)| = n log s - (1/2) log |sigma|.
    logdet_as = [n * math.log(s) - 0.5 * setup.log_det_sigma for s in scales]
    norm_bound = 1.0 / math.sqrt(delta)

    reports: list[TrialReport] = []
    cov_sums = np.zeros((2, k))
    exceeds = [0, 0]
    white_cov_sum = np.zeros((n, n))

    chunk = max(1, _STACK_ENTRIES // (n * n))
    for lo in range(0, trials, chunk):
        chunk_trials = range(lo, min(trials, lo + chunk))
        xw, points, estimates = setup.draw(chunk_trials)
        # Each trial's X^T X, added in trial order as a running sum would.
        grams = xw.transpose(0, 2, 1) @ xw
        grams[0] += white_cov_sum
        white_cov_sum = grams.sum(axis=0)
        del grams  # n x n per trial: no stack stays alive through the deflation
        per_source = []
        for i in range(2):  # source 0 is X, source 1 is Y
            centers = estimates[i] @ a_mats[i].T
            exceeds[i] += int(np.count_nonzero(np.linalg.norm(centers, axis=2) >= norm_bound))
            b, logdet_b, residual, rank, _ = _deflate(a_mats[i], centers, delta, logdet_as[i])
            covered = np.linalg.norm(points[i] @ b.transpose(0, 2, 1), axis=2) <= 1.0
            cov_sums[i] += covered.sum(axis=0)
            vols = [
                math.exp(
                    log_cn / n - ld_b / n
                    - 0.5 * (LOG_2PIE + math.log(nus[i]) + setup.log_det_sigma / n)
                )
                for ld_b in logdet_b.tolist()
            ]
            rank = rank.tolist()
            corrected = [vol * tau * delta ** (r / n) for vol, r in zip(vols, rank)]
            per_source.append((covered.tolist(), vols, corrected, residual.tolist(), rank))
        (cov_x, vol_x, corr_x, res_x, rank_x), (cov_y, vol_y, corr_y, res_y, rank_y) = per_source
        for j, t in enumerate(chunk_trials):
            reports.append(TrialReport(
                trial=t, covered_x=tuple(cov_x[j]), covered_y=tuple(cov_y[j]),
                norm_volume_x=vol_x[j], norm_volume_y=vol_y[j],
                norm_volume_x_corrected=corr_x[j], norm_volume_y_corrected=corr_y[j],
                implied_rates=(setup.r_x, setup.r_y),
                logdet_residual_x=res_x[j], logdet_residual_y=res_y[j],
                rank_x=rank_x[j], rank_y=rank_y[j],
            ))

    per_point_cov = cov_sums / trials
    white_err = float(np.linalg.norm(white_cov_sum / (trials * k) - np.eye(n))) / n
    residual_max = max(max(r.logdet_residual_x, r.logdet_residual_y) for r in reports)

    return SimulationReport(
        config=config,
        trials=tuple(reports),
        coverage_x=float(np.mean(per_point_cov[0])),
        coverage_y=float(np.mean(per_point_cov[1])),
        per_point_failure_max_x=float(1.0 - per_point_cov[0].min()),
        per_point_failure_max_y=float(1.0 - per_point_cov[1].min()),
        mean_norm_vol_x=float(np.mean([r.norm_volume_x for r in reports])),
        mean_norm_vol_y=float(np.mean([r.norm_volume_y for r in reports])),
        mean_norm_vol_x_corrected=float(np.mean([r.norm_volume_x_corrected for r in reports])),
        mean_norm_vol_y_corrected=float(np.mean([r.norm_volume_y_corrected for r in reports])),
        r_x=setup.r_x,
        r_y=setup.r_y,
        q_x=setup.q_x,
        q_y=setup.q_y,
        region=setup.verdict,
        region_inside=setup.verdict.inside,
        residual_max=residual_max,
        log_det_sigma=setup.log_det_sigma,
        whitening_frobenius_error=white_err,
        center_norm_exceed_frac_x=exceeds[0] / (trials * k),
        center_norm_exceed_frac_y=exceeds[1] / (trials * k),
    )


def report_to_dict(report: SimulationReport) -> dict:
    """JSON-ready aggregate report (config echo plus the summary fields).

    An infinite noise level (nu = 1: that description is not sent) is
    reported as None, JSON null, since JSON has no infinity.
    """
    cfg = report.config
    finite_or_none = lambda q: q if math.isfinite(q) else None
    return {
        "config": {
            "n": cfg.n,
            "k": cfg.k,
            "rho": cfg.rho,
            "nu_x": cfg.nu_x,
            "nu_y": cfg.nu_y,
            "delta": cfg.delta,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "sigma": {
                "n": cfg.n,
                "trace": float(np.trace(cfg.sigma)),
                "log_det": report.log_det_sigma,
            },
        },
        "coverage_x": report.coverage_x,
        "coverage_y": report.coverage_y,
        "per_point_failure_max_x": report.per_point_failure_max_x,
        "per_point_failure_max_y": report.per_point_failure_max_y,
        "mean_norm_vol_x": report.mean_norm_vol_x,
        "mean_norm_vol_y": report.mean_norm_vol_y,
        "mean_norm_vol_x_corrected": report.mean_norm_vol_x_corrected,
        "mean_norm_vol_y_corrected": report.mean_norm_vol_y_corrected,
        "implied_rates": {"r_x": report.r_x, "r_y": report.r_y},
        "noise_levels": {"q_x": finite_or_none(report.q_x), "q_y": finite_or_none(report.q_y)},
        "region_inside": report.region_inside,
        "residual_max": report.residual_max,
        "whitening_frobenius_error": report.whitening_frobenius_error,
        "center_norm_exceed_frac_x": report.center_norm_exceed_frac_x,
        "center_norm_exceed_frac_y": report.center_norm_exceed_frac_y,
    }


def trials_csv_rows(report: SimulationReport, precision: int = 12) -> list[str]:
    """Per-trial CSV lines with the canonical header, sorted by trial."""
    fmt = lambda v: format(v, f".{precision}g")
    rows = ["trial,covered_x_frac,covered_y_frac,normvol_x,normvol_y"]
    for tr in report.trials:
        rows.append(
            ",".join(
                [
                    str(tr.trial),
                    fmt(sum(tr.covered_x) / len(tr.covered_x)),
                    fmt(sum(tr.covered_y) / len(tr.covered_y)),
                    fmt(tr.norm_volume_x),
                    fmt(tr.norm_volume_y),
                ]
            )
        )
    return rows
