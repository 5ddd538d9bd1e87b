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
with the noise levels solved by bisection and the implied rates reported
and checked against the closed-form rate region. This keeps the
simulation honest at desk scale without implementing a quantizer.

The covering matrix deflates the whitening map along the span of the k
description centers: with tau = 1 - 2 sqrt(delta), gamma = (1 - delta) tau
and an orthonormal basis u_1..u_k' of the center span,

    B = (tau I - gamma sum_j u_j u_j^T) A,

whose determinant satisfies |B| = |A| tau^(n-k') (tau - gamma)^k' exactly;
every trial recomputes that identity and reports the residual.

Trials are independent; each draws from counter-based streams keyed by
(seed, trial, stream), so the aggregate is bit-reproducible regardless of
execution order. Aggregation is order-independent (sums and counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShrinkage, DomainError, Infeasible
from .gauss_model import cholesky_pd, log_det
from .rate_region import RegionQuery, RegionVerdict, region_verdict
from .rng import STREAM_NOISE_X, STREAM_NOISE_Y, STREAM_SOURCE, check_seed, stream

# Implied rates sit on the dominant face of the achievable region; this
# slack nudges them strictly inside so boundary round-off cannot flip the
# membership check.
RATE_SLACK = 1e-9

LOG_2PIE = math.log(2.0 * math.pi * math.e)


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

    Fixing q_y, the q_x hitting the X target is eliminated in closed form;
    the remaining scalar equation in q_y is solved by bisection. Raises
    Infeasible when no nonnegative pair meets both targets (one target
    looser than what the other side's description already implies).
    """
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    if not (0.0 < nu_x <= 1.0 and 0.0 < nu_y <= 1.0):
        raise DomainError("targets must lie in (0, 1]")
    r2 = rho * rho
    if nu_x == 1.0 and nu_y == 1.0:
        return math.inf, math.inf
    if r2 == 0.0:
        q_x = math.inf if nu_x == 1.0 else nu_x / (1.0 - nu_x)
        q_y = math.inf if nu_y == 1.0 else nu_y / (1.0 - nu_y)
        return q_x, q_y
    if nu_y >= 1.0 - r2 * (1.0 - nu_x) or nu_x >= 1.0 - r2 * (1.0 - nu_y):
        raise Infeasible(
            "no additive-noise pair attains both targets: one target is not "
            "below what the other description alone already achieves"
        )

    def mse_pair(q_x: float, q_y: float) -> tuple[float, float]:
        det = (1.0 + q_x) * (1.0 + q_y) - r2
        m_x = q_x * (1.0 + q_y - r2) / det
        m_y = q_y * (1.0 + q_x - r2) / det
        return m_x, m_y

    def q_x_for(q_y: float) -> float:
        # Eliminates q_x from Var(X|U,V) = nu_x at this q_y.
        denom = (1.0 - nu_x) * (1.0 + q_y) - r2
        if denom <= 0.0:
            return math.inf
        return nu_x * (1.0 + q_y - r2) / denom

    def excess_y(q_y: float) -> float:
        q_x = q_x_for(q_y)
        if math.isinf(q_x):
            return q_y / (1.0 + q_y) - nu_y
        return mse_pair(q_x, q_y)[1] - nu_y

    lo = max(0.0, r2 / (1.0 - nu_x) - 1.0)
    if lo > 0.0:
        lo = lo * (1.0 + 1e-12) + 1e-300
    hi = max(1.0, 2.0 * lo)
    for _ in range(200):
        if excess_y(hi) > 0.0:
            break
        hi *= 4.0
    else:
        raise Infeasible("failed to bracket the noise level for the Y target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess_y(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    q_y = 0.5 * (lo + hi)
    q_x = q_x_for(q_y)
    m_x, m_y = mse_pair(q_x, q_y)
    if abs(m_x - nu_x) > 1e-9 or abs(m_y - nu_y) > 1e-9:
        raise Infeasible("noise-level solve did not converge to the targets")
    return q_x, q_y


def _cond_weights(q_x: float, q_y: float, r2: float) -> tuple[float, float, float, float]:
    """Coefficients of (U, V) in the conditional means of X and Y."""
    rho = math.sqrt(r2)
    if math.isinf(q_x) and math.isinf(q_y):
        return 0.0, 0.0, 0.0, 0.0
    if math.isinf(q_x):
        return 0.0, rho / (1.0 + q_y), 0.0, 1.0 / (1.0 + q_y)
    if math.isinf(q_y):
        return 1.0 / (1.0 + q_x), 0.0, rho / (1.0 + q_x), 0.0
    det = (1.0 + q_x) * (1.0 + q_y) - r2
    w_xu = (1.0 + q_y - r2) / det
    w_xv = rho * q_x / det
    w_yu = rho * q_y / det
    w_yv = (1.0 + q_x - r2) / det
    return w_xu, w_xv, w_yu, w_yv


def implied_rates(rho: float, nu_x: float, nu_y: float, q_x: float, q_y: float) -> tuple[float, float]:
    """Per-dimension description rates for the solved test channel.

    Each encoder is charged its conditional information given the other
    description plus half the shared information I(U;V); the pair then sits
    on the dominant face of the achievable region (the sum equals the joint
    information exactly) with a small slack pushing it strictly inside.
    """
    if math.isinf(q_x) and math.isinf(q_y):
        return 0.0, 0.0
    r2 = rho * rho

    def cond_info(q_own: float, q_other: float, nu: float) -> float:
        if math.isinf(q_own):
            return 0.0
        prior = 1.0 if math.isinf(q_other) else 1.0 - r2 / (1.0 + q_other)
        return 0.5 * math.log2(prior / nu)

    i_x_uv = cond_info(q_x, q_y, nu_x)
    i_y_vu = cond_info(q_y, q_x, nu_y)
    if math.isinf(q_x) or math.isinf(q_y):
        shared = 0.0
    else:
        det = (1.0 + q_x) * (1.0 + q_y) - r2
        shared = 0.5 * math.log2((1.0 + q_x) * (1.0 + q_y) / det)
    r_x = i_x_uv + 0.5 * shared + (RATE_SLACK if not math.isinf(q_x) else 0.0)
    r_y = i_y_vu + 0.5 * shared + (RATE_SLACK if not math.isinf(q_y) else 0.0)
    return r_x, r_y


@dataclass(frozen=True)
class ShrunkMatrix:
    b_matrix: np.ndarray
    logdet_residual: float
    rank: int
    basis: np.ndarray  # rank x n orthonormal rows spanning the centers


def _orthonormal_span(vectors: np.ndarray, tol: float) -> np.ndarray:
    """Pivoted Gram-Schmidt basis of the row span, rank-truncated at tol."""
    work = np.array(vectors, dtype=float)
    basis: list[np.ndarray] = []
    for _ in range(len(work)):
        norms = np.linalg.norm(work, axis=1)
        j = int(np.argmax(norms))
        if norms[j] <= tol:
            break
        u = work[j]
        for prev in basis:  # second pass keeps the basis orthonormal to roundoff
            u = u - (prev @ u) * prev
        norm_u = float(np.linalg.norm(u))
        if norm_u <= tol:
            work[j] = 0.0
            continue
        u = u / norm_u
        basis.append(u)
        work = work - np.outer(work @ u, u)
    if not basis:
        return np.zeros((0, vectors.shape[1]))
    return np.array(basis)


def build_shrunk_matrix(a_x: np.ndarray, centers, delta: float) -> ShrunkMatrix:
    """Deflate a_x along the span of the description centers.

    Returns the shrunk matrix, the residual of the determinant identity
    |B| = |A| tau^(n-k') (tau - gamma)^k', and the span rank k'. Centers may
    be rank deficient; the identity uses the actual rank.
    """
    a = np.asarray(a_x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("a_x must be square")
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    if c.shape[1] != a.shape[0]:
        raise DomainError("centers must have the same dimension as a_x")
    if delta <= 0.0:
        raise DomainError("delta must be positive")
    tau = 1.0 - 2.0 * math.sqrt(delta)
    if tau <= 0.0:
        raise DegenerateShrinkage(f"tau = {tau:g} <= 0 at delta = {delta:g}")
    gamma = (1.0 - delta) * tau

    max_norm = float(np.linalg.norm(c, axis=1).max()) if c.size else 0.0
    basis = _orthonormal_span(c, 1e-10 * max_norm) if max_norm > 0.0 else np.zeros((0, a.shape[0]))
    rank = basis.shape[0]

    b = tau * a - gamma * basis.T @ (basis @ a) if rank else tau * a
    n = a.shape[0]
    _, ld_a = np.linalg.slogdet(a)
    _, ld_b = np.linalg.slogdet(b)
    expected = ld_a + (n - rank) * math.log(tau) + rank * math.log(tau - gamma)
    return ShrunkMatrix(b_matrix=b, logdet_residual=abs(ld_b - expected), rank=rank, basis=basis)


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
    whitening_frobenius_error: float
    center_norm_exceed_frac_x: float
    center_norm_exceed_frac_y: float


class _Whitening:
    def __init__(self, sigma: np.ndarray):
        eigvals, eigvecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
        self.eigvals = eigvals
        self.eigvecs = eigvecs
        self.white = (eigvecs / np.sqrt(eigvals)).T  # Lambda^{-1/2} U^T
        self.unwhite = eigvecs * np.sqrt(eigvals)  # U Lambda^{1/2}
        self.log_det_sigma = float(np.sum(np.log(eigvals)))


def _channel_solution(config: CodecConfig):
    q_x, q_y = solve_noise_levels(config.rho, config.nu_x, config.nu_y)
    r_x, r_y = implied_rates(config.rho, config.nu_x, config.nu_y, q_x, q_y)
    verdict = region_verdict(
        RegionQuery(rho=config.rho, r_x=r_x, r_y=r_y, nu_x=config.nu_x, nu_y=config.nu_y)
    )
    return q_x, q_y, r_x, r_y, verdict


def _draw_trial(config: CodecConfig, trial: int, q_x: float, q_y: float, wh: _Whitening):
    k, n, rho = config.k, config.n, config.rho
    src = stream(config.seed, trial, STREAM_SOURCE)
    g1 = src.standard_normal((k, n))
    g2 = src.standard_normal((k, n))
    xw = g1
    yw = rho * g1 + math.sqrt(1.0 - rho * rho) * g2
    w_xu, w_xv, w_yu, w_yv = _cond_weights(q_x, q_y, rho * rho)
    if math.isinf(q_x):
        uw = None
    else:
        uw = xw + math.sqrt(q_x) * stream(config.seed, trial, STREAM_NOISE_X).standard_normal((k, n))
    if math.isinf(q_y):
        vw = None
    else:
        vw = yw + math.sqrt(q_y) * stream(config.seed, trial, STREAM_NOISE_Y).standard_normal((k, n))
    xhat_w = np.zeros((k, n))
    yhat_w = np.zeros((k, n))
    if uw is not None:
        xhat_w += w_xu * uw
        yhat_w += w_yu * uw
    if vw is not None:
        xhat_w += w_xv * vw
        yhat_w += w_yv * vw
    x = xw @ wh.unwhite.T
    y = yw @ wh.unwhite.T
    x_hat = xhat_w @ wh.unwhite.T
    y_hat = yhat_w @ wh.unwhite.T
    return xw, yw, x, y, x_hat, y_hat


def simulate_descriptions(config: CodecConfig, trial: int = 0) -> DescriptionSet:
    """One draw of the idealized description channel.

    The implied rates together with the distortion targets are checked
    against the closed-form region and the verdict is attached to the
    result (the construction should always land inside).
    """
    wh = _Whitening(config.sigma)
    q_x, q_y, r_x, r_y, verdict = _channel_solution(config)
    _, _, _, _, x_hat, y_hat = _draw_trial(config, trial, q_x, q_y, wh)
    return DescriptionSet(x_hat=x_hat, y_hat=y_hat, r_x=r_x, r_y=r_y, q_x=q_x, q_y=q_y, region=verdict)


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
    wh = _Whitening(config.sigma)
    q_x, q_y, r_x, r_y, verdict = _channel_solution(config)
    n, k = config.n, config.k
    tau = config.tau
    log_cn = log_unit_ball_volume(n)
    scale_x = 1.0 / math.sqrt(n * config.nu_x)
    scale_y = 1.0 / math.sqrt(n * config.nu_y)
    a_x = scale_x * wh.white
    a_y = scale_y * wh.white

    def norm_vol(ld_b: float, nu: float) -> float:
        return math.exp(
            log_cn / n - ld_b / n - 0.5 * (LOG_2PIE + math.log(nu) + wh.log_det_sigma / n)
        )

    reports: list[TrialReport] = []
    cov_sum_x = np.zeros(k)
    cov_sum_y = np.zeros(k)
    white_cov_sum = np.zeros((n, n))
    exceed_x = 0
    exceed_y = 0
    norm_bound = 1.0 / math.sqrt(config.delta)

    for t in range(config.trials):
        xw, yw, x, y, x_hat, y_hat = _draw_trial(config, t, q_x, q_y, wh)
        white_cov_sum += xw.T @ xw

        b_x = x_hat @ a_x.T
        b_y = y_hat @ a_y.T
        exceed_x += int(np.count_nonzero(np.linalg.norm(b_x, axis=1) >= norm_bound))
        exceed_y += int(np.count_nonzero(np.linalg.norm(b_y, axis=1) >= norm_bound))

        shrunk_x = build_shrunk_matrix(a_x, b_x, config.delta)
        shrunk_y = build_shrunk_matrix(a_y, b_y, config.delta)
        covered_x = np.linalg.norm(x @ shrunk_x.b_matrix.T, axis=1) <= 1.0
        covered_y = np.linalg.norm(y @ shrunk_y.b_matrix.T, axis=1) <= 1.0
        cov_sum_x += covered_x
        cov_sum_y += covered_y

        _, ld_bx = np.linalg.slogdet(shrunk_x.b_matrix)
        _, ld_by = np.linalg.slogdet(shrunk_y.b_matrix)
        nv_x = norm_vol(ld_bx, config.nu_x)
        nv_y = norm_vol(ld_by, config.nu_y)
        corr_x = nv_x * tau * config.delta ** (shrunk_x.rank / n)
        corr_y = nv_y * tau * config.delta ** (shrunk_y.rank / n)

        reports.append(
            TrialReport(
                trial=t,
                covered_x=tuple(bool(b) for b in covered_x),
                covered_y=tuple(bool(b) for b in covered_y),
                norm_volume_x=nv_x,
                norm_volume_y=nv_y,
                norm_volume_x_corrected=corr_x,
                norm_volume_y_corrected=corr_y,
                implied_rates=(r_x, r_y),
                logdet_residual_x=shrunk_x.logdet_residual,
                logdet_residual_y=shrunk_y.logdet_residual,
                rank_x=shrunk_x.rank,
                rank_y=shrunk_y.rank,
            )
        )

    trials = config.trials
    per_point_cov_x = cov_sum_x / trials
    per_point_cov_y = cov_sum_y / trials
    white_err = float(np.linalg.norm(white_cov_sum / (trials * k) - np.eye(n))) / n
    residual_max = max(max(r.logdet_residual_x, r.logdet_residual_y) for r in reports)

    return SimulationReport(
        config=config,
        trials=tuple(reports),
        coverage_x=float(np.mean(per_point_cov_x)),
        coverage_y=float(np.mean(per_point_cov_y)),
        per_point_failure_max_x=float(1.0 - per_point_cov_x.min()),
        per_point_failure_max_y=float(1.0 - per_point_cov_y.min()),
        mean_norm_vol_x=float(np.mean([r.norm_volume_x for r in reports])),
        mean_norm_vol_y=float(np.mean([r.norm_volume_y for r in reports])),
        mean_norm_vol_x_corrected=float(np.mean([r.norm_volume_x_corrected for r in reports])),
        mean_norm_vol_y_corrected=float(np.mean([r.norm_volume_y_corrected for r in reports])),
        r_x=r_x,
        r_y=r_y,
        q_x=q_x,
        q_y=q_y,
        region=verdict,
        region_inside=verdict.inside,
        residual_max=residual_max,
        whitening_frobenius_error=white_err,
        center_norm_exceed_frac_x=exceed_x / (trials * k),
        center_norm_exceed_frac_y=exceed_y / (trials * k),
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
                "log_det": log_det(cfg.sigma, "sigma"),
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
