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

Every trial runs in whitened coordinates. What it measures does not
depend on the square root of sigma: for any W with W sigma W^T = I, the
map s W sends a sample x = W^(-1) x_w to s x_w, so the centers, their
span and rank, and each ||B x|| are those that s I gives on the whitened
samples, and the volume of {||B x|| <= 1} is |sigma|^(1/2) times the
whitened one, which the normalization by |sigma|^(1/2n) divides out. So
the samples are drawn white and never mapped back, no square root of
sigma is formed, and sigma enters the report only as its trace and
log|sigma|, both kept by CodecConfig's validation (log|sigma| from its
Cholesky pivots): sigma is factorized once per run and not kept.

The covering matrix deflates the scaled map A = s I (s = 1/sqrt(n nu)),
one number per source, along the span of the k description centers: with
tau = 1 - 2 sqrt(delta), gamma = (1 - delta) tau and an orthonormal basis
u_1..u_k' of the center span (the leading right singular vectors of the
k x n center matrix),

    B = (tau I - gamma sum_j u_j u_j^T) s I,

whose determinant satisfies |B| = s^n tau^(n-k') (tau - gamma)^k' exactly.
B is formed as its transpose B^T = tau s I - (s V)^T (gamma V), V the
basis rows, in one row-major stack, so the column-major view B is what
slogdet copies for LAPACK's LU without a strided read (8 MB per matrix
at n = 1024). Each trial factorizes B once per source (one LU, through
slogdet); that log|B| gives the normalized volume and is checked against
the identity: the check compares an independent LU of B with a value the
identity did not produce. Every trial reports its residual.

Trials are independent; each draws from counter-based streams keyed by
(seed, trial, stream), so the aggregate is bit-reproducible regardless of
execution order. A run evaluates its trials in memory-bounded stacks, with
one build_shrunk_matrix call, the one deflation, per stack and source: one
stacked SVD and one stacked slogdet (one LU per trial). numpy's stacked
matmul, svd and slogdet work matrix by matrix, and sums run in trial
order, so the stack size changes no result. The report is those per-trial
columns, their summary, the implied rates, region membership and log|sigma|.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from .errors import DegenerateShrinkage, DomainError, Infeasible
from .gauss_model import log_det
from .rate_region import RegionQuery, region_verdict
from .rng import STREAM_NOISE_X, STREAM_NOISE_Y, STREAM_SOURCE, Streams, check_seed
# stream stays importable from this module: the benchmark's tracer tests name it here.
from .rng import stream  # noqa: F401

# Implied rates sit on the dominant face of the achievable region; this
# slack nudges them strictly inside so boundary round-off cannot flip the
# membership check.
RATE_SLACK = 1e-9

# Largest determinant-identity residual that the ellipsoid command accepts.
# It absorbs the LU roundoff of log |det B|: the largest residual measured
# is 1.9e-12 over the 200 trials of the C7 acceptance run (n = 256, k = 4),
# 8.6e-12 on the benchmark's ellipsoid-large shape (n = 1024, k = 8, dense
# sigma, 18 trials over 6 seeds) and 1.8e-12 on its ellipsoid-small shape
# (n = 32, k = 4, 600 trials over 12 seeds).
IDENTITY_TOL = 1e-9

LOG_2PIE = math.log(2.0 * math.pi * math.e)

# Trials per stack are capped so that one stack of n x n matrices holds
# about 2^18 entries (2 MB): 256 trials at n = 32, 4 at n = 256, and one
# for n > 362, where a trial's memory and work are what they are alone.
_STACK_ENTRIES = 1 << 18


def log_unit_ball_volume(n: int) -> float:
    """log c_n = (n/2) log pi - log Gamma(n/2 + 1), in nats."""
    if not (isinstance(n, numbers.Integral) and n >= 1):  # NaN and 2.5 included
        raise DomainError(f"n must be an integer of at least 1, got {n!r}")
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


@dataclass(frozen=True)
class CodecConfig:
    """Parameters of one simulation run; sigma is validated (n x n, then the
    Cholesky pivot test) and kept only as its trace and log|sigma|."""

    n: int
    k: int
    rho: float
    sigma: InitVar[np.ndarray]
    nu_x: float
    nu_y: float
    delta: float = 0.0025
    trials: int = 100
    seed: int = 0
    trace_sigma: float = field(init=False, repr=False, compare=False)
    log_det_sigma: float = field(init=False, repr=False, compare=False)  # natural log

    def __post_init__(self, sigma):
        check_scalar_params(self.n, self.k, self.rho, self.nu_x, self.nu_y, self.delta, self.trials, self.seed)
        # Sigma last: its Cholesky is the one check that costs O(n^3).
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (self.n, self.n):
            raise DomainError("sigma must be n x n")
        # sigma.T is sigma within SYMMETRY_TOL; of a row-major sigma it is the
        # column-major view that LAPACK reads without a strided copy.
        object.__setattr__(self, "log_det_sigma", log_det(sigma.T, "sigma"))
        object.__setattr__(self, "trace_sigma", float(np.trace(sigma)))

    @property
    def tau(self) -> float:
        return _shrinkage(self.delta)[0]


def check_scalar_params(n: int, k: int, rho: float, nu_x: float, nu_y: float,
                        delta: float, trials: int, seed: int) -> None:
    """CodecConfig's O(1) checks, of every field but sigma: a caller can run them before it reads sigma."""
    for name, value in (("n", n), ("k", k), ("trials", trials)):
        if not isinstance(value, numbers.Integral):  # 2.5 would fail later, as a shape or a range bound
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise DomainError("n must be at least 1")
    if not 1 <= k <= n:
        raise DomainError("k must satisfy 1 <= k <= n")
    _check_targets(rho, nu_x, nu_y)
    if not 0.0 < delta < 0.25:
        raise DomainError("delta must lie in (0, 0.25) so the shrinkage factor stays positive")
    _shrinkage(delta)
    if delta >= nu_x or delta >= nu_y:
        raise DomainError("delta must stay below both distortion targets")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    check_seed(seed)


def _check_targets(rho: float, nu_x: float, nu_y: float) -> None:
    """Raise DomainError unless rho lies in (-1, 1) and both targets in (0, 1]; NaN fails."""
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    for name, v in (("nu_x", nu_x), ("nu_y", nu_y)):
        if not 0.0 < v <= 1.0:
            raise DomainError(f"{name} must lie in (0, 1]")


def _shrinkage(delta: float) -> tuple[float, float]:
    """(tau, gamma) = (1 - 2 sqrt(delta), (1 - delta) tau), with tau - gamma > 0."""
    tau = 1.0 - 2.0 * math.sqrt(delta)
    gamma = (1.0 - delta) * tau
    if tau - gamma <= 0.0:  # tau <= 0, or delta so small that 1 - delta rounds to 1
        raise DegenerateShrinkage(f"tau - gamma = {tau - gamma:g} <= 0 at delta = {delta:g}")
    return tau, gamma


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
    _check_targets(rho, nu_x, nu_y)
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
    # The closed form misses by at most 1.9e-11 (targets down to 1e-8, |rho| to 0.999999).
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
    strictly inside. A description that is not sent (q = inf) has rate 0.
    """
    _check_targets(rho, nu_x, nu_y)
    if not (q_x > 0.0 and q_y > 0.0):  # NaN included
        raise DomainError("noise levels must be positive (inf for a description that is not sent)")
    (s_x, _, v_x), (s_y, _, v_y), d = _test_channel(rho, q_x, q_y)
    shared = -0.5 * math.log2(d)  # I(U;V)
    # I(X;U|V) = (1/2) log2(Var(X|V) / nu_x), and likewise for Y.
    r_x = 0.5 * math.log2(v_x / nu_x) + 0.5 * shared + (RATE_SLACK if s_x > 0.0 else 0.0)
    r_y = 0.5 * math.log2(v_y / nu_y) + 0.5 * shared + (RATE_SLACK if s_y > 0.0 else 0.0)
    return r_x, r_y


def build_shrunk_matrix(scale: float, centers: np.ndarray, delta: float):
    """Deflate the map scale * I along the span of each trial's centers.

    centers is a (T, k, n) stack. A trial's span basis is the right
    singular vectors of its centers whose singular values exceed 1e-10
    times its largest center norm; the other rows of vt are zeroed, so the
    bases stay one (T, k, n) stack. Each B is factorized once (slogdet
    does one LU per matrix of the stack) and its log-determinant compared
    with the value of the identity |B| = s^n tau^(n-k') (tau - gamma)^k',
    s = scale and k' the trial's rank: centers may be rank deficient.

    B is formed as its transpose, B^T = tau s I - (s vt)^T (gamma vt): the
    product, negated in place, with tau s added to its diagonal. That
    stack is C-contiguous, so B, the returned transposed view, is
    F-ordered per matrix, the layout that slogdet copies without a strided
    read for LAPACK's LU.

    Returns the (T, ...) stacks of B, log |det B|, the residual, the rank,
    the zero-padded basis and the center norms.
    """
    if not delta > 0.0:  # NaN included: _shrinkage would pass it on as NaN results
        raise DomainError("delta must be positive")
    tau, gamma = _shrinkage(delta)
    _, singular, vt = np.linalg.svd(centers, full_matrices=False)
    norms = np.linalg.norm(centers, axis=2)
    kept = singular > 1e-10 * np.max(norms, axis=1, initial=0.0)[:, None]
    vt[~kept] = 0.0
    rank = np.count_nonzero(kept, axis=1)

    n = centers.shape[2]
    bt = (scale * vt).transpose(0, 2, 1) @ (gamma * vt)
    np.negative(bt, out=bt)
    bt.reshape(len(bt), n * n)[:, :: n + 1] += tau * scale  # the diagonals
    b = bt.transpose(0, 2, 1)
    _, ld_b = np.linalg.slogdet(b)
    expected = n * math.log(scale) + (n - rank) * math.log(tau) + rank * math.log(tau - gamma)
    return b, ld_b, np.abs(ld_b - expected), rank, vt, norms


@dataclass(frozen=True, eq=False)
class TrialReport:
    """Per-trial results as read-only columns, row t for trial t: (T, k) bools for coverage, (T,) otherwise.

    == is identity; compare two reports column by column with np.array_equal.
    """

    covered_x: np.ndarray
    covered_y: np.ndarray
    norm_volume_x: np.ndarray
    norm_volume_y: np.ndarray
    norm_volume_x_corrected: np.ndarray
    norm_volume_y_corrected: np.ndarray
    logdet_residual_x: np.ndarray
    logdet_residual_y: np.ndarray
    rank_x: np.ndarray  # integer
    rank_y: np.ndarray


@dataclass(frozen=True)
class SimulationReport:
    """One run: its per-trial columns (trials), and their summary in the other fields."""

    config: CodecConfig
    trials: TrialReport
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
    region_inside: bool
    residual_max: float
    log_det_sigma: float  # natural log, config.log_det_sigma
    center_norm_exceed_frac_x: float
    center_norm_exceed_frac_y: float


class _Setup:
    """What every trial of a run shares: each source's scale s = 1/sqrt(n nu),
    the map A = s I of whitened coordinates as one number, the solved
    description channel and the run's random streams."""

    def __init__(self, config: CodecConfig):
        self.config = config
        n, rho, nu_x, nu_y = config.n, config.rho, config.nu_x, config.nu_y
        self.scales = [1.0 / math.sqrt(n * nu) for nu in (nu_x, nu_y)]
        self.q_x, self.q_y = solve_noise_levels(rho, nu_x, nu_y)
        self.r_x, self.r_y = implied_rates(rho, nu_x, nu_y, self.q_x, self.q_y)
        self.verdict = region_verdict(
            RegionQuery(rho=rho, r_x=self.r_x, r_y=self.r_y, nu_x=nu_x, nu_y=nu_y)
        )
        self.weights = _cond_weights(self.q_x, self.q_y, rho)
        self.streams = Streams(config.seed)

    def draw(self, trials: range):
        """Some trials: their (x, y) samples and the conditional-mean
        estimates (x_hat, y_hat) in whitened coordinates, each a
        (len(trials), k, n) stack."""
        cfg = self.config
        k, n, rho = cfg.k, cfg.n, cfg.rho
        shape = (len(trials), k, n)
        source = np.empty((len(trials), 2, k, n))  # g1 then g2: a trial's source stream in draw order
        noises = {
            stream_id: np.empty(shape)
            for stream_id, q in ((STREAM_NOISE_X, self.q_x), (STREAM_NOISE_Y, self.q_y))
            if math.isfinite(q)  # an infinite noise level: the description is not sent
        }
        for i, t in enumerate(trials):
            self.streams(t, STREAM_SOURCE).standard_normal(out=source[i])
            for stream_id, noise in noises.items():
                self.streams(t, stream_id).standard_normal(out=noise[i])
        xw = source[:, 0]
        yw = rho * xw + math.sqrt(1.0 - rho * rho) * source[:, 1]
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
        return (xw, yw), (xhat_w, yhat_w)


def run_simulation(config: CodecConfig) -> SimulationReport:
    """Run all trials and aggregate coverage, volume, and identity checks.

    Per trial and source, in whitened coordinates: draw the k pairs, form
    conditional-mean centers b_i = A x_hat_i with A = s I, deflate A along
    the center span, then record which points satisfy ||B X_i|| <= 1, the
    vol^(1/n) of {||B x|| <= 1} normalized by sqrt(2 pi e nu) (that of the
    ellipsoid in original coordinates normalized by
    sqrt(2 pi e nu |sigma|^(1/n)): the |sigma| factors cancel),
    the same volume with the deterministic shrinkage factor
    tau delta^(k'/n) divided out (this ratio tends to 1 as n grows), and
    the determinant-identity residual. Each source's per-trial results are
    kept as columns over all trials (coverage, log|B|, residual, rank and
    center norms past 1/sqrt(delta)); the report's trials are those
    columns, made read-only, and its summary is read from them. Raises on
    any error; partial aggregates are never returned.
    """
    setup = _Setup(config)
    n, k, trials, delta, tau = config.n, config.k, config.trials, config.delta, config.tau
    log_cn = log_unit_ball_volume(n)
    nus = (config.nu_x, config.nu_y)
    norm_bound = 1.0 / math.sqrt(delta)

    stacks = ([], [])  # per source, one (covered, log|B|, residual, rank, exceeds) per trial stack
    chunk = max(1, _STACK_ENTRIES // (n * n))
    for lo in range(0, trials, chunk):
        points, estimates = setup.draw(range(lo, min(trials, lo + chunk)))
        for i, source in enumerate(stacks):  # source 0 is X, source 1 is Y
            scale = setup.scales[i]
            b, logdet_b, residual, rank, _, norms = build_shrunk_matrix(scale, scale * estimates[i], delta)
            covered = np.linalg.norm(points[i] @ b.transpose(0, 2, 1), axis=2) <= 1.0
            del b  # n x n per trial: the next stack's B is not allocated beside it
            source.append((covered, logdet_b, residual, rank, norms >= norm_bound))

    per_trial = {}  # TrialReport field -> its column over the trials
    summary = {}  # the per-source SimulationReport fields
    for s, nu, source in zip("xy", nus, stacks):
        covered, logdet_b, residual, rank, exceeds = (np.concatenate(column) for column in zip(*source))
        vols = [
            math.exp(log_cn / n - ld_b / n - 0.5 * (LOG_2PIE + math.log(nu)))
            for ld_b in logdet_b.tolist()
        ]
        corrected = [vol * tau * delta ** (r / n) for vol, r in zip(vols, rank.tolist())]
        per_point_cov = covered.sum(axis=0) / trials
        per_trial |= {
            f"covered_{s}": covered,
            f"norm_volume_{s}": np.array(vols),
            f"norm_volume_{s}_corrected": np.array(corrected),
            f"logdet_residual_{s}": residual,
            f"rank_{s}": rank,
        }
        summary |= {
            f"coverage_{s}": float(np.mean(per_point_cov)),
            f"per_point_failure_max_{s}": float(1.0 - per_point_cov.min()),
            f"mean_norm_vol_{s}": float(np.mean(vols)),
            f"mean_norm_vol_{s}_corrected": float(np.mean(corrected)),
            f"center_norm_exceed_frac_{s}": np.count_nonzero(exceeds) / (trials * k),
        }
    for column in per_trial.values():
        column.setflags(write=False)

    return SimulationReport(
        config=config,
        trials=TrialReport(**per_trial),
        r_x=setup.r_x, r_y=setup.r_y, q_x=setup.q_x, q_y=setup.q_y,
        region_inside=setup.verdict.inside,
        residual_max=max(float(per_trial[f"logdet_residual_{s}"].max()) for s in "xy"),
        log_det_sigma=config.log_det_sigma,
        **summary,
    )


def report_to_dict(report: SimulationReport) -> dict:
    """JSON-ready summary, read from the fields of the report.

    Every SimulationReport field prints under its own name except trials,
    which is left out, and three nested groups: config (the
    CodecConfig init fields, with sigma summarized as {n, trace =
    trace_sigma, log_det = log_det_sigma}), implied_rates {r_x, r_y} and
    noise_levels {q_x, q_y}.
    A new summary field therefore prints unless it is excluded here. An
    infinite noise level (nu = 1: that description is not sent) is
    reported as None, JSON null, since JSON has no infinity.
    """
    out = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "trials"}
    cfg = out.pop("config")
    out["config"] = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.init}
    out["config"]["sigma"] = {"n": cfg.n, "trace": cfg.trace_sigma, "log_det": out.pop("log_det_sigma")}
    out["implied_rates"] = {name: out.pop(name) for name in ("r_x", "r_y")}
    finite_or_none = lambda q: q if math.isfinite(q) else None
    out["noise_levels"] = {name: finite_or_none(out.pop(name)) for name in ("q_x", "q_y")}
    return out


def trials_csv_rows(report: SimulationReport) -> tuple[list[str], list[tuple]]:
    """The per-trial CSV table: its header, and one row of numbers per
    trial in trial order, the trial's index first; a coverage fraction is
    the trial's count of covered points over k."""
    tr, k = report.trials, report.config.k
    fracs = [np.count_nonzero(covered, axis=1) / k for covered in (tr.covered_x, tr.covered_y)]
    columns = [column.tolist() for column in (*fracs, tr.norm_volume_x, tr.norm_volume_y)]
    header = ["trial", "covered_x_frac", "covered_y_frac", "normvol_x", "normvol_y"]
    return header, list(zip(range(report.config.trials), *columns))
