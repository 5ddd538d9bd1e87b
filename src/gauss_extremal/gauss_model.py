"""Jointly Gaussian source pairs, linear test channels, and exact mutual
informations.

Every source pair is Y = rho X + Z with X ~ N(0, sigma_x) and
Z ~ N(0, sigma_z) independent. The scalar model is the unit-variance pair
with correlation rho: sigma_x = [[1]], sigma_z = [[1 - rho^2]], so
sigma_y = [[1]]. A vector model has rho = 1, Y = X + Z.

Test channels are linear with independent Gaussian noise: U = C X + W on
the X side, V = C Y + W on the Y side. A channel never reads the opposite
source, so U - X - Y - V always holds by construction. The constant
(zero-information) channel has neither gain nor noise covariance, as
degenerate_on builds it, rather than a singular gain/noise pair.

All informations are in bits and come from one kernel,
information_batch. It takes a stack of T joint covariances of
(X, Y, U, V), gathers the index subsets it needs of each size into one
stack, factorizes that with one batched Cholesky (3 calls when both
channels have the source's dimension; large stacks a few samples per
call), and combines the block log-determinants

    I(A;B)   = [ld(A) + ld(B) - ld(AB)] / (2 ln 2),
    I(A;B|C) = [ld(AC) + ld(BC) - ld(C) - ld(ABC)] / (2 ln 2).

Inside the kernel a degenerate channel is an independent unit-noise block
with zero gain: its log-determinant is 0 and its informations vanish, so
a batch mixing degenerate and active channels keeps one shape.
mutual_information is the single-triple (T = 1) call. Means are fixed to
zero throughout: mutual information is translation invariant.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPositiveDefinite

LN2 = math.log(2.0)

# A matrix is accepted as positive definite iff all Cholesky pivots exceed
# PIVOT_TOL * trace / n. No jitter is ever added; borderline inputs are
# rejected loudly instead of silently perturbed.
PIVOT_TOL = 1e-10
SYMMETRY_TOL = 1e-12  # products such as A A^T round mirrored entries apart: <= 5.4e-16 relative

# information_batch factorizes at most 2^14 matrix entries (128 KB) per
# Cholesky call: whole samples at a time, at least one. A bigger gathered
# stack is a fresh allocation whose pages fault on every call. One call
# per subset size over a whole stack made 163 page faults per call at
# n = 8, T = 30 and ran 7-18% slower than one call per subset there, and
# 14-39% slower at (n, T) = (8, 256), (16, 64), (32, 16). With this cap it
# makes no page fault at n = 8, T = 30 and runs at 0.80-0.93x the time of
# one call per subset on all four (2-vCPU Xeon, numpy 2.4, one OpenBLAS
# thread).
_GROUP_ENTRIES = 1 << 14
_SYMMETRY_ENTRIES = 1 << 16  # entries of a - a^T formed at once by the symmetry check


def _as_square(mat, name: str = "matrix", stack: bool = False) -> np.ndarray:
    a = np.asarray(mat, dtype=float)
    ndim = 3 if stack and a.ndim == 3 else 2
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        kind = "a square matrix or a stack of them" if stack else "a square matrix"
        raise DomainError(f"{name}: expected {kind}, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise DomainError(f"{name}: expected at least one row and column, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name}: entries must be finite")
    return a


def _reject(bad, name: str, what: str) -> None:
    """Raise NotPositiveDefinite if any entry of bad (one flag per matrix,
    a scalar for a single matrix) is set, naming the first failing sample."""
    if np.any(bad):
        where = f" (sample {int(np.argmax(bad))})" if np.size(bad) > 1 else ""
        raise NotPositiveDefinite(f"{name}{where}: {what}")


def _check_symmetric(a: np.ndarray, name: str) -> None:
    # Max-norms without absolute-value copies: a - a^T is exactly
    # antisymmetric, so its largest entry is its largest magnitude. A matrix
    # of more than _SYMMETRY_ENTRIES entries forms it in row blocks of that
    # many, not whole (8 MB at n = 1024); a stack forms it in one pass.
    axes = (-2, -1)
    scale = np.maximum(1.0, np.maximum(a.max(axis=axes), -a.min(axis=axes)))
    at = np.swapaxes(a, -2, -1)
    if a.ndim == 2 and a.size > _SYMMETRY_ENTRIES:
        rows = max(1, _SYMMETRY_ENTRIES // a.shape[-1])
        asym = max((a[lo:lo + rows] - at[lo:lo + rows]).max() for lo in range(0, len(a), rows))
    else:
        asym = (a - at).max(axis=axes)
    _reject(asym > SYMMETRY_TOL * scale, name, f"not symmetric within {SYMMETRY_TOL:g} relative")


def _factor(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of a finite symmetric matrix or stack of
    them (any number of leading axes), with the pivot acceptance test
    applied to every matrix; a trace that overflows or is not positive is
    refused first."""
    with np.errstate(over="ignore"):  # an overflowing trace is refused below, without a warning
        floor = PIVOT_TOL * np.trace(a, axis1=-2, axis2=-1) / a.shape[-1]
    if not np.all(np.isfinite(floor)):
        raise DomainError(f"{name}: its trace overflows")
    _reject(floor <= 0.0, name, "nonpositive trace")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        where = _first_failure(a) if a.ndim == 3 and len(a) > 1 else ""
        raise NotPositiveDefinite(f"{name}{where}: Cholesky factorization failed") from None
    low = np.diagonal(lower, axis1=-2, axis2=-1).min(axis=-1) ** 2  # min(d)^2 = min(d^2), as d > 0
    bad = low <= floor
    if np.any(bad):
        i = np.argmax(bad)
        _reject(bad, name, f"pivot {low.flat[i]:.3e} below tolerance {floor.flat[i]:.3e}")
    return lower


def _log_det_of(lower: np.ndarray):
    """2 sum log diag L: the natural-log determinants of the matrices
    whose lower Cholesky factors are the last two axes of lower."""
    return 2.0 * np.log(np.diagonal(lower, axis1=-2, axis2=-1)).sum(axis=-1)


def _first_failure(stack: np.ndarray) -> str:
    """' (sample t)' for the first matrix of a stack that Cholesky rejects."""
    for t, m in enumerate(stack):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return f" (sample {t})"
    return ""


def cholesky_pd(mat, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor, with the package-wide pivot acceptance test.

    Also takes a (T, n, n) stack and then checks and factorizes every
    matrix of it in one batched call.
    """
    a = _as_square(mat, name, stack=True)
    _check_symmetric(a, name)
    return _factor(a, name)


def log_det(mat, name: str = "matrix") -> float:
    """Natural-log determinant of a positive-definite matrix.

    Twice the sum of the logs of the diagonal of cholesky_pd's factor:
    the value information_batch gives the same matrix as a block. Raises
    NotPositiveDefinite when any pivot falls at or below
    PIVOT_TOL * trace / n, and DomainError when the trace overflows.
    """
    return float(_log_det_of(cholesky_pd(_as_square(mat, name), name)))


def _pair_spectrum(sigma_x, sigma_z) -> tuple[np.ndarray, np.ndarray]:
    """(d, W) of a pair or of stacks: d the ascending eigenvalues of sigma_x^-1 sigma_z and the basis
    W = Q^T L^-1, L = cholesky_pd(sigma_x) and Q the eigenvectors of L^-1 sigma_z L^-T, in which
    W sigma_x W^T = I and W sigma_z W^T = diag(d). sigma_z passes cholesky_pd after sigma_x."""
    white = np.linalg.inv(cholesky_pd(sigma_x, "sigma_x"))
    cholesky_pd(sigma_z, "sigma_z")
    d, q = np.linalg.eigh(white @ sigma_z @ np.swapaxes(white, -2, -1))
    return d, np.swapaxes(q, -2, -1) @ white


def schur_conditional_cov(joint, target, given) -> np.ndarray:
    """Conditional covariance S_T - S_TG S_G^{-1} S_GT of Gaussian blocks.

    target and given are index sequences into the joint covariance. The
    result is symmetrized. Raises NotPositiveDefinite when the given block
    cannot be factorized.
    """
    a = _as_square(joint, "joint")
    t = np.asarray(target, dtype=int)
    g = np.asarray(given, dtype=int)
    s_g = a[np.ix_(g, g)]
    lower = cholesky_pd(s_g, "given block")
    s_gt = a[np.ix_(g, t)]
    w = np.linalg.solve(lower, s_gt)
    out = a[np.ix_(t, t)] - w.T @ w
    return 0.5 * (out + out.T)


def matrix_from_json(obj) -> np.ndarray:
    """Check a decoded JSON object {"n": int, "data": row-major n^2 numbers}
    strictly and return it as an n x n matrix."""
    if not isinstance(obj, dict) or set(obj) != {"n", "data"}:
        raise DomainError('matrix JSON must be an object with exactly "n" and "data"')
    n = obj["n"]
    if type(n) is not int or n < 1:  # a JSON true is a Python bool, an int subclass
        raise DomainError('"n" must be a positive integer')
    data = obj["data"]
    if not isinstance(data, list) or len(data) != n * n:
        raise DomainError(f'"data" must hold exactly {n * n} numbers')
    # One pass over the entry types (about 30 ms per million entries):
    # numpy would read strings such as "2.0" and the booleans as numbers.
    if not set(map(type, data)) <= {int, float}:
        raise DomainError('"data" entries must be numbers')
    try:
        a = np.asarray(data, dtype=float).reshape(n, n)
    except OverflowError:  # an integer beyond the float range
        raise DomainError('"data" entries must be finite') from None
    if not np.all(np.isfinite(a)):
        raise DomainError('"data" entries must be finite')
    return a


@dataclass(frozen=True)
class GaussianPairModel:
    """Joint law of the source pair (X, Y): Y = rho X + Z, with
    X ~ N(0, sigma_x) and Z ~ N(0, sigma_z) independent. scalar(rho) is
    the unit-variance pair with correlation rho; vector(sigma_x, sigma_z)
    has rho = 1. The arrays are read-only."""

    n: int
    sigma_x: np.ndarray
    sigma_z: np.ndarray
    rho: float

    @classmethod
    def scalar(cls, rho: float) -> "GaussianPairModel":
        rho = float(rho)
        if not -1.0 < rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {rho}")
        sx, sz = np.ones((1, 1)), np.full((1, 1), 1.0 - rho * rho)
        sx.setflags(write=False)
        sz.setflags(write=False)
        return cls(n=1, sigma_x=sx, sigma_z=sz, rho=rho)

    @classmethod
    def vector(cls, sigma_x, sigma_z) -> "GaussianPairModel":
        sx = _as_square(sigma_x, "sigma_x").copy()
        sz = _as_square(sigma_z, "sigma_z").copy()
        if sx.shape != sz.shape:
            raise DomainError("sigma_x and sigma_z must have the same shape")
        cholesky_pd(sx, "sigma_x")
        cholesky_pd(sz, "sigma_z")
        sx.setflags(write=False)
        sz.setflags(write=False)
        return cls(n=sx.shape[0], sigma_x=sx, sigma_z=sz, rho=1.0)

    @property
    def sigma_y(self) -> np.ndarray:
        """rho^2 sigma_x + sigma_z: [[1]] for the scalar model, as rho^2 + (1 - rho^2) rounds to 1."""
        return self.rho * self.rho * self.sigma_x + self.sigma_z

    def joint_xy_cov(self) -> np.ndarray:
        """Covariance of the stacked (X, Y) vector."""
        return _source_covariance(self.sigma_x[None], self.sigma_z[None], self.rho)[0]


def _source_covariance(sigma_x: np.ndarray, sigma_z: np.ndarray, rho) -> np.ndarray:
    """(T, 2n, 2n) covariances [[S_x, rho S_x], [rho S_x, rho^2 S_x + S_z]] of (X, Y)
    from (T, n, n) stacks S_x, S_z and (T,) coefficients rho, or one rho for all."""
    r = np.reshape(rho, (-1, 1, 1))
    t, n = sigma_x.shape[:2]
    out = np.empty((t, 2 * n, 2 * n))  # filled block by block: np.block costs 2-3x as much on small stacks
    out[:, :n, :n] = sigma_x
    out[:, :n, n:] = out[:, n:, :n] = r * sigma_x
    out[:, n:, n:] = r * r * sigma_x + sigma_z
    return out


@dataclass(frozen=True)
class GaussianAuxChannel:
    """Linear-Gaussian description channel U = C X + W (or V = C Y + W)."""

    side: str  # "x" | "y"
    gain: np.ndarray | None = None
    noise_cov: np.ndarray | None = None  # both None: the constant channel

    @classmethod
    def degenerate_on(cls, side: str) -> "GaussianAuxChannel":
        cls._check_side(side)
        return cls(side=side)

    @classmethod
    def linear(cls, gain, noise_cov, side: str) -> "GaussianAuxChannel":
        cls._check_side(side)
        g = np.asarray(gain, dtype=float)
        if g.ndim != 2:
            raise DomainError("gain must be a 2-d matrix")
        nc = _as_square(noise_cov, "noise_cov").copy()
        if nc.shape[0] != g.shape[0]:
            raise DomainError("noise_cov dimension must match the gain's row count")
        _check_symmetric(nc, "noise_cov")
        g = g.copy()
        g.setflags(write=False)
        nc.setflags(write=False)
        return cls(side=side, gain=g, noise_cov=nc)

    @classmethod
    def scalar_corr(cls, corr: float, side: str) -> "GaussianAuxChannel":
        """Unit-variance scalar channel with the given input correlation."""
        corr = float(corr)
        if not -1.0 < corr < 1.0:
            raise DomainError("channel correlation must lie in (-1, 1)")
        return cls.linear([[corr]], [[1.0 - corr * corr]], side)

    @classmethod
    def for_conditional_cov(cls, model: GaussianPairModel, target_cov, side: str) -> "GaussianAuxChannel":
        """Identity-gain channel whose Cov(source | U) is target_cov, the source the model's
        sigma_x or sigma_y: its noise is conditional_cov_noise's."""
        cls._check_side(side)
        source = model.sigma_x if side == "x" else model.sigma_y
        return cls.linear(np.eye(model.n), conditional_cov_noise(source, target_cov), side)

    @staticmethod
    def _check_side(side: str) -> None:
        if side not in ("x", "y"):
            raise DomainError(f'side must be "x" or "y", got {side!r}')


def conditional_cov_noise(source_cov, target_cov) -> np.ndarray:
    """Noise covariance N of the identity-gain channel U = X + W, W ~ N(0, N), whose
    Cov(X | U) = (S^{-1} + N^{-1})^{-1} equals target_cov T: N = (T^{-1} - S^{-1})^{-1},
    symmetrized. T must lie strictly below the source covariance S in the definite
    order, both passing cholesky_pd's pivot test."""
    s = _as_square(source_cov, "source_cov")
    t = _as_square(target_cov, "target_cov")
    if s.shape != t.shape:
        raise DomainError(f"source_cov and target_cov must have the same shape, got {s.shape} and {t.shape}")
    cholesky_pd(s, "source_cov")
    cholesky_pd(t, "target_cov")
    gap = np.linalg.inv(t) - np.linalg.inv(s)
    gap = 0.5 * (gap + gap.T)
    cholesky_pd(gap, "target_cov (must be strictly below the source covariance)")
    noise = np.linalg.inv(gap)
    return 0.5 * (noise + noise.T)


@dataclass(frozen=True)
class InfoVector:
    """The mutual informations of one (model, U, V) triple, in bits.

    information_batch returns the same record with a (T,) array in every
    field, one entry per triple of its stack.
    """

    i_xu: float
    i_yu: float
    i_xv: float
    i_yv: float
    i_xv_given_u: float
    i_yv_given_u: float
    i_uv: float
    i_xy: float
    i_x_uv: float
    i_y_uv: float

    def at(self, t: int) -> "InfoVector":
        """The float record of triple t of an information_batch stack."""
        return InfoVector(**{name: float(value[t]) for name, value in vars(self).items()})


# Index subsets of (X, Y, U, V), in that order, whose log-determinants
# the informations combine. The full joint is not among them: on the
# chain U - X - Y - V the sum rate I(XY;UV) is i_xu + i_yv_given_u.
_SUBSETS = ("x", "y", "u", "v", "xy", "xu", "yu", "xv", "yv", "uv", "xuv", "yuv")


def information_batch(source_cov, gain_u, noise_u, gain_v, noise_v) -> tuple[InfoVector, dict]:
    """Informations of a stack of T (model, U, V) triples, in bits.

    source_cov is the (T, 2n, 2n) covariance of (X, Y); U = C_u X + W_u
    and V = C_v Y + W_v with gains of shape (T, m, n) and noise
    covariances of shape (T, m, m). A zero gain with unit noise is a
    degenerate channel. Returns the InfoVector of (T,) arrays and the
    natural-log determinants of the index subsets of the joint covariance,
    keyed by subset name ("x", "xu", "yuv", ...).

    The subsets of one size are factorized together: one batched Cholesky
    per size, or per size and few samples when a stack holds more than
    _GROUP_ENTRIES entries. Each log-determinant equals the one a
    factorization of that subset alone gives.

    The joint covariance must be finite and symmetric within SYMMETRY_TOL
    relative, and every subset must pass the pivot test of cholesky_pd,
    per triple; otherwise NotPositiveDefinite (DomainError for bad shapes
    or non-finite entries) names the first failing subset, in the order
    x, y, u, v, xy, xu, yu, xv, yv, uv, xuv, yuv, and its first failing
    triple.
    """
    s = np.asarray(source_cov, dtype=float)
    gains = [np.asarray(g, dtype=float) for g in (gain_u, gain_v)]
    noises = [np.asarray(w, dtype=float) for w in (noise_u, noise_v)]
    if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1] % 2 or not s.shape[1]:
        raise DomainError(f"source_cov: expected shape (T, 2n, 2n) with n >= 1, got {s.shape}")
    t, n = s.shape[0], s.shape[1] // 2
    for name, g, w in zip("UV", gains, noises):
        if g.ndim != 3 or g.shape[0] != t or g.shape[2] != n:
            raise DomainError(f"{name}-channel gain column count must equal the model dimension")
        if not g.shape[1]:
            raise DomainError(f"{name}-channel gain must have at least one row, got shape {g.shape}")
        if w.shape != (t, g.shape[1], g.shape[1]):
            raise DomainError(f"{name}-channel noise covariance must match the gain's row count")
    m_u, m_v = gains[0].shape[1], gains[1].shape[1]
    joint = _as_square(_joint_covariance(s, gains, noises), "joint covariance", stack=True)
    _check_symmetric(joint, "joint covariance")
    ld = _subset_log_dets(joint, (n, n, m_u, m_v))

    def mi(a: str, b: str) -> np.ndarray:
        return (ld[a] + ld[b] - ld[a + b]) / (2.0 * LN2)

    def cmi(a: str, b: str, c: str) -> np.ndarray:
        # Grouped as two differences, each of which vanishes when b is a
        # degenerate (unit, uncorrelated) block: ld(ac) = ld(acb), ld(cb) = ld(c).
        return ((ld[a + c] - ld[a + c + b]) + (ld[c + b] - ld[c])) / (2.0 * LN2)

    info = InfoVector(
        i_xu=mi("x", "u"),
        i_yu=mi("y", "u"),
        i_xv=mi("x", "v"),
        i_yv=mi("y", "v"),
        i_xv_given_u=cmi("x", "v", "u"),
        i_yv_given_u=cmi("y", "v", "u"),
        i_uv=mi("u", "v"),
        i_xy=mi("x", "y"),
        i_x_uv=mi("x", "uv"),
        i_y_uv=mi("y", "uv"),
    )
    return info, ld


def _subset_log_dets(joint: np.ndarray, sizes: tuple) -> dict:
    """Natural-log determinants of the _SUBSETS blocks of a (T, d, d) stack
    of joint covariances whose X, Y, U, V blocks have the given sizes.

    The subsets of one size are factorized together. If any matrix fails
    the pivot test, the subsets are factorized again one at a time, in
    _SUBSETS order, so the error names the first failing subset and then
    its first failing sample.
    """
    groups = _subset_groups(sizes)
    ld = {}
    for keys, idx, cells in groups:
        logs = _group_log_dets(joint, idx, cells)
        if logs is None:
            index = {key: row for group in groups for key, row in zip(group[0], group[1])}
            return {key: _subset_log_det(joint, index[key], key) for key in _SUBSETS}
        ld.update(zip(keys, logs.T))
    return ld


@functools.lru_cache(maxsize=64)
def _subset_groups(sizes: tuple) -> tuple:
    """The _SUBSETS of a joint whose X, Y, U, V blocks have these sizes,
    grouped by subset size: per group its keys, the (g, s) index rows of
    its subsets and the flat positions (row * d + column) of all their
    entries. The arrays are read-only: the result is shared by every call
    with these sizes."""
    stops = np.cumsum([0, *sizes])
    d = int(stops[-1])
    blocks = {name: np.arange(stops[i], stops[i + 1]) for i, name in enumerate(_SUBSETS[:4])}
    index = {key: np.concatenate([blocks[c] for c in key]) for key in _SUBSETS}
    by_size: dict[int, list[str]] = {}
    for key in _SUBSETS:
        by_size.setdefault(index[key].size, []).append(key)
    groups = []
    for keys in by_size.values():
        idx = np.stack([index[key] for key in keys])
        cells = (idx[:, :, None] * d + idx[:, None, :]).reshape(-1)
        idx.setflags(write=False)
        cells.setflags(write=False)
        groups.append((tuple(keys), idx, cells))
    return tuple(groups)


def _group_log_dets(joint: np.ndarray, idx: np.ndarray, cells: np.ndarray):
    """(T, g) natural-log determinants of the g index subsets in the rows
    of idx, all of one size s, whose entries sit at the flat positions
    cells of each joint; None if _factor refuses any matrix.

    The subsets of a few samples at a time are gathered into one
    (samples, g, s, s) stack and factorized by one batched Cholesky.
    numpy factorizes every matrix of a stack on its own, so each value is
    the one a factorization of that subset alone gives.
    """
    t, d = joint.shape[:2]
    g, s = idx.shape
    step = max(1, _GROUP_ENTRIES // cells.size)
    out = np.empty((t, g))
    for lo in range(0, t, step):
        sub = joint[lo : lo + step].reshape(-1, d * d).take(cells, axis=1).reshape(-1, g, s, s)
        try:
            out[lo : lo + step] = _log_det_of(_factor(sub, "subset group"))
        except (DomainError, NotPositiveDefinite):
            return None
    return out


def _subset_log_det(joint: np.ndarray, idx: np.ndarray, key: str) -> np.ndarray:
    """(T,) natural-log determinants of one index subset, factorized on its
    own; raises the error of _factor, naming the subset."""
    return _log_det_of(_factor(joint[:, idx[:, None], idx], f"joint covariance block {key.upper()}"))


def _joint_covariance(source: np.ndarray, gains: list, noises: list) -> np.ndarray:
    """(X, Y, U, V) = lift @ (X, Y) + (0, 0, W_u, W_v), stacked. Non-finite
    inputs are left to the caller's finiteness check, not numpy warnings."""
    t, two_n = source.shape[:2]
    n, m_u = two_n // 2, gains[0].shape[1]
    lift = np.zeros((t, two_n + m_u + gains[1].shape[1], two_n))
    lift[:, :two_n] = np.eye(two_n)
    lift[:, two_n : two_n + m_u, :n] = gains[0]
    lift[:, two_n + m_u :, n:] = gains[1]
    with np.errstate(invalid="ignore", over="ignore"):
        joint = lift @ source @ lift.transpose(0, 2, 1)
        joint[:, two_n : two_n + m_u, two_n : two_n + m_u] += noises[0]
        joint[:, two_n + m_u :, two_n + m_u :] += noises[1]
    return joint


def _channel_arrays(ch: GaussianAuxChannel, n: int) -> tuple[np.ndarray, np.ndarray]:
    if ch.gain is None and ch.noise_cov is None:
        return np.zeros((1, n)), np.ones((1, 1))
    return ch.gain, ch.noise_cov


def _triple_batch(
    model: GaussianPairModel, u: GaussianAuxChannel, v: GaussianAuxChannel
) -> tuple[InfoVector, dict]:
    """information_batch of the one triple (model, U, V): (1,) arrays and log-determinants."""
    if u.side != "x":
        raise DomainError('the U channel must have side "x"')
    if v.side != "y":
        raise DomainError('the V channel must have side "y"')
    (gu, wu), (gv, wv) = _channel_arrays(u, model.n), _channel_arrays(v, model.n)
    return information_batch(model.joint_xy_cov()[None], gu[None], wu[None], gv[None], wv[None])


def mutual_information(model: GaussianPairModel, u: GaussianAuxChannel, v: GaussianAuxChannel) -> InfoVector:
    """All pairwise and chain informations of (X, Y, U, V), in bits.

    Degenerate channels contribute zeros. A singular joint covariance
    (for example a noiseless channel that copies its source) raises
    NotPositiveDefinite: it signals a degenerate channel that was not
    built by degenerate_on.
    """
    return _triple_batch(model, u, v)[0].at(0)
