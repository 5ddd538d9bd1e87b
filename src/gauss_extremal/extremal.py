"""Extremal-inequality gap functionals and the dual value function.

For a Markov chain U - X - Y - V over a Gaussian pair, the central vector
inequality states, with r = (|sigma_x| / |sigma_y|)^(1/n),

    2^(-(2/n)(I(Y;U) + I(X;V|U)))
        >= r * 2^(-(2/n)(I(X;U) + I(Y;V|U))) + 2^(-(2/n) I(X;Y)),

with equality iff the conditional law of X given U is Gaussian with
covariance proportional to sigma_z. Each gap function here returns
LHS - RHS, so nonnegativity of the gap over all Gaussian channels is the
falsifiable form of the inequality. The scalar inequality is its n = 1
case for the unit-variance pair, with r = rho^2 and
2^(-2 I(X;Y)) = 1 - rho^2.

The dual value function is

    F(lam) = inf { I(X;U) - lam I(Y;U) + I(Y;V|U) - lam I(X;V|U) },

the infimum running over the Markov chain. The scalar closed form is
exact; the vector form is a certified lower bound that is tight when
sigma_x and sigma_z are proportional, and tight above the branch threshold
for the one-parameter channel family with conditional covariance
alpha * sigma_z, alpha = 1 / (lam - 1).

Everything here is pure and stateless. The grid oracle evaluates only the
tiles of its grid that a lower bound cannot rule out, best bound first,
and picks the smallest (value, rho_u^2, rho_v^2) triple lexicographically:
ties break toward smaller rho_u^2, then smaller rho_v^2, so the result is
the full scan's and does not depend on the order tiles are visited in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckFailed, DomainError
from .gauss_model import (
    GaussianAuxChannel,
    GaussianPairModel,
    InfoVector,
    log_det,
    mutual_information,
)

_FORM_TOL = 1e-10


@dataclass(frozen=True)
class DualValue:
    """One evaluation of the dual function."""

    lam: float
    value_bits: float
    branch: str  # "active" | "zero"
    exactness: str  # "exact" | "lower_bound"


@dataclass(frozen=True)
class MinimizerPair:
    """A nondegenerate minimizer of the dual functional."""

    rho_u: float
    rho_v: float
    alpha: float | None = None


def dual_functional(info: InfoVector, lam: float) -> float:
    """I(X;U) - lam I(Y;U) + I(Y;V|U) - lam I(X;V|U), in bits."""
    return info.i_xu - lam * info.i_yu + info.i_yv_given_u - lam * info.i_xv_given_u


def vector_gap_forms(info: InfoVector, n: int, ratio):
    """(gap_conditional, gap_unconditional) of the vector inequality.

    Elementwise over info's fields, which may be floats or (T,) arrays
    (with ratio of the same kind). The two forms differ by the common
    factor 2^(-(2/n) I(U;V)); the Markov identity
    I(X;V) - I(X;V|U) = I(U;V) makes them equivalent, and a disagreement
    beyond _FORM_TOL raises CrossCheckFailed.
    """
    gap_cond = (
        2.0 ** (-(2.0 / n) * (info.i_yu + info.i_xv_given_u))
        - ratio * 2.0 ** (-(2.0 / n) * (info.i_xu + info.i_yv_given_u))
        - 2.0 ** (-(2.0 / n) * info.i_xy)
    )
    gap_uncond = (
        2.0 ** (-(2.0 / n) * (info.i_yu + info.i_xv))
        - ratio * 2.0 ** (-(2.0 / n) * (info.i_xu + info.i_yv))
        - 2.0 ** (-(2.0 / n) * (info.i_xy + info.i_uv))
    )
    scale = 2.0 ** (-(2.0 / n) * info.i_uv)
    off = np.abs(gap_uncond - gap_cond * scale)
    if np.any(off > _FORM_TOL):
        i = np.argmax(off) if np.ndim(off) else ()
        raise CrossCheckFailed(
            f"exponent forms diverged by {off[i]:.3e} (tolerance {_FORM_TOL:g})"
            + (f" at sample {i}" if np.ndim(off) else "")
        )
    return gap_cond, gap_uncond


def vector_extremal_forms(
    model: GaussianPairModel, u: GaussianAuxChannel, v: GaussianAuxChannel
) -> tuple[float, float, InfoVector]:
    """Both exponent forms of the vector inequality gap.

    Returns (gap_conditional, gap_unconditional, info); see
    vector_gap_forms for the cross-check between them.
    """
    info = mutual_information(model, u, v)
    gap_cond, gap_uncond = vector_gap_forms(info, model.n, model.det_ratio_x_over_y())
    return gap_cond, gap_uncond, info


def vector_extremal_gap(
    model: GaussianPairModel, u: GaussianAuxChannel, v: GaussianAuxChannel
) -> float:
    """LHS - RHS of the vector inequality (conditional exponent form)."""
    gap_cond, _, _ = vector_extremal_forms(model, u, v)
    return gap_cond


def scalar_extremal_gap(rho: float, u: GaussianAuxChannel, v: GaussianAuxChannel) -> float:
    """LHS - RHS of the unit-variance scalar inequality: the n = 1 vector gap."""
    return vector_extremal_gap(GaussianPairModel.scalar(rho), u, v)


def oohama_gap(model: GaussianPairModel, u: GaussianAuxChannel) -> float:
    """Gap of the single-description bound: the two-description gap with
    V degenerate, whose informations all vanish. Zero iff the conditional
    covariance of X given U is proportional to sigma_z.
    """
    return vector_extremal_gap(model, u, GaussianAuxChannel.degenerate_on("y"))


def scalar_dual_closed(lam: float, rho: float) -> DualValue:
    """Exact closed form of the scalar dual function F(lam).

    Active branch (lam >= 1/rho^2):
        (1/2) [log2(rho^2 (lam-1) / (1-rho^2))
               - lam log2((lam-1) / (lam (1-rho^2)))]
    and zero below the threshold. Continuous at the branch point. Raises
    DomainError when the value is not finite: for lam near the float
    maximum both logarithmic terms overflow, to inf - inf = nan.
    """
    if lam < 0.0:
        raise DomainError("lam must be nonnegative")
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    r2 = rho * rho
    if lam * r2 < 1.0 or r2 == 0.0:
        return DualValue(lam=lam, value_bits=0.0, branch="zero", exactness="exact")
    value = 0.5 * (
        math.log2(r2 * (lam - 1.0) / (1.0 - r2))
        - lam * math.log2((lam - 1.0) / (lam * (1.0 - r2)))
    )
    if not math.isfinite(value):
        raise DomainError(
            f"F({lam:g}) is not finite: lam is too large for the closed form, whose terms overflow"
        )
    return DualValue(lam=lam, value_bits=value, branch="active", exactness="exact")


def _roots_proportional(sigma_x: np.ndarray, sigma_z: np.ndarray) -> bool:
    c = float(np.trace(sigma_z)) / float(np.trace(sigma_x))
    return float(np.linalg.norm(sigma_z - c * sigma_x)) <= 1e-10 * float(np.linalg.norm(sigma_z))


def vector_dual_lower(lam: float, sigma_x, sigma_z) -> DualValue:
    """Certified lower bound on the vector dual function.

    Branch threshold lam* = 1 + (|sigma_z| / |sigma_x|)^(1/n). The bound is
    exact when sigma_x and sigma_z are proportional (in particular it
    reduces to the scalar closed form at n = 1); otherwise the true value
    could exceed it below the threshold, so exactness is "lower_bound".
    """
    if lam < 0.0:
        raise DomainError("lam must be nonnegative")
    sx = np.asarray(sigma_x, dtype=float)
    sz = np.asarray(sigma_z, dtype=float)
    ld_x = log_det(sx, "sigma_x")
    ld_z = log_det(sz, "sigma_z")
    ld_y = log_det(sx + sz, "sigma_x + sigma_z")
    n = sx.shape[0]
    root_x = math.exp(ld_x / n)
    root_z = math.exp(ld_z / n)
    root_y = math.exp(ld_y / n)
    threshold = 1.0 + root_z / root_x
    exactness = "exact" if _roots_proportional(sx, sz) else "lower_bound"
    if lam >= threshold:
        value = (n / 2.0) * (
            math.log2(root_x * (lam - 1.0) / root_z)
            - lam * math.log2(root_y * (lam - 1.0) / (root_z * lam))
        )
        return DualValue(lam=lam, value_bits=value, branch="active", exactness=exactness)
    value = -(lam * n / 2.0) * math.log2(root_y / (root_x + root_z))
    return DualValue(lam=lam, value_bits=value, branch="zero", exactness=exactness)


def _oracle_axis(resolution: int) -> np.ndarray:
    """Grid of squared channel correlations: uniform plus a log-spaced
    refinement toward 1 (the endpoint itself is excluded)."""
    uniform = np.linspace(0.0, 1.0 - 1e-4, resolution)
    refine = 1.0 - np.logspace(math.log10(1e-4), math.log10(0.5), max(resolution // 4, 16))
    axis = np.unique(np.concatenate([uniform, refine]))
    return np.clip(axis, 0.0, 1.0 - 1e-12)


# Side, in grid cells, of the square tiles the oracle bounds and evaluates.
_ORACLE_TILE = 64
# Tiles evaluated together once a first minimum is known; bounds the
# oracle's temporaries to about 0.5 MB each.
_ORACLE_BATCH = 16
# Pruning margin, relative to the largest term of the functional (a cell
# is the sum of three terms). It absorbs the rounding by which a computed
# cell can fall below the computed bound of its tile: the cell rounds
# s_u s_v and rho^2 s_u s_v before log2 while the tangent bound holds for
# the exact product, the bounds add their rounded pieces in another order,
# and log2 need not be monotone in its last bit. The argument of log2 is at
# least 1 - (1 - 1e-4)^2 on this grid, so the first moves the coupling term
# by at most about 1e-13 of the largest term; the others by a few ulps. The
# margin is a thousand times that.
_ORACLE_MARGIN = 1e-10


def _oracle_scan(lam: float, rho: float, resolution: int) -> tuple[float, float, float]:
    """(value, rho_u^2, rho_v^2) of the grid minimum; see scalar_dual_oracle."""
    r2 = rho * rho
    s = _oracle_axis(resolution)
    c = (lam - 1.0) / 2.0
    # Overflow is checked below, on the terms and on the minimum.
    with np.errstate(over="ignore", invalid="ignore"):
        gu = -0.5 * np.log2(1.0 - s) + (lam / 2.0) * np.log2(1.0 - r2 * s)
        # t is monotone in s_u s_v and vanishes at 0: its largest magnitude
        # is at the far corner of the grid.
        t_far = c * math.log2(1.0 - r2 * s[-1] * s[-1])
        if not (np.all(np.isfinite(gu)) and math.isfinite(t_far)):
            raise DomainError(f"lam = {lam:g} is too large for the grid oracle: its terms overflow")
        margin = _ORACLE_MARGIN * max(float(np.max(np.abs(gu))), abs(t_far))
        value, iu, iv = _oracle_search(gu, s, r2, c, margin)
    if not math.isfinite(value):
        raise DomainError(f"lam = {lam:g} is too large for the grid oracle: its minimum overflows")
    return value, float(s[iu]), float(s[iv])


def _oracle_search(gu, s, r2: float, c: float, margin: float) -> tuple[float, int, int]:
    """(value, iu, iv) of the lexicographically smallest cell, where cell
    (i, j) holds gu[i] + gu[j] - c log2(1 - r2 s_i s_j).

    Exact best-first branch and bound: tiles are evaluated in order of a
    lower bound on their cells until a bound exceeds the best value by more
    than the margin, so every tile that could hold the minimum, or tie with
    it, is evaluated.
    """
    size = _ORACLE_TILE
    starts = np.arange(0, s.size, size)
    starts[-1] = s.size - size  # the last tile overlaps its neighbour
    cells = starts[:, None] + np.arange(size)
    s_t, g_t = s[cells], gu[cells]
    lo = s_t[:, 0]
    g_min = g_t.min(axis=1)
    # t increases with s_u s_v for lam > 1 and decreases for lam < 1: bound
    # it by its value at the tile corner where it is smallest.
    corner = lo if c >= 0.0 else s_t[:, -1]
    bound = (g_min[:, None] + g_min[None, :]) - c * np.log2(1.0 - r2 * np.outer(corner, corner))
    order = np.argsort(bound, axis=None)
    sorted_bound = bound.reshape(-1)[order]

    best = (math.inf, 0, 0)  # (value, iu, iv), compared lexicographically
    done = 0
    while done < order.size and sorted_bound[done] <= best[0] + margin:
        stop = done + 1 if best[0] == math.inf else min(
            done + _ORACLE_BATCH,
            int(np.searchsorted(sorted_bound, best[0] + margin, side="right")),
        )
        a, b = np.divmod(order[done:stop], starts.size)
        done = stop
        if c > 0.0:
            # Tighter bound for the convex, increasing t: its tangent at the
            # low corner p0 = lo_a lo_b, with
            # s_u s_v - p0 >= lo_b (s_u - lo_a) + lo_a (s_v - lo_b),
            # splits into a row term and a column term. A slope that
            # overflows gives a NaN bound, which prunes nothing.
            p0 = lo[a] * lo[b]
            slope = c * (r2 / ((1.0 - r2 * p0) * math.log(2.0)))
            row = (g_t[a] + (slope * lo[b])[:, None] * (s_t[a] - lo[a][:, None])).min(axis=1)
            col = (g_t[b] + (slope * lo[a])[:, None] * (s_t[b] - lo[b][:, None])).min(axis=1)
            keep = ~((row + col) - c * np.log2(1.0 - r2 * p0) > best[0] + margin)
            a, b = a[keep], b[keep]
            if a.size == 0:
                continue
        g = g_t[a][:, :, None] + g_t[b][:, None, :]
        if c != 0.0:  # lam == 1: the coupling term is left out, not added as zero
            g = g - c * np.log2(1.0 - r2 * (s_t[a][:, :, None] * s_t[b][:, None, :]))
        g = g.reshape(a.size, -1)
        flat = g.argmin(axis=1)  # first minimum: smallest iu, then smallest iv
        iu, iv = np.divmod(flat, size)
        best = min(best, *zip(
            g[np.arange(a.size), flat].tolist(),
            (starts[a] + iu).tolist(),
            (starts[b] + iv).tolist(),
        ))
    return best


def scalar_dual_oracle(lam: float, rho: float, grid_resolution: int = 500) -> float:
    """Grid minimum of the dual functional over Gaussian product channels
    (U from X only, V from Y only).

    Independent of the closed form: each term is the Gaussian
    -(1/2) log2(1 - corr^2) expression in the channel correlations. Ties
    break toward smaller rho_u^2, then smaller rho_v^2.

    The value is the minimum over every grid cell, computed cell by cell as
    a full scan would, but only square tiles of the grid that could hold it
    are evaluated. A tile's lower bound is the smallest per-axis term over
    its rows plus that over its columns plus the coupling term
    -(lam-1)/2 log2(1 - rho^2 s_u s_v) at the tile corner where it is
    smallest; for lam > 1 the tangent of the coupling at that corner
    tightens it. Tiles are visited in order of bound until one exceeds the
    best value by more than a margin of 1e-10 times the largest term,
    which absorbs the bounds' own rounding. Raises DomainError when lam is
    so large (above about 1e307 for |rho| near 1) that a term or the
    minimum overflows.
    """
    value, _, _ = scalar_dual_oracle_argmin(lam, rho, grid_resolution)
    return value


def scalar_dual_oracle_argmin(
    lam: float, rho: float, grid_resolution: int = 500
) -> tuple[float, float, float]:
    """Oracle value together with the minimizing (rho_u^2, rho_v^2) cell."""
    if grid_resolution < 100:
        raise DomainError("grid_resolution must be at least 100")
    if lam < 0.0:
        raise DomainError("lam must be nonnegative")
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    return _oracle_scan(float(lam), float(rho), int(grid_resolution))


def minimizer_equation_residual(rho: float, lam: float, rho_u: float, rho_v: float) -> float:
    """Residual of the nondegenerate-minimizer equation

    (1 - rho^2)(1 - rho^2 rho_u^2 rho_v^2)
        - rho^2 (lam - 1)(1 - rho_u^2)(1 - rho_v^2).
    """
    r2, a, b = rho * rho, rho_u * rho_u, rho_v * rho_v
    return (1.0 - r2) * (1.0 - r2 * a * b) - r2 * (lam - 1.0) * (1.0 - a) * (1.0 - b)


def nondegenerate_minimizers(lam: float, rho: float, count: int = 20) -> list[MinimizerPair]:
    """Channel-correlation pairs that attain the scalar dual value with
    both descriptions active.

    Sweeps rho_v^2 over its feasible range and solves the minimizer
    equation for rho_u^2 (linear after expansion), keeping solutions in
    [0, 1). Below the active threshold there are no such pairs and the
    list is empty.
    """
    if rho == 0.0:
        raise DomainError("rho must be nonzero")
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    if count < 1:
        raise DomainError("count must be positive")
    r2 = rho * rho
    if lam * r2 < 1.0:
        return []
    # b_max is where the required rho_u^2 hits zero.
    ell = lam - 1.0
    b_max = 1.0 - (1.0 - r2) / (r2 * ell)
    pairs: list[MinimizerPair] = []
    for b in np.linspace(0.0, b_max, count):
        numer = r2 * ell * (1.0 - b) - (1.0 - r2)
        denom = r2 * (ell * (1.0 - b) - (1.0 - r2) * b)
        if denom <= 0.0:
            continue
        a = numer / denom
        if not 0.0 <= a < 1.0:
            continue
        pairs.append(MinimizerPair(rho_u=math.sqrt(a), rho_v=math.sqrt(float(b))))
    return pairs


def alpha_family_channel(
    model: GaussianPairModel, lam: float
) -> tuple[GaussianAuxChannel, float]:
    """The tightness-certifying channel with conditional source covariance
    alpha * sigma_z, alpha = 1 / (lam - 1).

    Valid only when alpha * sigma_z sits strictly below sigma_x, which in
    particular holds for every lam above 1 + max-eigenvalue of
    sigma_x^{-1} sigma_z.
    """
    if lam <= 1.0:
        raise DomainError("lam must exceed 1 for the channel family")
    model = model.to_vector()
    alpha = 1.0 / (lam - 1.0)
    channel = GaussianAuxChannel.for_conditional_cov(model, alpha * model.sigma_z, "x")
    return channel, alpha


def exponent_tradeoff_min(a1: float, a2: float, lam: float) -> float:
    """Minimum over t >= 0 of max(f(t), 0) - lam t for the exponent curve
    defined implicitly by 2^(-2t) = a1 2^(-2 f(t)) + a2.

    Requires a1, a2 > 0 and a1 + a2 <= 1. Above the threshold
    (a1 + a2) / a1 the minimum is interior; below it the kink at f = 0
    binds.
    """
    if a1 <= 0.0 or a2 <= 0.0:
        raise DomainError("a1 and a2 must be positive")
    if a1 + a2 > 1.0 + 1e-12:
        raise DomainError("a1 + a2 must not exceed 1")
    if lam < 0.0:
        raise DomainError("lam must be nonnegative")
    if lam >= (a1 + a2) / a1:
        return 0.5 * math.log2(a1 * (lam - 1.0) / a2) - (lam / 2.0) * math.log2(
            (lam - 1.0) / (a2 * lam)
        )
    return -(lam / 2.0) * math.log2(1.0 / (a1 + a2))


def minkowski_gap(sigma_a, sigma_b) -> float:
    """|A + B|^(1/n) - |A|^(1/n) - |B|^(1/n); nonnegative for PD A, B."""
    a = np.asarray(sigma_a, dtype=float)
    b = np.asarray(sigma_b, dtype=float)
    if a.shape != b.shape:
        raise DomainError("matrices must share a dimension")
    n = a.shape[0]
    root = lambda m, name: math.exp(log_det(m, name) / n)
    return root(a + b, "sum") - root(a, "sigma_a") - root(b, "sigma_b")
