"""Extremal-inequality gap functionals and the dual value function.

For a Markov chain U - X - Y - V over a Gaussian pair Y = rho X + Z, the
central vector inequality states, with r = rho^2 (|sigma_x| / |sigma_y|)^(1/n),

    2^(-(2/n)(I(Y;U) + I(X;V|U)))
        >= r * 2^(-(2/n)(I(X;U) + I(Y;V|U))) + 2^(-(2/n) I(X;Y)),

with equality when V is not sent and the conditional law of X given U is
Gaussian with covariance proportional to sigma_z: the equality case the
tests establish (C3, vec-epi, oohama_gap). With V sent, that condition
alone is not sufficient: such a U with a random full-rank V left gaps
from 2.0e-7 to 6.3e-2 over 200 random non-proportional pairs at each of
n = 2 and 3. Each gap function here returns
LHS - RHS, so nonnegativity of the gap over all Gaussian channels is the
falsifiable form of the inequality. The scalar inequality is its n = 1
case for the unit-variance pair, with r = rho^2 and
2^(-2 I(X;Y)) = 1 - rho^2.

The dual value function is

    F(lam) = inf { I(X;U) - lam I(Y;U) + I(Y;V|U) - lam I(X;V|U) },

the infimum running over the Markov chain. With roots (r_x, r_z, r_y), one
closed form

    (n/2) [log2(r_x (lam-1) / r_z) - lam log2(r_y (lam-1) / (r_z lam))]

for lam r_x >= r_x + r_z, and (lam n / 2) log2((r_x + r_z) / r_y) below,
is the exact scalar dual at (rho^2, 1 - rho^2, 1), the exponent-tradeoff
minimum at (a1, a2, 1), and, at (1, gm(d), gm(1 + d)) for the spectrum d of
sigma_x^{-1} sigma_z (gm the geometric mean), a lower bound on the vector
dual, tight when all d are equal (sigma_x and sigma_z proportional) and,
above the branch threshold, for the channel family with conditional
covariance alpha * sigma_z, alpha = 1 / (lam - 1). In the pair's basis W,
W sigma_x W^T = I and W sigma_z W^T = diag(d), that family is the channel
U = W X + N(0, diag(q)), q = alpha d / (1 - alpha d), which exists iff
alpha max d < 1; alpha_family_channel and the vec-epi sweep build it.

Everything here is pure; its only state is a cache of read-only grid plans.
The grid oracle returns a full scan's minimum value, bit for bit:
scalar_dual_oracle states its contract, and _oracle_search how it is met.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckFailed, DomainError
from .gauss_model import (
    GaussianAuxChannel,
    GaussianPairModel,
    InfoVector,
    _as_square,
    _pair_spectrum,
    _triple_batch,
    log_det,
)

_FORM_TOL = 1e-10  # the two exponent forms differ by roundoff: <= 1.3e-12 on verify sweeps, dims 1-16


@dataclass(frozen=True)
class DualValue:
    """One evaluation of the dual function."""

    value_bits: float
    branch: str  # "active" | "zero"
    exactness: str  # "exact" | "lower_bound"


@dataclass(frozen=True)
class MinimizerPair:
    """A nondegenerate minimizer of the dual functional."""

    rho_u: float
    rho_v: float


def dual_functional(info: InfoVector, lam: float) -> float:
    """I(X;U) - lam I(Y;U) + I(Y;V|U) - lam I(X;V|U), in bits."""
    return info.i_xu - lam * info.i_yu + info.i_yv_given_u - lam * info.i_xv_given_u


def _check_n(n) -> None:
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):  # NaN and 2.5 included
        raise DomainError(f"n must be an integer of at least 1, got {n!r}")


def vector_gap_forms(info: InfoVector, n: int, ratio):
    """(gap_conditional, gap_unconditional) of the vector inequality.

    Elementwise over info's fields and ratio, (T,) arrays, one entry per
    sample of an information_batch stack. The two forms differ by the common
    factor 2^(-(2/n) I(U;V)); the Markov identity
    I(X;V) - I(X;V|U) = I(U;V) makes them equivalent, and a disagreement
    beyond _FORM_TOL raises CrossCheckFailed; an n that is not an integer >= 1 raises DomainError.
    """
    _check_n(n)
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
        i = np.argmax(off)
        raise CrossCheckFailed(f"exponent forms diverged by {off[i]:.3e} (tolerance {_FORM_TOL:g}) at sample {i}")
    return gap_cond, gap_uncond


def volume_ratio(ld: dict, n: int, rho):
    """rho^2 (|sigma_x| / |sigma_y|)^(1/n), the ratio of vector_gap_forms, from the
    X and Y log-determinants of information_batch; elementwise over its stack. An n
    that is not an integer >= 1 raises DomainError."""
    _check_n(n)
    return rho * rho * np.exp((ld["x"] - ld["y"]) / n)


def vector_extremal_forms(
    model: GaussianPairModel, u: GaussianAuxChannel, v: GaussianAuxChannel
) -> tuple[float, float, InfoVector]:
    """Both exponent forms of the vector inequality gap.

    Returns (gap_conditional, gap_unconditional, info); see
    vector_gap_forms for the cross-check between them. One kernel call
    gives the informations and, through volume_ratio, the ratio, as in a
    sweep, so the gap equals the sweep's for the same triple bit for bit.
    """
    info, ld = _triple_batch(model, u, v)
    gap_cond, gap_uncond = vector_gap_forms(info, model.n, volume_ratio(ld, model.n, model.rho))
    return float(gap_cond[0]), float(gap_uncond[0]), info.at(0)


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


def _dual_closed(lam: float, n: int, root_x: float, root_z: float, root_y: float) -> tuple[float, str]:
    """(value, branch) of the closed form in the module docstring, +0.0 on the zero branch
    when r_x + r_z = r_y. Raises DomainError when the value is not finite: near the ends
    of the float range the logarithmic terms overflow, to inf - inf = nan (in Python floats,
    as numpy scalars would warn first), or r_z lam overflows and the last quotient is 0."""
    lam, root_x, root_z, root_y = float(lam), float(root_x), float(root_z), float(root_y)
    active = lam * root_x >= root_x + root_z
    if active:
        first, last = root_x * (lam - 1.0) / root_z, root_y * (lam - 1.0) / (root_z * lam)
        value = (n / 2.0) * (math.log2(first) - lam * math.log2(last)) if last else math.nan  # log2(0) raises
    else:
        value = (lam * n / 2.0) * math.log2((root_x + root_z) / root_y)
    if not math.isfinite(value):
        raise DomainError(f"F({lam:g}) is not finite: lam is too large for the closed form, whose terms overflow")
    return value, "active" if active else "zero"


def scalar_dual_closed(lam: float, rho: float) -> DualValue:
    """Exact closed form of the scalar dual function F(lam), the n = 1 case
    (rho^2, 1 - rho^2, 1) of the module's: active for lam >= 1/rho^2, zero
    below, and continuous at the branch point. Raises DomainError when the
    value is not finite, as for lam near the float maximum.
    """
    if not lam >= 0.0:  # NaN included
        raise DomainError("lam must be nonnegative")
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    r2 = rho * rho
    # rho^2 + (1 - rho^2) rounds to 1 for every rho^2 in [0, 1): the branch test is lam rho^2 >= 1.
    value, branch = _dual_closed(lam, 1, r2, 1.0 - r2, 1.0)
    return DualValue(value_bits=value, branch=branch, exactness="exact")


def vector_dual_lower(lam: float, sigma_x, sigma_z) -> DualValue:
    """Certified lower bound on the vector dual function, read from the spectrum
    d of sigma_x^{-1} sigma_z (see the module docstring): branch threshold
    lam* = 1 + gm(d). The bound is exact when all d are equal, sigma_x and
    sigma_z proportional (so always at n = 1); otherwise the true value could
    exceed it below the threshold, so exactness is "lower_bound". Raises
    DomainError for shapes that differ or a value or d that is not finite."""
    if not lam >= 0.0:  # NaN included
        raise DomainError("lam must be nonnegative")
    sx, sz = np.asarray(sigma_x, dtype=float), np.asarray(sigma_z, dtype=float)
    if sx.shape != sz.shape:
        raise DomainError(f"sigma_x and sigma_z must share a shape, got {sx.shape} and {sz.shape}")
    with np.errstate(all="ignore"):  # a d or a root outside the float range is refused below
        d, _ = _pair_spectrum(_as_square(sx, "sigma_x"), sz)  # a matrix, not a stack
        root_z, root_y = (float(np.exp(np.log(v).mean())) for v in (d, 1.0 + d))
    if not 0.0 < root_z < math.inf:
        raise DomainError(f"F({lam:g}) is not finite: the eigenvalues of sigma_x^-1 sigma_z leave the float range")
    value, branch = _dual_closed(lam, sx.shape[0], 1.0, root_z, root_y)
    exactness = "exact" if d[-1] - d[0] <= 1e-10 * d[-1] else "lower_bound"  # 1e-10 absorbs cond(sx) ulps of d
    return DualValue(value_bits=value, branch=branch, exactness=exactness)


def _oracle_axis(resolution: int) -> np.ndarray:
    """Grid of squared channel correlations: uniform plus a log-spaced
    refinement toward 1 (the endpoint itself is excluded)."""
    uniform = np.linspace(0.0, 1.0 - 1e-4, resolution)
    refine = 1.0 - np.logspace(math.log10(1e-4), math.log10(0.5), max(resolution // 4, 16))
    axis = np.unique(np.concatenate([uniform, refine]))
    return np.clip(axis, 0.0, 1.0 - 1e-12)


# Side, in grid cells, of the square tiles the oracle bounds and evaluates.
_ORACLE_TILE = 32
# Tiles evaluated together once a first minimum is known; bounds the
# oracle's work buffer, made when a batch is due, to 2 x 64 x 32 x 32 doubles.
_ORACLE_BATCH = 64
# Largest grid_resolution accepted. The search's per-call (tiles x tiles) pair
# bounds and their temporaries measured 95 MB at 5 x 10^4, so about 380 MB at
# 10^5 (the cached plan: 5 MB); a larger grid would fail on memory in them.
_ORACLE_MAX_GRID = 10**5
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
_OraclePlan = collections.namedtuple("_OraclePlan", "s g0 cells s_t lo off_t")


@functools.lru_cache(maxsize=4)
def _oracle_plan(resolution: int) -> _OraclePlan:
    """The lam-free arrays of one resolution, read-only and O(resolution) in size:
    the axis s, g0 = -(1/2) log2(1 - s), the (tiles, 32) cells of each tile (the
    last tile overlaps its neighbour), s_t = s[cells], the tile lows lo = s_t[:, 0]
    and the tangent bound's offsets off_t = s_t - lo[:, None]."""
    s = _oracle_axis(resolution)
    starts = np.arange(0, s.size, _ORACLE_TILE)
    starts[-1] = s.size - _ORACLE_TILE
    cells = starts[:, None] + np.arange(_ORACLE_TILE)
    s_t = s[cells]
    plan = _OraclePlan(s, -0.5 * np.log2(1.0 - s), cells, s_t, s_t[:, 0], s_t - s_t[:, :1])
    for array in plan:
        array.flags.writeable = False
    return plan


def _oracle_scan(lam: float, rho: float, resolution: int) -> float:
    """The grid minimum; see scalar_dual_oracle."""
    r2 = rho * rho
    plan = _oracle_plan(resolution)
    s = plan.s
    c = (lam - 1.0) / 2.0
    # Overflow is checked below, on the terms and on the minimum.
    with np.errstate(over="ignore", invalid="ignore"):
        gu = plan.g0 + (lam / 2.0) * np.log2(1.0 - r2 * s)
        # t is monotone in s_u s_v and vanishes at 0: its largest magnitude
        # is at the far corner of the grid.
        t_far = c * math.log2(1.0 - r2 * s[-1] * s[-1])
        top = float(np.max(np.abs(gu)))  # inf or NaN exactly when a term is
        if not (math.isfinite(top) and math.isfinite(t_far)):
            raise DomainError(f"lam = {lam:g} is too large for the grid oracle: its terms overflow")
        margin = _ORACLE_MARGIN * max(top, abs(t_far))
        value = _oracle_search(gu, plan, r2, c, margin)
    if not math.isfinite(value):
        raise DomainError(f"lam = {lam:g} is too large for the grid oracle: its minimum overflows")
    # A full scan meets cell (0, 0), which is +0.0, first, so its zero minimum
    # is +0.0; adding +0.0 turns -0.0 into it and leaves every other value as is.
    return value + 0.0


def _tangent_bound(g_t, g_min, plan: _OraclePlan, a, b, r2: float, c: float, limit: float):
    """(first, bound): two lower bounds on the cells of tile pairs (a, b), for
    lam > 1 (c > 0), where the coupling -c log2(1 - r2 s_u s_v) is convex and
    increasing in s_u s_v. Its tangent at the low corner p0 = lo_a lo_b, with
    s_u s_v - p0 >= lo_b (s_u - lo_a) + lo_a (s_v - lo_b), splits into a row
    term and a column term. first replaces the column term by the smallest
    column value g_min[b]; each column term adds slope lo_a off_t[b, k] >= 0
    to its value and rounding is monotone, so first <= bound in floating
    point, and the column term is computed only where first is not above
    limit (elsewhere bound is first). A slope that overflows gives a NaN
    bound, which prunes nothing."""
    lo, off_t = plan.lo, plan.off_t
    p0 = lo[a] * lo[b]
    slope = c * (r2 / ((1.0 - r2 * p0) * math.log(2.0)))
    coupling = c * np.log2(1.0 - r2 * p0)
    row = (g_t[a] + (slope * lo[b])[:, None] * off_t[a]).min(axis=1)
    first = (row + g_min[b]) - coupling
    bound = first.copy()
    i = np.flatnonzero(~(first > limit))
    col = (g_t[b[i]] + (slope[i] * lo[a[i]])[:, None] * off_t[b[i]]).min(axis=1)
    bound[i] = (row[i] + col) - coupling[i]
    return first, bound


def _oracle_search(gu, plan: _OraclePlan, r2: float, c: float, margin: float) -> float:
    """The smallest cell value, where cell (i, j) holds
    gu[i] + gu[j] - c log2(1 - r2 s_i s_j), s and the tiles taken from the
    cached plan of the resolution.

    Exact branch and bound over 32 x 32 tiles of the grid. A tile pair's
    corner bound is the smallest per-axis term over its rows plus that
    over its columns plus the coupling term -c log2(1 - r2 s_u s_v) at the
    tile corner where it is smallest. The pair of the smallest corner bound
    is evaluated first, and only the pairs whose corner bound is within the
    margin of that minimum are kept. For lam > 1 (c > 0) each kept pair's
    bound is then tightened once, by the coupling's tangent
    (_tangent_bound). The pairs whose bound is still within the margin
    survive and are evaluated in corner-bound order, in full batches of 64
    tiles in one reused work buffer of at most 1 MB (made only when a pair
    survives); after each batch the survivors whose bound now exceeds the
    best value by more than the margin are dropped. The margin, 1e-10
    times the largest term, absorbs the bounds' own rounding, so every
    tile that could hold the minimum is evaluated. Cell (i, j) equals
    cell (j, i) bit for bit, so the minimum lies in a pair (a, b) with
    a <= b: only those pairs are searched. Each evaluated cell is computed
    as a full scan computes it, so the value is the full scan's minimum,
    bit for bit, whatever the visiting order, up to the sign of a zero
    minimum, which _oracle_scan fixes.

    At grid 2000 (79 tiles; one thread of a 2 vCPU machine), on the rows
    of the benchmark's dual tables: a zero-branch row ends after its first
    tile, in 0.10 to 0.14 ms and 0.24 MB. An active row near the branch
    point (lam rho^2 from 1.0 to 2.6) keeps 16 to 424 pairs, of which 6 to
    73 survive, in 0.2 to 0.8 ms. A deep-active row (lam rho^2 from 4 to
    22) keeps 455 to 669 pairs; about half pass the first stage of the
    tangent bound and 88 to 102 survive, evaluated in two batches in 0.9
    to 1.1 ms. A call takes at most 1.34 MB; a chunked full scan takes
    110 to 135 ms and 31 MB.
    """
    s_t, lo = plan.s_t, plan.lo
    size, tiles = _ORACLE_TILE, lo.size
    g_t = gu[plan.cells]
    g_min = g_t.min(axis=1)
    # t increases with s_u s_v for lam > 1 and decreases for lam < 1: bound
    # it by its value at the tile corner where it is smallest. Pair (a, b)
    # is entry a * tiles + b; its bound equals that of (b, a) bit for bit.
    corner = lo if c >= 0.0 else s_t[:, -1]
    bound = (np.add.outer(g_min, g_min) - c * np.log2(1.0 - r2 * np.multiply.outer(corner, corner))).ravel()

    def evaluate(a, b, work):
        """Smallest cell of tile pairs (a, b), with the full scan's arithmetic in work."""
        g, t = work[0, : a.size], work[1, : a.size]
        np.add(g_t[a][:, :, None], g_t[b][:, None, :], out=g)
        np.multiply(s_t[a][:, :, None], s_t[b][:, None, :], out=t)
        np.multiply(r2, t, out=t)
        np.subtract(1.0, t, out=t)
        np.log2(t, out=t)
        np.multiply(c, t, out=t)
        np.subtract(g, t, out=g)
        return float(g.min())

    # The first smallest bound has a <= b, as its mirror entry comes later.
    a, b = divmod(int(np.argmin(bound)), tiles)
    best = evaluate(np.array([a]), np.array([b]), np.empty((2, 1, size, size)))
    # Only pairs (a <= b) within the margin of that minimum can hold the
    # minimum. The stable sort keeps the first smallest bound first: the pair
    # just evaluated leads the order and is dropped.
    kept = np.flatnonzero(bound <= best + margin)
    kept = kept[kept // tiles <= kept % tiles]
    order = kept[np.argsort(bound[kept], kind="stable")][1:]
    if not order.size:
        return best
    a, b = np.divmod(order, tiles)
    if c > 0.0:
        _, tight = _tangent_bound(g_t, g_min, plan, a, b, r2, c, best + margin)
    else:
        tight = bound[order]
    live = np.flatnonzero(~(tight > best + margin))
    work = np.empty((2, min(live.size, _ORACLE_BATCH), size, size))
    while live.size:
        batch, live = live[:_ORACLE_BATCH], live[_ORACLE_BATCH:]
        best = min(best, evaluate(a[batch], b[batch], work))
        live = live[~(tight[live] > best + margin)]
    return best


def scalar_dual_oracle(lam: float, rho: float, grid_resolution: int = 500) -> float:
    """Grid minimum of the dual functional over Gaussian product channels
    (U from X only, V from Y only).

    Independent of the closed form: each term is the Gaussian
    -(1/2) log2(1 - corr^2) expression in the channel correlations. The
    value is a full scan's minimum over every grid cell, bit for bit;
    _oracle_search describes how it is found without evaluating every
    cell. The lam-free part of the grid is built once per resolution per
    process and cached, read-only, for the last 4 resolutions: about 5 MB
    at 10^5; a call's own memory is at most 1.34 MB at grid 2000 and about
    380 MB at 10^5. Raises DomainError when lam is so large (about 1e307
    for |rho| near 1) that a term or the minimum overflows, and when
    grid_resolution lies outside [100, 10^5].
    """
    if not isinstance(grid_resolution, numbers.Integral):
        raise DomainError(f"grid_resolution must be an integer, got {grid_resolution!r}")
    if not 100 <= grid_resolution <= _ORACLE_MAX_GRID:
        raise DomainError(f"grid_resolution must lie in [100, {_ORACLE_MAX_GRID}], got {grid_resolution}")
    if not lam >= 0.0:  # NaN included
        raise DomainError("lam must be nonnegative")
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    return _oracle_scan(float(lam), float(rho), int(grid_resolution))


def nondegenerate_minimizers(lam: float, rho: float, count: int = 20) -> list[MinimizerPair]:
    """Channel-correlation pairs that attain the scalar dual value with
    both descriptions active.

    Sweeps rho_v^2 over count evenly spaced points of its range [0, b_max]
    and solves the minimizer equation for rho_u^2 (linear after expansion),
    which is 0 at b_max in exact arithmetic; at the threshold lam rho^2 = 1
    the family is the point (0, 0), count times, and below it the list is
    empty. It holds count pairs unless rounding takes rho_u^2 to 1, as for
    very large lam or |rho| near 1: at rho = 0.5 it holds 20 pairs at
    lam = 1e16, 6 at 1e17 and none from 1e18 on. Raises DomainError for a
    lam that is negative, NaN or infinite.
    """
    if not lam >= 0.0:  # NaN included
        raise DomainError("lam must be nonnegative")
    if lam == math.inf:
        raise DomainError("lam must be finite")
    if rho == 0.0:
        raise DomainError("rho must be nonzero")
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    if isinstance(count, bool) or not (isinstance(count, numbers.Integral) and count >= 1):
        raise DomainError(f"count must be a positive integer, got {count!r}")
    r2 = rho * rho
    if lam * r2 < 1.0:
        return []
    # b_max is where the required rho_u^2 hits zero. On [0, b_max] exact arithmetic gives
    # denom > 0 and rho_u^2 in [0, 1): the clamps undo rounding at the two ends, and the
    # mask drops the pairs whose rounding takes denom to 0 or rho_u^2 to 1.
    ell = lam - 1.0
    b = np.linspace(0.0, max(0.0, 1.0 - (1.0 - r2) / (r2 * ell)), count)
    numer = r2 * ell * (1.0 - b) - (1.0 - r2)
    denom = r2 * (ell * (1.0 - b) - (1.0 - r2) * b)
    with np.errstate(all="ignore"):  # the inf or NaN of a denom of 0 is masked
        a = np.maximum(numer, 0.0) / denom
    keep = (denom > 0.0) & (a < 1.0)
    return [MinimizerPair(math.sqrt(u2), math.sqrt(v2)) for u2, v2 in zip(a[keep].tolist(), b[keep].tolist())]


def _equality_noise(alpha, d) -> np.ndarray:
    """diag(q), q = alpha d / (1 - alpha d), of U = W X + N(0, diag(q)), Cov(X | U) = alpha sigma_z, for (d, W) =
    _pair_spectrum(sigma_x, sigma_z), or of stacks with one alpha per pair. The caller ensures alpha max d < 1."""
    ad = np.expand_dims(alpha, -1) * d
    return (ad / (1.0 - ad))[..., None] * np.eye(d.shape[-1])


def alpha_family_channel(model: GaussianPairModel, lam: float) -> tuple[GaussianAuxChannel, float]:
    """The tightness-certifying channel Cov(rho X | U) = alpha sigma_z, alpha = 1 / (lam - 1): U = rho W X +
    N(0, diag(q)), q = alpha d / (1 - alpha d), with (d, W) = _pair_spectrum(rho^2 sigma_x, sigma_z), so that
    Cov(X | U) = alpha sigma_z / rho^2 in the model's X coordinates. DomainError when lam is not in (1, inf),
    rho^2 is 0 or that target is not finite, or lam <= 1 + max d (1 / rho^2 for the scalar model)."""
    if not lam > 1.0:  # NaN included
        raise DomainError("lam must exceed 1 for the channel family")
    if lam == math.inf:
        raise DomainError("lam must be finite")
    alpha = 1.0 / (lam - 1.0)
    r2 = model.rho * model.rho
    with np.errstate(all="ignore"):  # rho^2 = 0 (rho = 0, or rho^2 underflows) gives inf or nan
        finite = np.all(np.isfinite(alpha * model.sigma_z / r2))
    if not finite:
        raise DomainError(f"alpha sigma_z / rho^2 is not finite at rho^2 = {r2:g} (no such channel at rho = 0)")
    d, w = _pair_spectrum(r2 * model.sigma_x, model.sigma_z)
    if not (lam > 1.0 + d[-1] and alpha * d[-1] < 1.0):  # near 1 + max d, alpha max d can round to 1
        raise DomainError(f"lam = {lam:g} must exceed 1 + max d = {1 + d[-1]:g}, d of (rho^2 sigma_x, sigma_z)")
    return GaussianAuxChannel.linear(model.rho * w, _equality_noise(alpha, d), "x"), alpha


def exponent_tradeoff_min(a1: float, a2: float, lam: float) -> float:
    """Minimum over t >= 0 of max(f(t), 0) - lam t for the exponent curve
    defined implicitly by 2^(-2t) = a1 2^(-2 f(t)) + a2: the dual's closed
    form with roots (a1, a2, 1).

    Requires a1, a2 > 0 and a1 + a2 <= 1. Above the threshold
    (a1 + a2) / a1 the minimum is interior; below it the kink at f = 0
    binds. Raises DomainError when the value is not finite.
    """
    if not (a1 > 0.0 and a2 > 0.0):  # NaN included
        raise DomainError("a1 and a2 must be positive")
    # 1e-12 admits weights meant to sum to 1, such as rho^2 and 1 - rho^2,
    # whose rounding lets the computed sum exceed 1 by a few ulps.
    if a1 + a2 > 1.0 + 1e-12:
        raise DomainError("a1 + a2 must not exceed 1")
    if not lam >= 0.0:  # NaN included
        raise DomainError("lam must be nonnegative")
    return _dual_closed(lam, 1, a1, a2, 1.0)[0]


def minkowski_gap(sigma_a, sigma_b) -> float:
    """|A + B|^(1/n) - |A|^(1/n) - |B|^(1/n); nonnegative for PD A, B."""
    a = _as_square(sigma_a, "sigma_a")
    b = _as_square(sigma_b, "sigma_b")
    if a.shape != b.shape:
        raise DomainError("matrices must share a dimension")
    n = a.shape[0]
    root = lambda m, name: math.exp(log_det(m, name) / n)
    return root(a + b, "sum") - root(a, "sigma_a") - root(b, "sigma_b")
