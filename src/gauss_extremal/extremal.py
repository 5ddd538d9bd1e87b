"""Extremal-inequality gap functionals and the dual value function.

For a Markov chain U - X - Y - V over a Gaussian pair, the central vector
inequality states, with r = (|sigma_x| / |sigma_y|)^(1/n),

    2^(-(2/n)(I(Y;U) + I(X;V|U)))
        >= r * 2^(-(2/n)(I(X;U) + I(Y;V|U))) + 2^(-(2/n) I(X;Y)),

with equality iff the conditional law of X given U is Gaussian with
covariance proportional to sigma_z. Each gap function here returns
LHS - RHS, so nonnegativity of the gap over all Gaussian channels is the
falsifiable form of the inequality.

The dual value function is

    F(lam) = inf { I(X;U) - lam I(Y;U) + I(Y;V|U) - lam I(X;V|U) },

the infimum running over the Markov chain. The scalar closed form is
exact; the vector form is a certified lower bound that is tight when
sigma_x and sigma_z are proportional, and tight above the branch threshold
for the one-parameter channel family with conditional covariance
alpha * sigma_z, alpha = 1 / (lam - 1).

Everything here is pure and stateless; the grid oracle scans cells in a
fixed order with a deterministic tie-break (smallest rho_u^2, then
smallest rho_v^2), so its result does not depend on evaluation order.
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


def scalar_gap(info: InfoVector, r2):
    """LHS - RHS of the unit-variance scalar inequality from its informations,
    elementwise over floats or (T,) arrays (r2 = rho^2 of the same kind).

    2^(-2 I(Y;U)) 2^(-2 I(X;V|U)) - (1 - rho^2)
        - rho^2 2^(-2 I(X;U)) 2^(-2 I(Y;V|U)).
    """
    return (
        2.0 ** (-2.0 * (info.i_yu + info.i_xv_given_u))
        - (1.0 - r2)
        - r2 * 2.0 ** (-2.0 * (info.i_xu + info.i_yv_given_u))
    )


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
    """LHS - RHS of the unit-variance scalar inequality (see scalar_gap)."""
    model = GaussianPairModel.scalar(rho)
    return scalar_gap(mutual_information(model, u, v), rho * rho)


def oohama_gap(model: GaussianPairModel, u: GaussianAuxChannel) -> float:
    """Gap of the single-description bound: the two-description gap with
    V degenerate, whose informations all vanish.

    Scalar: 2^(-2 I(Y;U)) - (1 - rho^2) - rho^2 2^(-2 I(X;U)).
    Vector: per-dimension form with determinant ratios. Zero iff the
    conditional covariance of X given U is proportional to sigma_z.
    """
    v = GaussianAuxChannel.degenerate_on("y")
    if model.kind == "scalar":
        return scalar_extremal_gap(model.rho, u, v)
    return vector_extremal_gap(model, u, v)


def scalar_dual_closed(lam: float, rho: float) -> DualValue:
    """Exact closed form of the scalar dual function F(lam).

    Active branch (lam >= 1/rho^2):
        (1/2) [log2(rho^2 (lam-1) / (1-rho^2))
               - lam log2((lam-1) / (lam (1-rho^2)))]
    and zero below the threshold. Continuous at the branch point.
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


def _oracle_scan(lam: float, rho: float, resolution: int) -> tuple[float, float, float]:
    r2 = rho * rho
    s = _oracle_axis(resolution)
    # Per-axis pieces of the functional; the only coupled term is
    # (lam - 1) I(U;V), which depends on the product of the squared
    # correlations.
    gu = -0.5 * np.log2(1.0 - s) + (lam / 2.0) * np.log2(1.0 - r2 * s)
    gv = gu.copy()
    best = math.inf
    best_u = best_v = 0.0
    chunk = 512
    for lo in range(0, s.size, chunk):
        su = s[lo : lo + chunk]
        coupling = 1.0 - r2 * np.outer(su, s)
        g = gu[lo : lo + chunk, None] + gv[None, :]
        if lam != 1.0:
            g = g - ((lam - 1.0) / 2.0) * np.log2(coupling)
        flat = int(np.argmin(g))
        val = float(g.reshape(-1)[flat])
        if val < best:
            best = val
            iu, iv = divmod(flat, s.size)
            best_u = float(su[iu])
            best_v = float(s[iv])
    return best, best_u, best_v


def scalar_dual_oracle(lam: float, rho: float, grid_resolution: int = 500) -> float:
    """Brute-force grid minimum of the dual functional over Gaussian
    product channels (U from X only, V from Y only).

    Independent of the closed form: each term is the Gaussian
    -(1/2) log2(1 - corr^2) expression in the channel correlations. Ties
    break toward smaller rho_u^2, then smaller rho_v^2.
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
