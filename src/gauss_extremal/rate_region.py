"""Closed-form two-encoder quadratic Gaussian rate regions.

A rate/distortion point (R_x, R_y, nu_x, nu_y) for a unit-variance pair
with correlation rho is achievable iff

    R_x >= (1/2) log2[(1/nu_x)(1 - rho^2 + rho^2 2^(-2 R_y))]
    R_y >= (1/2) log2[(1/nu_y)(1 - rho^2 + rho^2 2^(-2 R_x))]
    R_x + R_y >= (1/2) log2[(1 - rho^2) beta(nu_x nu_y) / (2 nu_x nu_y)]

with beta(z) = 1 + sqrt(1 + 4 rho^2 z / (1 - rho^2)^2). Rates and
distortions are per dimension. Only rho^2 enters any formula, so verdicts
are invariant under rho -> -rho.

Everything here is pure and stateless.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

# Membership uses slack >= -BOUNDARY_TOL so exact-boundary constructions
# count as inside: their slacks round to at most 8.9e-16 below 0.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class RegionVerdict:
    satisfies_rx: bool
    satisfies_ry: bool
    satisfies_sum: bool
    slack_rx: float
    slack_ry: float
    slack_sum: float
    inside: bool


def beta(rho: float, z: float) -> float:
    """1 + sqrt(1 + 4 rho^2 z / (1 - rho^2)^2), z in [0, inf); exactly 2 at rho = 0 or z = 0."""
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    if not z >= 0.0:  # NaN included
        raise DomainError("z must be nonnegative")
    if z > sys.float_info.max:  # inf (it gave nan at rho = 0, else inf), or an int past the float range
        raise DomainError("z must be finite")
    r2 = rho * rho
    square = 4.0 * r2 * z / (1.0 - r2) ** 2
    if square == math.inf:  # t^2 overflows, t = 2 |rho| sqrt(z) / (1 - rho^2) does not
        return 1.0 + math.hypot(1.0, 2.0 * abs(rho) * math.sqrt(z) / (1.0 - r2))
    return 1.0 + math.sqrt(1.0 + square)


def sum_rate_bound_raw(rho: float, d_x: float, d_y: float) -> float:
    """Unclamped sum-rate bound (1/2) log2[(1-rho^2) beta(dx dy) / (2 dx dy)].

    Evaluated as a sum of logs, so it stays finite when the product
    dx dy underflows to zero.
    """
    if not (0.0 < d_x <= 1.0 and 0.0 < d_y <= 1.0):
        raise DomainError("distortions must lie in (0, 1]")
    b, r2 = beta(rho, d_x * d_y), rho * rho  # beta first: it checks rho before log2(1 - r2) meets it
    return 0.5 * (
        math.log2(1.0 - r2) + math.log2(b) - 1.0 - math.log2(d_x) - math.log2(d_y)
    )


def sum_rate_bound(rho: float, d_x: float, d_y: float) -> float:
    """Sum-rate bound clamped below at zero (rates are nonnegative)."""
    return max(0.0, sum_rate_bound_raw(rho, d_x, d_y))


def distortion_of_sum_rate(rho: float, r: float) -> float:
    """Distortion product attained at sum rate r:
    D(r) = 2^(-2r) (1 - rho^2 + rho^2 2^(-2r)).

    Exact inverse of the sum-rate bound: feeding sqrt(D(r)) into each
    distortion slot recovers r (the bound solves this quadratic in
    2^(-2r)).
    """
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    if not r >= 0.0:  # NaN included
        raise DomainError("r must be nonnegative")
    if math.inf > r > sys.float_info.max:  # r = inf gives D = 0; an int past the float range has no float
        raise DomainError("r must be a float or inf: it lies past the float range")
    r2 = rho * rho
    t = 2.0 ** (-2.0 * r)
    return t * (1.0 - r2 + r2 * t)


def region_verdict(rho: float, r_x: float, r_y: float, nu_x: float, nu_y: float) -> RegionVerdict:
    """Per-constraint slacks and membership of (r_x, r_y, nu_x, nu_y) at rho. Raises DomainError, in this order,
    unless rho lies in (-1, 1), the rest are finite, rates >= 0, both nu in (0, 1] with finite bounds, r_x + r_y too."""
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    for name, value in (("r_x", r_x), ("r_y", r_y), ("nu_x", nu_x), ("nu_y", nu_y)):
        if not abs(value) <= sys.float_info.max:  # not math.isfinite: it raises on an int past the float range
            raise DomainError(f"{name} must be finite")
    if r_x < 0.0 or r_y < 0.0:
        raise DomainError("rates must be nonnegative")
    if not (0.0 < nu_x <= 1.0 and 0.0 < nu_y <= 1.0):
        raise DomainError("nu values must lie in (0, 1]")
    r2 = rho * rho
    bound_x = 0.5 * math.log2((1.0 - r2 + r2 * 2.0 ** (-2.0 * r_y)) / nu_x)
    bound_y = 0.5 * math.log2((1.0 - r2 + r2 * 2.0 ** (-2.0 * r_x)) / nu_y)
    for name, nu, bound in (("nu_x", nu_x, bound_x), ("nu_y", nu_y, bound_y)):
        if bound == math.inf:  # the quotient overflowed; its numerator is at least 1 - rho^2 > 0
            raise DomainError(f"{name} = {nu:g} is too small: its per-encoder rate bound is not finite")
    slacks = (r_x - bound_x, r_y - bound_y, r_x + r_y - sum_rate_bound_raw(rho, nu_x, nu_y))
    if not math.isfinite(slacks[2]):  # the bounds are finite: r_x + r_y overflowed
        raise DomainError(f"r_x + r_y = {r_x:g} + {r_y:g} is not finite")
    satisfied = [slack >= -BOUNDARY_TOL for slack in slacks]  # rx, ry, sum: RegionVerdict's field order
    return RegionVerdict(*satisfied, *slacks, inside=all(satisfied))
