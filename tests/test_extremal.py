import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gauss_extremal import extremal
from gauss_extremal.ellipsoid_codec import build_shrunk_matrix, implied_rates, log_unit_ball_volume
from gauss_extremal.errors import CrossCheckFailed, DomainError
from gauss_extremal.extremal import (
    alpha_family_channel,
    dual_functional,
    exponent_tradeoff_min,
    minimizer_equation_residual,
    minkowski_gap,
    nondegenerate_minimizers,
    oohama_gap,
    scalar_dual_closed,
    scalar_dual_oracle,
    scalar_dual_oracle_argmin,
    scalar_extremal_gap,
    vector_dual_lower,
    vector_extremal_forms,
    vector_extremal_gap,
    vector_gap_forms,
)
from gauss_extremal.gauss_model import (
    GaussianAuxChannel,
    GaussianPairModel,
    log_det,
    mutual_information,
)
from gauss_extremal.rate_region import beta, distortion_of_sum_rate
from gauss_extremal.rng import random_pd

from conftest import make_scalar_triple, make_vector_triple


def scalar_channels(cu, cv):
    return (
        GaussianAuxChannel.scalar_corr(cu, "x"),
        GaussianAuxChannel.scalar_corr(cv, "y"),
    )


def reference_scalar_gap(info, r2):
    """The dedicated unit-variance scalar gap, kept as a reference for its
    n = 1 vector form: elementwise over floats or (T,) arrays,

    2^(-2 I(Y;U)) 2^(-2 I(X;V|U)) - (1 - rho^2)
        - rho^2 2^(-2 I(X;U)) 2^(-2 I(Y;V|U)).
    """
    return (
        2.0 ** (-2.0 * (info.i_yu + info.i_xv_given_u))
        - (1.0 - r2)
        - r2 * 2.0 ** (-2.0 * (info.i_xu + info.i_yv_given_u))
    )


def reference_scalar_dual(lam, rho):
    """The dedicated scalar closed form, kept as a reference for its n = 1
    case: (value, branch), the value non-finite where its terms overflow."""
    r2 = rho * rho
    if lam * r2 < 1.0 or r2 == 0.0:
        return 0.0, "zero"
    value = 0.5 * (
        math.log2(r2 * (lam - 1.0) / (1.0 - r2))
        - lam * math.log2((lam - 1.0) / (lam * (1.0 - r2)))
    )
    return value, "active"


def tradeoff_oracle(a1, a2, lam, points=20001, zooms=2):
    """Grid-plus-zoom minimization of max(f(t), 0) - lam*t where f is the
    implicit exponent curve 2^(-2t) = a1 2^(-2 f) + a2. Independent of the
    closed form under test."""
    t_sup = -0.5 * math.log2(a2)

    def objective(t):
        arg = (np.exp2(-2.0 * t) - a2) / a1
        f = np.where(arg > 0.0, -0.5 * np.log2(np.maximum(arg, 1e-300)), np.inf)
        return np.maximum(f, 0.0) - lam * t

    lo, hi = 0.0, min(20.0, t_sup * (1.0 - 1e-12))
    best_t = 0.0
    for _ in range(zooms + 1):
        ts = np.linspace(lo, hi, points)
        vals = objective(ts)
        j = int(np.argmin(vals))
        best_t = ts[j]
        span = (hi - lo) / points
        lo, hi = max(0.0, best_t - 2 * span), min(t_sup * (1.0 - 1e-12), best_t + 2 * span)
    return float(objective(np.array([best_t]))[0])


class TestScalarDualClosed:
    def test_zero_branch_values(self):
        assert scalar_dual_closed(1.0, 0.7).value_bits == 0.0
        assert scalar_dual_closed(5.0, 0.0).value_bits == 0.0
        assert scalar_dual_closed(0.0, 0.9).value_bits == 0.0

    def test_branch_boundary_is_continuous(self):
        # Which side of the threshold the boundary float lands on is
        # rounding luck; both branch values must agree there.
        for rho in (0.3, math.sqrt(0.5), 0.9):
            lam = 1.0 / (rho * rho)
            above = scalar_dual_closed(lam * (1 + 1e-9), rho)
            below = scalar_dual_closed(lam * (1 - 1e-9), rho)
            assert above.branch == "active"
            assert below.branch == "zero" and below.value_bits == 0.0
            assert abs(above.value_bits - below.value_bits) <= 1e-12

    def test_known_value(self):
        expected = 0.5 * (1.0 - 3.0 * math.log2(4.0 / 3.0))
        got = scalar_dual_closed(3.0, math.sqrt(0.5))
        assert abs(got.value_bits - expected) < 1e-14
        assert got.branch == "active" and got.exactness == "exact"

    def test_rejects_negative_lambda(self):
        with pytest.raises(DomainError):
            scalar_dual_closed(-0.1, 0.5)

    @pytest.mark.parametrize("lam,rho", [
        (1e308, 0.9), (1e307, 0.9999999), (2e307, -0.9999999),
        pytest.param(np.float64(1e308), np.float64(0.9), id="float64"),
    ])
    def test_overflow_is_a_domain_error_not_nan(self, lam, rho):
        # Both logarithmic terms overflow and their difference is nan; numpy
        # float64 arguments too, without a numpy overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                scalar_dual_closed(lam, rho)

    def test_matches_dedicated_scalar_formula_bit_for_bit(self):
        # The n = 1 case of the shared closed form, on a grid that holds
        # both float neighbours of every threshold 1/rho^2, rho = 0 and
        # lam = 0; the sign of a zero counts.
        rhos = [0.0, 5e-324, 1e-8, 0.3, 0.5, math.sqrt(0.5), 0.9, 0.999999, 1.0 - 2.0**-53]
        rhos += np.linspace(0.01, 0.99, 40).tolist()
        cases = 0
        for rho in rhos + [-r for r in rhos]:
            r2 = rho * rho
            lams = [0.0, 1e-300, 0.5, 1.0, 1.0 + 2.0**-52, 2.0, 1e300, 1e308]
            lams += np.geomspace(1e-3, 1e6, 60).tolist()
            if r2 > 0.0:
                t = 1.0 / r2
                lams += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf),
                         math.nextafter(math.nextafter(t, 0.0), 0.0), t * 1.5, t * 1e6]
            for lam in lams:
                expect, branch = reference_scalar_dual(lam, rho)
                cases += 1
                if not math.isfinite(expect):
                    with pytest.raises(DomainError, match="not finite"):
                        scalar_dual_closed(lam, rho)
                    continue
                got = scalar_dual_closed(lam, rho)
                assert (got.value_bits.hex(), got.branch) == (expect.hex(), branch), (lam, rho)
        assert cases > 7000

    def test_large_finite_lambda_still_evaluates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = scalar_dual_closed(1e300, 0.9).value_bits
        assert math.isfinite(value) and value < 0.0

    @pytest.mark.parametrize("r2", [0.2, 0.5, 0.8])
    def test_concave_and_nonincreasing(self, r2):
        rho = math.sqrt(r2)
        lams = np.sort(np.concatenate([
            np.linspace(0.0, 1.0 / r2, 10),
            np.geomspace(1.01 / r2, 50.0 / r2, 40),
        ]))
        vals = np.array([scalar_dual_closed(l, rho).value_bits for l in lams])
        assert np.all(np.diff(vals) <= 1e-9)
        slopes = np.diff(vals) / np.diff(lams)
        assert np.all(np.diff(slopes) <= 1e-9)
        assert np.all(vals <= 0.0)


class TestVectorDualLower:
    def test_proportional_identity_zero_branch(self):
        for lam in (0.0, 1.0, 2.0):
            out = vector_dual_lower(lam, np.eye(3), np.eye(3))
            assert out.value_bits == 0.0
            assert out.exactness == "exact"

    def test_dimension_one_reduces_to_scalar(self):
        rho = 0.6
        r2 = rho * rho
        for lam in (0.0, 0.5 / r2, 1.0 / r2, 2.0 / r2, 7.0 / r2):
            vec = vector_dual_lower(lam, [[r2]], [[1.0 - r2]])
            sca = scalar_dual_closed(lam, rho)
            assert abs(vec.value_bits - sca.value_bits) < 1e-12
            if abs(lam * r2 - 1.0) > 1e-9:  # away from the branch point
                assert vec.branch == sca.branch

    @pytest.mark.parametrize("lam,sx,sz", [
        (1e308, 1e300 * np.eye(2), np.eye(2)),
        (3.0, 1e300 * np.eye(2), 1e-300 * np.eye(2)),
    ])
    def test_overflow_is_a_domain_error_not_nan(self, lam, sx, sz):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                vector_dual_lower(lam, sx, sz)

    @pytest.mark.parametrize("sx,sz", [(np.eye(2), np.eye(3)), (np.eye(2), np.ones(2)), ([[1.0]], 1.0)])
    def test_rejects_mismatched_shapes(self, sx, sz):
        with pytest.raises(DomainError, match="share a shape"):
            vector_dual_lower(2.0, sx, sz)

    def test_threshold_continuity(self):
        gen = np.random.default_rng(13)
        sx, sz = random_pd(gen, 4), random_pd(gen, 4)
        n = 4
        root = lambda m: math.exp(log_det(m) / n)
        lam_star = 1.0 + root(sz) / root(sx)
        active = vector_dual_lower(lam_star, sx, sz).value_bits
        zero_form = -(lam_star * n / 2.0) * math.log2(root(sx + sz) / (root(sx) + root(sz)))
        assert abs(active - zero_form) < 1e-9

    def test_exactness_flags(self):
        gen = np.random.default_rng(14)
        sz = random_pd(gen, 3)
        assert vector_dual_lower(3.0, 2.0 * sz, sz).exactness == "exact"
        assert vector_dual_lower(3.0, random_pd(gen, 3), sz).exactness == "lower_bound"

    def test_alpha_family_attains_active_bound(self):
        gen = np.random.default_rng(15)
        sz = random_pd(gen, 4)
        model = GaussianPairModel.vector(2.0 * sz, sz)
        lam = 3.0
        channel, alpha = alpha_family_channel(model, lam)
        assert abs(alpha - 0.5) < 1e-15
        info = mutual_information(model, channel, GaussianAuxChannel.degenerate_on("y"))
        bound = vector_dual_lower(lam, model.sigma_x, model.sigma_z).value_bits
        assert abs(dual_functional(info, lam) - bound) < 1e-9

    def test_value_nonpositive_and_nonincreasing(self):
        gen = np.random.default_rng(26)
        for _ in range(10):
            sx, sz = random_pd(gen, 3), random_pd(gen, 3)
            lams = np.linspace(0.0, 20.0, 30)
            vals = [vector_dual_lower(l, sx, sz).value_bits for l in lams]
            assert all(v <= 1e-12 for v in vals)
            assert all(v2 <= v1 + 1e-9 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("rho", [0.6, 0.9, -0.8, 0.3])
    def test_alpha_family_attains_scalar_dual(self, rho):
        # The channel is built in the scalar model's own X coordinates, so
        # the model it was given certifies F(lam).
        model = GaussianPairModel.scalar(rho)
        for mult in (1.01, 1.5, 3.0, 20.0):
            lam = mult / (rho * rho)
            channel, _ = alpha_family_channel(model, lam)
            info = mutual_information(model, channel, GaussianAuxChannel.degenerate_on("y"))
            assert abs(dual_functional(info, lam) - scalar_dual_closed(lam, rho).value_bits) <= 1e-12

    def test_alpha_family_needs_correlated_scalar_sources(self):
        # rho^2 = 0 for rho = 0 and when it underflows (1e-200); at 1e-160
        # it is subnormal and alpha (1 - rho^2) / rho^2 overflows.
        for rho in (0.0, 1e-200, -1e-200, 1e-160):
            with pytest.raises(DomainError, match="rho = 0"):
                alpha_family_channel(GaussianPairModel.scalar(rho), 3.0)

    def test_alpha_family_needs_lambda_above_one(self):
        for lam in (1.0, 0.5, math.nan):
            with pytest.raises(DomainError, match="exceed 1"):
                alpha_family_channel(GaussianPairModel.scalar(0.6), lam)

    @pytest.mark.parametrize("rho", [0.6, -0.6, 1.0 - 2.0**-53, -(1.0 - 2.0**-53)])
    def test_alpha_family_scalar_target_is_alpha_sigma_z_over_rho_squared(self, rho):
        # The target alpha sigma_z / rho^2 of the one model form, against the
        # scalar target alpha (1 - rho^2) / rho^2 written out.
        model = GaussianPairModel.scalar(rho)
        for mult in (1.01, 1.5, 3.0, 20.0):
            lam = mult / (rho * rho)
            channel, alpha = alpha_family_channel(model, lam)
            target = [[alpha * (1.0 - rho**2) / rho**2]]
            expect = GaussianAuxChannel.for_conditional_cov(model, target, "x")
            assert np.array_equal(channel.noise_cov, expect.noise_cov)

    def test_alpha_family_attains_bound_nonproportional(self):
        gen = np.random.default_rng(16)
        sx, sz = random_pd(gen, 3), random_pd(gen, 3)
        model = GaussianPairModel.vector(sx, sz)
        white = np.linalg.inv(np.linalg.cholesky(sx))
        lam = 1.0 + 1.5 * float(np.linalg.eigvalsh(white @ sz @ white.T).max())
        channel, _ = alpha_family_channel(model, lam)
        info = mutual_information(model, channel, GaussianAuxChannel.degenerate_on("y"))
        bound = vector_dual_lower(lam, sx, sz)
        assert bound.branch == "active"
        assert abs(dual_functional(info, lam) - bound.value_bits) < 1e-9


class TestScalarDualOracle:
    def test_zero_branch_minimum_at_origin(self):
        val, su, sv = scalar_dual_oracle_argmin(1.0, 0.5, 200)
        assert val == 0.0 and su == 0.0 and sv == 0.0

    def test_active_branch_matches_closed_form(self):
        rho = math.sqrt(0.5)
        closed = scalar_dual_closed(3.0, rho).value_bits
        val, su, sv = scalar_dual_oracle_argmin(3.0, rho, 500)
        assert abs(val - closed) < 1e-4
        assert val >= closed - 1e-9
        # (rho_u^2, rho_v^2) = (0.5, 0) is among the grid minima.
        u, v = GaussianAuxChannel.scalar_corr(math.sqrt(0.5), "x"), GaussianAuxChannel.degenerate_on("y")
        model = GaussianPairModel.scalar(rho)
        f = dual_functional(mutual_information(model, u, v), 3.0)
        assert abs(f - val) < 1e-9

    def test_oracle_never_beats_closed_form(self):
        gen = np.random.default_rng(17)
        for _ in range(15):
            rho = gen.uniform(-0.95, 0.95)
            lam = gen.uniform(0.0, 30.0)
            closed = scalar_dual_closed(lam, rho).value_bits
            assert scalar_dual_oracle(lam, rho, 150) >= closed - 1e-9

    def test_error_halves_as_resolution_doubles(self):
        # The minimum sits on a curve, so grid minima are noisy but the
        # error envelope contracts at least geometrically.
        for r2, mult in ((0.6, 2.5), (0.35, 4.0)):
            rho = math.sqrt(r2)
            lam = mult / r2
            closed = scalar_dual_closed(lam, rho).value_bits
            errs = [scalar_dual_oracle(lam, rho, res) - closed for res in (200, 400, 800)]
            assert all(e >= -1e-9 for e in errs)
            for coarse, fine in zip(errs, errs[1:]):
                assert fine <= max(coarse / 2.0, 5e-10)

    def test_rejects_small_grid(self):
        with pytest.raises(DomainError):
            scalar_dual_oracle(1.0, 0.5, 99)

    def test_rejects_grid_above_the_cap(self, monkeypatch):
        # The scan is stubbed: the largest accepted grid reaches it, and
        # nothing is allocated for either grid.
        monkeypatch.setattr(extremal, "_oracle_scan", lambda lam, rho, resolution: (0.0, 0.0, 0.0))
        assert scalar_dual_oracle(1.0, 0.5, extremal._ORACLE_MAX_GRID) == 0.0
        with pytest.raises(DomainError, match="grid_resolution"):
            scalar_dual_oracle(1.0, 0.5, extremal._ORACLE_MAX_GRID + 1)


def full_scan_oracle(lam, rho, resolution):
    """Reference for the grid oracle: every cell, 512 rows at a time, with
    the oracle's per-cell arithmetic. np.argmin and the strict comparison
    across chunks keep the first minimum in row-major order, the smallest
    (rho_u^2, rho_v^2)."""
    r2 = rho * rho
    s = extremal._oracle_axis(resolution)
    gu = -0.5 * np.log2(1.0 - s) + (lam / 2.0) * np.log2(1.0 - r2 * s)
    best, best_u, best_v = math.inf, 0.0, 0.0
    for lo in range(0, s.size, 512):
        g = gu[lo : lo + 512, None] + gu[None, :]
        if lam != 1.0:
            g = g - ((lam - 1.0) / 2.0) * np.log2(1.0 - r2 * np.outer(s[lo : lo + 512], s))
        flat = int(np.argmin(g))
        if g.flat[flat] < best:
            iu, iv = divmod(flat, s.size)
            best, best_u, best_v = float(g.flat[flat]), float(s[lo + iu]), float(s[iv])
    return best, best_u, best_v


def oracle_cases(grid, count, seed):
    """Seeded (lam, rho) pairs: one of each kind of lam per draw of rho,
    rho of either sign, and rho = 0."""
    gen = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        rho = 0.0 if k == 0 else float(gen.uniform(0.05, 0.999) * gen.choice((-1.0, 1.0)))
        inv = 1.0 / (rho * rho) if rho else 1e3
        cases += [
            (0.0, rho),
            (float(gen.uniform(0.0, 1.0)), rho),
            (1.0, rho),
            (float(gen.uniform(1.0, inv)), rho),  # zero branch, lam > 1
            (float(inv * gen.uniform(1.0, 30.0)), rho),  # active branch
            (float(10.0 ** gen.uniform(3.0, 200.0)), rho),
        ]
    return [(lam, rho, grid) for lam, rho in cases]


def bench_shaped_cases(count, seed):
    """Seeded (lam, rho, 2000) shaped like the benchmark's dual table:
    rho^2 in [0.2, 0.8], lam rho^2 in [0, 0.95] and in [1.01, 30]."""
    gen = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        r2 = float(gen.uniform(0.2, 0.8))
        rho = math.sqrt(r2) * float(gen.choice((-1.0, 1.0)))
        below = float(gen.uniform(0.0, 0.95)) / r2
        above = math.exp(float(gen.uniform(math.log(1.01), math.log(30.0)))) / r2
        cases += [(below, rho, 2000), (above, rho, 2000)]
    return cases


def heavy_active_cases(count, seed):
    """Seeded (lam, rho, grid) deep in the active branch, lam rho^2 in [10, 30]:
    the rows whose search evaluates the most tiles."""
    gen = np.random.default_rng(seed)
    cases = []
    for grid in (500, 2000):
        for _ in range(count):
            r2 = float(gen.uniform(0.05, 0.95))
            rho = math.sqrt(r2) * float(gen.choice((-1.0, 1.0)))
            cases.append((float(gen.uniform(10.0, 30.0)) / r2, rho, grid))
    return cases


def traced_peak_bytes(call):
    """tracemalloc peak of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_peak_bytes(lam, rho, grid):
    """tracemalloc peak of one oracle call, after a warm-up call."""
    scalar_dual_oracle(lam, rho, grid)
    return traced_peak_bytes(lambda: scalar_dual_oracle(lam, rho, grid))


# Grids whose axis is a whole number of tiles (320 and 1280 cells), and
# grids whose last tile overlaps its neighbour (319 and 1279 cells).
WHOLE_TILE_GRIDS, OVERLAP_TILE_GRIDS = (257, 1025), (256, 1024)
# A grid whose axis is an odd number of tiles (352 cells, 11 tiles), so not
# a whole number of tiles twice the size.
ODD_TILE_GRIDS = (283,)


class TestOracleEqualsFullScan:
    """The branch and bound evaluates each cell as the full scan does and
    breaks ties the same way, so value and argmin are equal, not close."""

    @pytest.mark.parametrize(
        "lam,rho,grid",
        oracle_cases(100, 4, 61) + oracle_cases(150, 4, 62) + oracle_cases(500, 3, 63)
        + oracle_cases(2000, 2, 64) + [(1e200, 0.5, 2000), (1e200, -0.99, 500)]
        + bench_shaped_cases(4, 65)
        + [case for k, grid in enumerate(WHOLE_TILE_GRIDS + OVERLAP_TILE_GRIDS + ODD_TILE_GRIDS)
           for case in oracle_cases(grid, 2, 66 + k)]
        + heavy_active_cases(4, 72),
    )
    def test_value_and_argmin_equal(self, lam, rho, grid):
        got = scalar_dual_oracle_argmin(lam, rho, grid)
        want = full_scan_oracle(lam, rho, grid)
        assert got == want
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])

    def test_tile_edge_grids(self):
        tile = extremal._ORACLE_TILE
        assert all(extremal._oracle_axis(grid).size % tile == 0 for grid in WHOLE_TILE_GRIDS)
        assert all(extremal._oracle_axis(grid).size % tile != 0 for grid in OVERLAP_TILE_GRIDS)
        sizes = [extremal._oracle_axis(grid).size for grid in ODD_TILE_GRIDS]
        assert all(size % tile == 0 and size % (2 * tile) != 0 for size in sizes)

    @pytest.mark.parametrize("lam,rho,grid", oracle_cases(150, 3, 70) + bench_shaped_cases(2, 71))
    def test_cells_are_symmetric_bit_for_bit(self, lam, rho, grid):
        # Cell (i, j) equals cell (j, i) in every bit, as + and x commute
        # exactly: the premise of searching only tile pairs (a, b), a <= b.
        s = extremal._oracle_axis(grid)
        r2 = rho * rho
        gu = -0.5 * np.log2(1.0 - s) + (lam / 2.0) * np.log2(1.0 - r2 * s)
        g = gu[:, None] + gu[None, :]
        if lam != 1.0:
            g = g - ((lam - 1.0) / 2.0) * np.log2(1.0 - r2 * np.outer(s, s))
        assert np.array_equal(g.view(np.int64), g.T.view(np.int64))

    @pytest.mark.parametrize("lam,rho", [(3.0, math.sqrt(0.5)), (12.0, -0.6), (1e6, 0.5)])
    def test_tie_breaks_toward_smallest_cell(self, lam, rho):
        # The functional is symmetric in (rho_u^2, rho_v^2) and the grid is
        # one axis, so a minimum off the diagonal ties with its mirror image.
        s = extremal._oracle_axis(150)
        r2 = rho * rho
        gu = -0.5 * np.log2(1.0 - s) + (lam / 2.0) * np.log2(1.0 - r2 * s)
        g = gu[:, None] + gu[None, :] - ((lam - 1.0) / 2.0) * np.log2(1.0 - r2 * np.outer(s, s))
        ties = np.argwhere(g == g.min())
        assert len(ties) >= 2
        iu, iv = min(map(tuple, ties))
        assert scalar_dual_oracle_argmin(lam, rho, 150) == (float(g.min()), float(s[iu]), float(s[iv]))

    @pytest.mark.parametrize("lam,rho", [(30.0, 0.7), (1e200, -0.99), (0.5, 0.7)])
    def test_peak_memory_within_budget(self, lam, rho):
        # One 512-row chunk of the full grid at resolution 2000 is
        # 512 x 2500 doubles, 10 MB per temporary; after the first tile the
        # tiles are evaluated in one work buffer of 2 x 64 x 32 x 32
        # doubles, 1 MB, and the whole call measured 1.34 MB at most.
        peak = oracle_peak_bytes(lam, rho, 2000)
        assert peak < 3e6, peak

    @pytest.mark.parametrize("lam,rho", [(30.0, 0.7), (1e200, -0.99), (0.5, 0.7)])
    def test_cold_call_within_budget(self, lam, rho):
        # A call that builds its resolution's plan first: measured 1.44 MB at most.
        extremal._oracle_plan.cache_clear()
        peak = traced_peak_bytes(lambda: scalar_dual_oracle(lam, rho, 2000))
        assert peak < 3e6, peak

    @pytest.mark.parametrize("lam,rho", [(0.0, 0.5), (0.5, 0.7), (1.0, 0.5), (1.5, 0.5), (1.9, -0.7)])
    def test_zero_branch_call_allocates_no_batch(self, lam, rho):
        # On the zero branch the first tile pair ends the search, so no
        # batch work buffer (1 MB) is allocated: the call measured 0.24 MB.
        peak = oracle_peak_bytes(lam, rho, 2000)
        assert peak < 5e5, peak

    @pytest.mark.parametrize("lam,rho", [(1e308, 0.9), (3e307, 0.9999999), (2e307, -0.9999999)])
    def test_overflow_is_a_domain_error(self, lam, rho):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="too large"):
                scalar_dual_oracle(lam, rho, 100)

    def test_largest_finite_case_still_evaluates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = scalar_dual_oracle(1e308, 0.5, 100)
        assert math.isfinite(value) and value < 0.0


# Cases of each kind, their resolutions interleaved so that the cache
# holds other resolutions' plans between calls at 2000.
INTERLEAVED_CASES = (
    oracle_cases(ODD_TILE_GRIDS[0], 2, 80) + bench_shaped_cases(2, 81)
    + oracle_cases(OVERLAP_TILE_GRIDS[0], 2, 82)
    + [(lam, rho, 2000) for lam, rho, _ in heavy_active_cases(2, 83)]
    + oracle_cases(WHOLE_TILE_GRIDS[1], 2, 84)
)


class TestOraclePlan:
    """The per-resolution plan is built once, cannot be written and changes no result."""

    @pytest.mark.parametrize("grid", [100, 283, 2000])
    def test_plan_is_cached(self, grid):
        assert extremal._oracle_plan(grid) is extremal._oracle_plan(grid)

    @pytest.mark.parametrize("grid", [100, 256, 1025])
    def test_plan_is_read_only(self, grid):
        plan = extremal._oracle_plan(grid)
        assert len(plan) == 7 and all(not array.flags.writeable for array in plan)
        with pytest.raises(ValueError):
            plan.g0[0] = 0.0

    @pytest.mark.parametrize("grid", [100, 256, 257, 283, 2000, 10**5])
    def test_plan_axis_is_the_axis_bit_for_bit(self, grid):
        extremal._oracle_plan.cache_clear()
        s = extremal._oracle_axis(grid)
        assert np.array_equal(extremal._oracle_plan(grid).s.view(np.int64), s.view(np.int64))

    def test_cold_and_warm_cache_give_the_same_tuples(self):
        assert [grid for grid, _ in itertools.groupby(case[2] for case in INTERLEAVED_CASES)] == [
            283, 2000, 256, 2000, 1025]
        cold = []
        for case in INTERLEAVED_CASES:
            extremal._oracle_plan.cache_clear()
            cold.append(scalar_dual_oracle_argmin(*case))
        extremal._oracle_plan.cache_clear()
        first = [scalar_dual_oracle_argmin(*case) for case in INTERLEAVED_CASES]
        hits = extremal._oracle_plan.cache_info().hits
        warm = [scalar_dual_oracle_argmin(*case) for case in INTERLEAVED_CASES]
        assert extremal._oracle_plan.cache_info().hits == hits + len(INTERLEAVED_CASES)
        assert cold == first == warm

    def test_full_scan_reference_never_reads_the_plan(self, monkeypatch):
        lam, rho, grid = INTERLEAVED_CASES[10]  # grid 283, active branch
        want = scalar_dual_oracle_argmin(lam, rho, grid)

        def plan(resolution):
            raise AssertionError("the reference read the plan")

        monkeypatch.setattr(extremal, "_oracle_plan", plan)
        assert full_scan_oracle(lam, rho, grid) == want

    def test_plan_at_the_cap_is_small(self):
        # O(grid) arrays, measured 5.1 MB at 10^5; caching (tiles x tiles)
        # data would take 122 MB per array there.
        extremal._oracle_plan.cache_clear()
        try:
            peak = traced_peak_bytes(lambda: extremal._oracle_plan(10**5))
        finally:
            extremal._oracle_plan.cache_clear()
        assert peak < 16e6, peak


class TestNondegenerateMinimizers:
    def test_hand_solved_endpoint(self):
        pairs = nondegenerate_minimizers(3.0, math.sqrt(0.5), 10)
        assert pairs, "expected solutions on the active branch"
        assert abs(pairs[0].rho_u - math.sqrt(0.5)) < 1e-12
        assert pairs[0].rho_v == 0.0

    def test_pairs_satisfy_equation_and_attain_dual_value(self):
        rho = math.sqrt(0.5)
        lam = 3.0
        model = GaussianPairModel.scalar(rho)
        closed = scalar_dual_closed(lam, rho).value_bits
        pairs = nondegenerate_minimizers(lam, rho, 15)
        assert len(pairs) >= 10
        for p in pairs:
            assert abs(minimizer_equation_residual(rho, lam, p.rho_u, p.rho_v)) < 1e-10
            info = mutual_information(model, *scalar_channels(p.rho_u, p.rho_v))
            assert abs(dual_functional(info, lam) - closed) < 1e-9

    def test_equation_is_symmetric(self):
        for p in nondegenerate_minimizers(4.0, 0.8, 8):
            assert abs(minimizer_equation_residual(0.8, 4.0, p.rho_v, p.rho_u)) < 1e-10

    def test_empty_below_threshold(self):
        assert nondegenerate_minimizers(1.5, 0.5, 10) == []

    def test_rejects_zero_rho(self):
        with pytest.raises(DomainError):
            nondegenerate_minimizers(3.0, 0.0, 10)


class TestExponentTradeoffMin:
    def test_branch_boundary_is_zero(self):
        a1, a2 = 0.4, 0.6
        lam = (a1 + a2) / a1
        assert abs(exponent_tradeoff_min(a1, a2, lam)) < 1e-12

    def test_zero_lambda(self):
        assert exponent_tradeoff_min(0.3, 0.5, 0.0) == 0.0

    def test_matches_implicit_oracle(self):
        val = exponent_tradeoff_min(0.3, 0.5, 4.0)
        assert abs(val - tradeoff_oracle(0.3, 0.5, 4.0)) < 1e-6

    def test_overflow_is_a_domain_error_not_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                exponent_tradeoff_min(0.5, 1e-300, 1e308)
            with pytest.raises(DomainError, match="not finite"):
                exponent_tradeoff_min(np.float64(0.5), np.float64(1e-300), np.float64(1e308))

    def test_rejects_invalid_weights(self):
        with pytest.raises(DomainError):
            exponent_tradeoff_min(0.7, 0.5, 2.0)
        with pytest.raises(DomainError):
            exponent_tradeoff_min(0.0, 0.5, 2.0)


class TestMinkowskiGap:
    def test_proportional_equality(self):
        assert abs(minkowski_gap(np.eye(2), np.eye(2))) < 1e-14

    def test_hand_arithmetic(self):
        gap = minkowski_gap(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
        assert abs(gap - 1.0) < 1e-12

    def test_randomized_nonnegative(self):
        gen = np.random.default_rng(18)
        for _ in range(200):
            n = int(gen.integers(1, 7))
            assert minkowski_gap(random_pd(gen, n), random_pd(gen, n)) >= -1e-10

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DomainError):
            minkowski_gap(np.eye(2), np.eye(3))


class TestGapFunctionals:
    def test_scalar_gap_degenerate_is_zero(self):
        u = GaussianAuxChannel.degenerate_on("x")
        v = GaussianAuxChannel.degenerate_on("y")
        assert abs(scalar_extremal_gap(0.5, u, v)) < 1e-15

    def test_scalar_gap_independent_sources(self):
        u, v = scalar_channels(0.7, 0.4)
        assert abs(scalar_extremal_gap(0.0, u, v)) < 1e-12

    def test_scalar_gap_direct_evaluation(self):
        rho, cu, cv = 0.7, 0.6, 0.3
        u, v = scalar_channels(cu, cv)
        gap = scalar_extremal_gap(rho, u, v)
        r2 = rho * rho
        i_yu = -0.5 * math.log2(1.0 - r2 * cu * cu)
        i_xu = -0.5 * math.log2(1.0 - cu * cu)
        i_uv = -0.5 * math.log2(1.0 - r2 * cu * cu * cv * cv)
        i_xv = -0.5 * math.log2(1.0 - r2 * cv * cv)
        i_yv = -0.5 * math.log2(1.0 - cv * cv)
        direct = (
            2.0 ** (-2.0 * (i_yu + i_xv - i_uv))
            - (1.0 - r2)
            - r2 * 2.0 ** (-2.0 * (i_xu + i_yv - i_uv))
        )
        assert abs(gap - direct) < 1e-12
        assert gap >= -1e-12

    def test_vector_gap_equality_family(self):
        gen = np.random.default_rng(19)
        sz = random_pd(gen, 4)
        model = GaussianPairModel.vector(2.0 * sz, sz)
        channel, _ = alpha_family_channel(model, 3.0)
        gap = vector_extremal_gap(model, channel, GaussianAuxChannel.degenerate_on("y"))
        assert abs(gap) < 1e-9

    def test_vector_gap_randomized_falsification(self):
        gen = np.random.default_rng(20)
        for _ in range(300):
            model, u, v = make_vector_triple(gen, n=int(gen.integers(2, 6)))
            assert vector_extremal_gap(model, u, v) >= -1e-9

    def test_both_exponent_forms_are_consistent(self):
        gen = np.random.default_rng(21)
        for _ in range(100):
            model, u, v = make_vector_triple(gen, n=3)
            gap_cond, gap_uncond, info = vector_extremal_forms(model, u, v)
            scale = 2.0 ** (-2.0 * info.i_uv / model.n)
            assert abs(gap_uncond - gap_cond * scale) <= 1e-10

    def test_diverging_exponent_forms_raise(self, monkeypatch):
        # A Markov-identity violation (I(U;V) off by 0.1 bit) must raise, not
        # pass silently as an assert would under python -O.
        real = extremal._triple_batch

        def broken(model, u, v):
            info, ld = real(model, u, v)
            return dataclasses.replace(info, i_uv=info.i_uv + 0.1), ld

        monkeypatch.setattr(extremal, "_triple_batch", broken)
        model, u, v = make_vector_triple(np.random.default_rng(26), n=3, allow_degenerate=False)
        with pytest.raises(CrossCheckFailed, match="exponent forms diverged"):
            vector_extremal_forms(model, u, v)

    def test_diverging_exponent_forms_name_the_sample(self):
        gen = np.random.default_rng(27)
        infos = [mutual_information(*make_vector_triple(gen, n=2, allow_degenerate=False)) for _ in range(4)]
        batch = {name: np.array([getattr(i, name) for i in infos]) for name in infos[0].__dataclass_fields__}
        ratio = np.full(4, 0.5)
        vector_gap_forms(type(infos[0])(**batch), 2, ratio)
        batch["i_uv"][2] += 0.1
        with pytest.raises(CrossCheckFailed, match="at sample 2"):
            vector_gap_forms(type(infos[0])(**batch), 2, ratio)

    def test_scalar_and_vector_paths_agree(self):
        # The scalar gap is the n = 1 vector gap; the dedicated scalar
        # formula differs from it by rounding only.
        gen = np.random.default_rng(22)
        for _ in range(200):
            model, u, v = make_scalar_triple(gen)
            expect = reference_scalar_gap(mutual_information(model, u, v), model.rho * model.rho)
            assert abs(scalar_extremal_gap(model.rho, u, v) - expect) <= 1e-15
            no_v = GaussianAuxChannel.degenerate_on("y")
            expect = reference_scalar_gap(mutual_information(model, u, no_v), model.rho * model.rho)
            assert abs(oohama_gap(model, u) - expect) <= 1e-15

    def test_oohama_gap_scalar_cases(self):
        model = GaussianPairModel.scalar(0.6)
        assert abs(oohama_gap(model, GaussianAuxChannel.degenerate_on("x"))) < 1e-15
        u = GaussianAuxChannel.scalar_corr(0.7, "x")
        sg = scalar_extremal_gap(0.6, u, GaussianAuxChannel.degenerate_on("y"))
        assert abs(oohama_gap(model, u) - sg) < 1e-12

    def test_oohama_gap_independent_sources_is_zero(self):
        u = GaussianAuxChannel.scalar_corr(0.7, "x")
        assert abs(oohama_gap(GaussianPairModel.scalar(0.0), u)) <= 1e-15

    def test_oohama_gap_vector_equality_family(self):
        gen = np.random.default_rng(23)
        sz = random_pd(gen, 4)
        model = GaussianPairModel.vector(3.0 * sz, sz)
        for alpha in (0.25, 1.0, 2.0):
            u = GaussianAuxChannel.for_conditional_cov(model, alpha * sz, "x")
            assert abs(oohama_gap(model, u)) < 1e-9

    def test_oohama_gap_strictly_positive_off_family(self):
        gen = np.random.default_rng(42)
        sx, sz = random_pd(gen, 3), random_pd(gen, 3)
        model = GaussianPairModel.vector(sx, sz)
        u = GaussianAuxChannel.for_conditional_cov(model, 0.5 * sx, "x")
        assert oohama_gap(model, u) > 1e-6


class TestDualityConsistency:
    def test_functional_dominates_closed_form(self):
        gen = np.random.default_rng(24)
        for _ in range(300):
            model, u, v = make_scalar_triple(gen)
            lam = gen.uniform(0.0, 25.0)
            info = mutual_information(model, u, v)
            closed = scalar_dual_closed(lam, model.rho).value_bits
            assert dual_functional(info, lam) >= closed - 1e-9

    def test_vector_functional_dominates_lower_bound(self):
        gen = np.random.default_rng(25)
        for _ in range(150):
            model, u, v = make_vector_triple(gen, n=int(gen.integers(2, 5)))
            lam = gen.uniform(0.0, 15.0)
            info = mutual_information(model, u, v)
            bound = vector_dual_lower(lam, model.sigma_x, model.sigma_z).value_bits
            assert dual_functional(info, lam) >= bound - 1e-9


NAN = float("nan")


@pytest.mark.parametrize("func, args, message", [
    pytest.param(distortion_of_sum_rate, (1.5, 1.0), "rho must lie in", id="distortion-rho-1.5"),
    pytest.param(distortion_of_sum_rate, (NAN, 1.0), "rho must lie in", id="distortion-rho-nan"),
    pytest.param(distortion_of_sum_rate, (0.5, -1.0), "r must be nonnegative", id="distortion-r-negative"),
    pytest.param(distortion_of_sum_rate, (0.5, NAN), "r must be nonnegative", id="distortion-r-nan"),
    pytest.param(beta, (0.5, NAN), "z must be nonnegative", id="beta-z-nan"),
    pytest.param(nondegenerate_minimizers, (NAN, 0.5), "lam must be nonnegative", id="minimizers-lam-nan"),
    pytest.param(scalar_dual_closed, (NAN, 0.5), "lam must be nonnegative", id="closed-lam-nan"),
    pytest.param(scalar_dual_oracle, (NAN, 0.5), "lam must be nonnegative", id="oracle-lam-nan"),
    pytest.param(scalar_dual_oracle_argmin, (NAN, 0.5), "lam must be nonnegative", id="oracle-argmin-lam-nan"),
    pytest.param(vector_dual_lower, (NAN, np.eye(2), np.eye(2)), "lam must be nonnegative", id="vector-lam-nan"),
    pytest.param(exponent_tradeoff_min, (0.3, 0.5, NAN), "lam must be nonnegative", id="tradeoff-lam-nan"),
    pytest.param(exponent_tradeoff_min, (NAN, 0.5, 1.0), "a1 and a2 must be positive", id="tradeoff-a1-nan"),
    pytest.param(build_shrunk_matrix, (np.eye(3), np.ones((1, 3)), NAN), "delta must be positive", id="shrunk-delta-nan"),
    pytest.param(implied_rates, (NAN, 0.3, 0.3, 1.0, 1.0), "rho must lie in", id="rates-rho-nan"),
    pytest.param(implied_rates, (0.5, NAN, 0.3, 1.0, 1.0), "nu_x must lie in", id="rates-nu-nan"),
    pytest.param(implied_rates, (0.5, 0.3, 0.3, 1.0, NAN), "noise levels must be positive", id="rates-q-nan"),
    pytest.param(log_unit_ball_volume, (NAN,), "n must be an integer", id="log-ball-n-nan"),
    pytest.param(log_unit_ball_volume, (2.5,), "n must be an integer", id="log-ball-n-2.5"),
    pytest.param(scalar_dual_oracle, (2.0, 0.6, 500.7), "grid_resolution must be an integer", id="oracle-grid-500.7"),
    pytest.param(nondegenerate_minimizers, (3.0, 0.8, 2.5), "count must be a positive integer", id="minimizers-count-2.5"),
])
def test_out_of_domain_and_nan_inputs_are_domain_errors(func, args, message):
    # Each used to return a number (a NaN, a negative distortion, an empty
    # list, a NaN matrix, a grid-500 value for grid 500.7), to blame lam as
    # too large, or to escape as a numpy TypeError or ValueError.
    with pytest.raises(DomainError, match=message):
        func(*args)
