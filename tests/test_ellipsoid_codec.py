import math
from fractions import Fraction

import numpy as np
import pytest

from gauss_extremal import ellipsoid_codec
from gauss_extremal.errors import DegenerateShrinkage, DomainError, Infeasible, NotPositiveDefinite
from gauss_extremal.ellipsoid_codec import (
    CodecConfig,
    Ellipsoid,
    build_shrunk_matrix,
    ellipsoid_volume,
    implied_rates,
    log_unit_ball_volume,
    report_to_dict,
    run_simulation,
    simulate_descriptions,
    solve_noise_levels,
    trials_csv_rows,
    unit_ball_volume,
)
from gauss_extremal.gauss_model import log_det
from gauss_extremal.rng import STREAM_NOISE_X, STREAM_NOISE_Y, STREAM_SOURCE, random_pd, stream


class TestUnitBallVolume:
    def test_disk_and_ball(self):
        assert abs(unit_ball_volume(2) - math.pi) < 1e-14
        assert abs(unit_ball_volume(3) - 4.0 * math.pi / 3.0) < 1e-14

    def test_log_form_is_consistent(self):
        for n in (1, 2, 5, 10):
            assert abs(math.exp(log_unit_ball_volume(n)) - unit_ball_volume(n)) < 1e-12

    def test_stirling_limit(self):
        target = math.sqrt(2.0 * math.pi * math.e)
        errs = [
            abs(math.sqrt(n) * math.exp(log_unit_ball_volume(n) / n) - target)
            for n in (64, 256, 1024, 4096)
        ]
        assert errs[-1] <= 0.05
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_rejects_zero_dimension(self):
        with pytest.raises(DomainError):
            unit_ball_volume(0)


class TestEllipsoidVolume:
    def test_unit_disk(self):
        e = Ellipsoid(np.eye(2), np.zeros(2))
        assert abs(ellipsoid_volume(e) - math.pi) < 1e-14

    def test_scaling(self):
        e = Ellipsoid(2.0 * np.eye(2), np.zeros(2))
        assert abs(ellipsoid_volume(e) - math.pi / 4.0) < 1e-14

    def test_against_rejection_sampling(self):
        gen = np.random.default_rng(40)
        a = np.eye(5) + 0.3 * (lambda m: 0.5 * (m + m.T))(gen.standard_normal((5, 5)))
        b = gen.standard_normal(5) * 0.2
        e = Ellipsoid(a, b)
        vol = ellipsoid_volume(e)
        # Bounding box of the ellipsoid: center A^{-1} b, half-widths given
        # by the row norms of A^{-1}.
        a_inv = np.linalg.inv(a)
        center = a_inv @ b
        half = np.linalg.norm(a_inv, axis=1)
        n_samples = 1_000_000
        pts = center + (gen.uniform(-1.0, 1.0, size=(n_samples, 5)) * half)
        frac = float(np.mean(e.contains(pts)))
        box = float(np.prod(2.0 * half))
        assert abs(frac * box - vol) / vol < 0.05

    def test_rejects_indefinite_matrix(self):
        e = Ellipsoid(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))
        with pytest.raises(NotPositiveDefinite):
            ellipsoid_volume(e)

    def test_membership_is_exact_at_boundary(self):
        e = Ellipsoid(np.eye(2), np.zeros(2))
        assert e.contains([1.0, 0.0])
        assert not e.contains([1.0 + 1e-12, 0.0])

    def test_scaling_shrinks_volume_and_covered_set(self):
        gen = np.random.default_rng(41)
        a = random_pd(gen, 3)
        s = 1.7
        e1 = Ellipsoid(a, np.zeros(3))
        e2 = Ellipsoid(s * a, np.zeros(3))
        assert abs(ellipsoid_volume(e2) - ellipsoid_volume(e1) / s**3) < 1e-12
        pts = gen.standard_normal((2000, 3))
        inside2 = e2.contains(pts)
        inside1 = e1.contains(pts)
        assert np.all(inside1[inside2])

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            Ellipsoid(np.eye(2), np.zeros(3))


class TestSolveNoiseLevels:
    def test_independent_sources_closed_form(self):
        for nu in (0.2, 0.5, 0.9):
            q_x, q_y = solve_noise_levels(0.0, nu, nu)
            assert abs(q_x - nu / (1.0 - nu)) < 1e-12
            assert abs(q_y - nu / (1.0 - nu)) < 1e-12

    def test_targets_are_met(self):
        gen = np.random.default_rng(50)
        checked = 0
        while checked < 200:
            rho = gen.uniform(-0.95, 0.95)
            nu_x = gen.uniform(0.02, 0.98)
            nu_y = gen.uniform(0.02, 0.98)
            r2 = rho * rho
            if nu_y >= 1.0 - r2 * (1.0 - nu_x) or nu_x >= 1.0 - r2 * (1.0 - nu_y):
                continue
            checked += 1
            q_x, q_y = solve_noise_levels(rho, nu_x, nu_y)
            det = (1.0 + q_x) * (1.0 + q_y) - r2
            m_x = q_x * (1.0 + q_y - r2) / det
            m_y = q_y * (1.0 + q_x - r2) / det
            assert abs(m_x - nu_x) < 1e-9
            assert abs(m_y - nu_y) < 1e-9

    def test_infeasible_targets_raise(self):
        # A loose Y target that the X description alone already beats.
        with pytest.raises(Infeasible):
            solve_noise_levels(math.sqrt(0.96), 0.1, 0.9)
        # Feasible, but the noise level of a subnormal target underflows to 0.
        with pytest.raises(Infeasible, match="underflows"):
            solve_noise_levels(0.9999999999999999, 1e-320, 1e-16)

    def test_pure_degenerate_limit(self):
        q_x, q_y = solve_noise_levels(0.5, 1.0, 1.0)
        assert math.isinf(q_x) and math.isinf(q_y)

    def test_closed_form_matches_bisection_reference(self):
        gen = np.random.default_rng(52)
        rhos = [-0.999999, -0.99, -0.6, -1e-3, 0.0, 1e-3, 0.3, 0.9, 0.999999, *gen.uniform(-1, 1, 12)]
        nus = [1e-6, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0, *gen.uniform(0, 1, 6)]
        outcomes = {"solved": 0, "Infeasible": 0}
        for rho in rhos:
            # The bisection's own error grows like 1e-16 / (1 - rho^2).
            tol = 1e-11 if abs(rho) <= 0.999 else 1e-7
            for nu_x in nus:
                for nu_y in nus:
                    try:
                        expect = reference_noise_levels(rho, nu_x, nu_y)
                    except Infeasible as exc:
                        with pytest.raises(Infeasible, match=str(exc)):
                            solve_noise_levels(rho, nu_x, nu_y)
                        outcomes["Infeasible"] += 1
                        continue
                    got = solve_noise_levels(rho, nu_x, nu_y)
                    for q, ref in zip(got, expect):
                        assert q == ref or abs(q - ref) <= tol * ref, (rho, nu_x, nu_y, got, expect)
                    assert target_residual(rho, nu_x, nu_y, *got) <= 5e-11, (rho, nu_x, nu_y)
                    outcomes["solved"] += 1
        assert min(outcomes.values()) > 500, outcomes

    def test_near_boundary_targets_are_solved(self):
        # One target within 1e-16 to 1e-8 relative of the largest the other
        # description allows; the bisection fails to bracket some of these.
        gen = np.random.default_rng(53)
        solved = 0
        for side in ("x", "y"):
            for _ in range(1000):
                rho, nu = gen.uniform(-1, 1), gen.uniform(0, 1)
                r2 = rho * rho
                near = (1.0 - r2 * (1.0 - nu)) * (1.0 - 10.0 ** gen.uniform(-16, -8))
                nu_x, nu_y = (near, nu) if side == "x" else (nu, near)
                g_x = (1.0 - r2 * (1.0 - nu_y)) - nu_x
                g_y = (1.0 - r2 * (1.0 - nu_x)) - nu_y
                if g_x <= 0.0 or g_y <= 0.0:
                    with pytest.raises(Infeasible, match="no additive-noise pair"):
                        solve_noise_levels(rho, nu_x, nu_y)
                    continue
                assert target_residual(rho, nu_x, nu_y, *solve_noise_levels(rho, nu_x, nu_y)) <= 5e-11
                solved += 1
        assert solved > 1500


def target_residual(rho, nu_x, nu_y, q_x, q_y):
    """Exact largest relative error of Var(X|U,V) and Var(Y|U,V) against the
    targets, for the float inputs taken as exact rationals."""
    r2 = Fraction(rho) ** 2
    c = 1 - r2
    p_x, p_y = (Fraction(0) if math.isinf(q) else 1 / Fraction(q) for q in (q_x, q_y))
    det = (1 + p_x) * (1 + p_y) - r2 * p_x * p_y
    return float(max(abs((1 + c * p_y) / det / Fraction(nu_x) - 1), abs((1 + c * p_x) / det / Fraction(nu_y) - 1)))


def reference_noise_levels(rho, nu_x, nu_y):
    """The noise levels by bracketing and 200 bisection halvings, for rho
    and targets in range: an independent reference for the closed form."""
    r2 = rho * rho
    if nu_x == 1.0 and nu_y == 1.0:
        return math.inf, math.inf
    if r2 == 0.0:
        return tuple(math.inf if nu == 1.0 else nu / (1.0 - nu) for nu in (nu_x, nu_y))
    if nu_y >= 1.0 - r2 * (1.0 - nu_x) or nu_x >= 1.0 - r2 * (1.0 - nu_y):
        raise Infeasible("no additive-noise pair attains both targets")

    def mse_pair(q_x, q_y):
        det = (1.0 + q_x) * (1.0 + q_y) - r2
        return q_x * (1.0 + q_y - r2) / det, q_y * (1.0 + q_x - r2) / det

    def q_x_for(q_y):
        denom = (1.0 - nu_x) * (1.0 + q_y) - r2
        return math.inf if denom <= 0.0 else nu_x * (1.0 + q_y - r2) / denom

    def excess_y(q_y):
        q_x = q_x_for(q_y)
        return (q_y / (1.0 + q_y) if math.isinf(q_x) else mse_pair(q_x, q_y)[1]) - nu_y

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


class TestCondWeights:
    def test_weights_are_the_conditional_mean_coefficients(self):
        # E[(X, Y) | U, V] = Cov((X, Y), (U, V)) Cov(U, V)^{-1} (U, V), in
        # exact arithmetic; Cov((X, Y), (U, V)) = [[1, rho], [rho, 1]].
        gen = np.random.default_rng(54)
        for _ in range(200):
            rho, q_x, q_y = gen.uniform(-0.999, 0.999), *(10.0 ** gen.uniform(-6, 6, 2))
            r, a, b = Fraction(rho), 1 + Fraction(q_x), 1 + Fraction(q_y)
            det = a * b - r * r
            expect = ((b - r * r) / det, r * (a - 1) / det, r * (b - 1) / det, (a - r * r) / det)
            got = ellipsoid_codec._cond_weights(q_x, q_y, rho)
            for w, e in zip(got, expect):
                assert abs(Fraction(w) - e) <= 1e-12 * abs(e), (rho, q_x, q_y)

    def test_unsent_description_has_weight_zero(self):
        q = 0.7
        assert ellipsoid_codec._cond_weights(math.inf, q, -0.4) == (0.0, -0.4 / (1.0 + q), 0.0, 1.0 / (1.0 + q))
        assert ellipsoid_codec._cond_weights(q, math.inf, 0.4) == (1.0 / (1.0 + q), 0.0, 0.4 / (1.0 + q), 0.0)


class TestImpliedRates:
    def test_degenerate_rates_are_zero(self):
        assert implied_rates(0.5, 1.0, 1.0, math.inf, math.inf) == (0.0, 0.0)

    def test_rates_lie_inside_region(self):
        gen = np.random.default_rng(51)
        from gauss_extremal.rate_region import RegionQuery, region_verdict

        checked = 0
        while checked < 100:
            rho = gen.uniform(-0.9, 0.9)
            nu_x = gen.uniform(0.05, 0.95)
            nu_y = gen.uniform(0.05, 0.95)
            r2 = rho * rho
            if nu_y >= 1.0 - r2 * (1.0 - nu_x) or nu_x >= 1.0 - r2 * (1.0 - nu_y):
                continue
            checked += 1
            q_x, q_y = solve_noise_levels(rho, nu_x, nu_y)
            r_x, r_y = implied_rates(rho, nu_x, nu_y, q_x, q_y)
            v = region_verdict(RegionQuery(rho=rho, r_x=r_x, r_y=r_y, nu_x=nu_x, nu_y=nu_y))
            assert v.inside, (rho, nu_x, nu_y, v)


class TestSimulateDescriptions:
    def test_unit_targets_give_zero_information(self):
        cfg = CodecConfig(n=8, k=2, rho=0.5, sigma=np.eye(8), nu_x=1.0, nu_y=1.0,
                          delta=0.01, trials=1, seed=0)
        out = simulate_descriptions(cfg)
        assert np.all(out.x_hat == 0.0) and np.all(out.y_hat == 0.0)
        assert out.r_x == 0.0 and out.r_y == 0.0
        assert out.region.inside

    def test_deterministic_per_trial(self):
        cfg = CodecConfig(n=16, k=3, rho=0.4, sigma=np.eye(16), nu_x=0.3, nu_y=0.3,
                          delta=0.01, trials=1, seed=7)
        a = simulate_descriptions(cfg, trial=5)
        b = simulate_descriptions(cfg, trial=5)
        assert np.array_equal(a.x_hat, b.x_hat)
        c = simulate_descriptions(cfg, trial=6)
        assert not np.array_equal(a.x_hat, c.x_hat)

    def test_empirical_mse_matches_target(self):
        nu = 0.25
        # A negative rho must flip the sign of the cross weights.
        for rho in (0.5, -0.5):
            cfg = CodecConfig(n=200, k=2, rho=rho, sigma=np.eye(200), nu_x=nu, nu_y=nu,
                              delta=0.01, trials=1, seed=3)
            sq_err = 0.0
            count = 0
            for t in range(100):
                out = simulate_descriptions(cfg, trial=t)
                src = stream(cfg.seed, t, STREAM_SOURCE)
                x = src.standard_normal((cfg.k, cfg.n))  # sigma = I: whitened = raw
                sq_err += float(np.sum((x - out.x_hat) ** 2))
                count += x.size
            mse = sq_err / count
            assert abs(mse - nu) / nu < 0.02, rho


class TestBuildShrunkMatrix:
    def test_zero_centers_pure_scaling(self):
        gen = np.random.default_rng(60)
        a = random_pd(gen, 4)
        out = build_shrunk_matrix(a, np.zeros((2, 4)), 0.01)
        tau = 1.0 - 2.0 * 0.1
        assert out.rank == 0
        assert np.allclose(out.b_matrix, tau * a, atol=1e-15)
        assert out.logdet_residual < 1e-12

    def test_rank_one_determinant_ratio(self):
        a = np.eye(3)
        centers = np.array([[2.0, 0.0, 0.0]])
        out = build_shrunk_matrix(a, centers, 0.01)
        assert out.rank == 1
        ratio = abs(np.linalg.det(out.b_matrix)) / abs(np.linalg.det(a))
        assert abs(ratio - 0.8 * 0.8 * 0.008) < 1e-12
        assert abs(out.logdet_b - math.log(0.8 * 0.8 * 0.008)) < 1e-12

    def test_projector_is_idempotent(self):
        gen = np.random.default_rng(61)
        centers = gen.standard_normal((4, 16))
        out = build_shrunk_matrix(np.eye(16), centers, 0.0025)
        assert np.max(np.abs(out.basis @ out.basis.T - np.eye(out.rank))) < 1e-12
        proj = out.basis.T @ out.basis
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12

    def test_rank_deficient_centers(self):
        cases = (
            (np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 2),
            # Parallel up to a perturbation far below the 1e-10 relative cutoff.
            (np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-13]]), 1),
        )
        for c, rank in cases:
            out = build_shrunk_matrix(np.eye(3), c, 0.01)
            assert out.rank == rank
            assert out.logdet_residual < 1e-12

    def test_stack_with_different_ranks(self):
        # One stack whose trials have ranks 3, 2, 0 and 1: each trial gives
        # what it gives alone, and the rejected basis rows are zero.
        gen = np.random.default_rng(67)
        n = 6
        a = random_pd(gen, n)
        row = gen.standard_normal(n)
        centers = np.stack([
            gen.standard_normal((3, n)),
            np.stack([row, 2.0 * row, gen.standard_normal(n)]),
            np.zeros((3, n)),
            np.stack([row, row + 1e-13, -row]),
        ])
        logdet_a = float(np.linalg.slogdet(a)[1])
        b, logdet_b, residual, rank, basis = ellipsoid_codec._deflate(a, centers, 0.01, logdet_a)
        assert rank.tolist() == [3, 2, 0, 1]
        for t in range(len(centers)):
            alone = build_shrunk_matrix(a, centers[t], 0.01)
            assert alone.rank == rank[t]
            assert np.array_equal(b[t], alone.b_matrix)
            assert logdet_b[t] == alone.logdet_b and residual[t] == alone.logdet_residual
            assert residual[t] < 1e-12
            assert np.array_equal(basis[t, : rank[t]], alone.basis)
            assert np.all(basis[t, rank[t]:] == 0.0)

    def test_residual_small_for_random_inputs(self):
        gen = np.random.default_rng(62)
        for _ in range(20):
            n = int(gen.integers(3, 30))
            k = int(gen.integers(1, min(n, 6)))
            a = random_pd(gen, n)
            out = build_shrunk_matrix(a, gen.standard_normal((k, n)), 0.0025)
            assert out.logdet_residual < 1e-9

    def test_degenerate_shrinkage(self):
        with pytest.raises(DegenerateShrinkage):
            build_shrunk_matrix(np.eye(3), np.zeros((1, 3)), 0.3)
        with pytest.raises(DomainError):
            build_shrunk_matrix(np.eye(3), np.zeros((1, 3)), 0.0)
        # 1 - delta rounds to 1: tau - gamma = 0 and log(tau - gamma) is undefined.
        with pytest.raises(DegenerateShrinkage, match="tau - gamma"):
            build_shrunk_matrix(np.eye(4), np.ones((2, 4)), 1e-17)


class TestCodecConfigValidation:
    def test_k_exceeding_n(self):
        with pytest.raises(DomainError):
            CodecConfig(n=4, k=5, rho=0.5, sigma=np.eye(4), nu_x=0.5, nu_y=0.5)

    def test_delta_bounds(self):
        with pytest.raises(DomainError):
            CodecConfig(n=4, k=2, rho=0.5, sigma=np.eye(4), nu_x=0.5, nu_y=0.5, delta=0.25)
        with pytest.raises(DomainError):
            CodecConfig(n=4, k=2, rho=0.5, sigma=np.eye(4), nu_x=0.5, nu_y=0.5, delta=0.6)

    def test_delta_must_stay_below_targets(self):
        with pytest.raises(DomainError):
            CodecConfig(n=4, k=2, rho=0.5, sigma=np.eye(4), nu_x=0.01, nu_y=0.5, delta=0.02)

    def test_sigma_must_be_pd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            CodecConfig(n=2, k=1, rho=0.5, sigma=bad, nu_x=0.5, nu_y=0.5)

    def test_nu_range(self):
        with pytest.raises(DomainError):
            CodecConfig(n=2, k=1, rho=0.5, sigma=np.eye(2), nu_x=0.0, nu_y=0.5)


def reference_trial(cfg, t):
    """Trial t one at a time, from fresh per-trial streams and the public
    one-trial build_shrunk_matrix: (coverage, volume, rank) per source."""
    eigvals, eigvecs = np.linalg.eigh(cfg.sigma)
    white, unwhite = (eigvecs / np.sqrt(eigvals)).T, eigvecs * np.sqrt(eigvals)
    q = solve_noise_levels(cfg.rho, cfg.nu_x, cfg.nu_y)
    src = stream(cfg.seed, t, STREAM_SOURCE)
    xw = src.standard_normal((cfg.k, cfg.n))
    yw = cfg.rho * xw + math.sqrt(1.0 - cfg.rho**2) * src.standard_normal((cfg.k, cfg.n))
    descs = [
        sample + math.sqrt(q_i) * stream(cfg.seed, t, sid).standard_normal((cfg.k, cfg.n))
        for sample, q_i, sid in ((xw, q[0], STREAM_NOISE_X), (yw, q[1], STREAM_NOISE_Y))
    ]
    # Conditional means of the whitened X and Y given both descriptions.
    det = (1.0 + q[0]) * (1.0 + q[1]) - cfg.rho**2
    x_hat = ((1.0 + q[1] - cfg.rho**2) * descs[0] + cfg.rho * q[0] * descs[1]) / det
    y_hat = (cfg.rho * q[1] * descs[0] + (1.0 + q[0] - cfg.rho**2) * descs[1]) / det
    out = []
    for sample, est, nu in ((xw, x_hat, cfg.nu_x), (yw, y_hat, cfg.nu_y)):
        a = white / math.sqrt(cfg.n * nu)
        shrunk = build_shrunk_matrix(a, (est @ unwhite.T) @ a.T, cfg.delta)
        covered = tuple(np.linalg.norm((sample @ unwhite.T) @ shrunk.b_matrix.T, axis=1) <= 1.0)
        log_vol = log_unit_ball_volume(cfg.n) - shrunk.logdet_b
        norm_vol = math.exp(log_vol / cfg.n) / math.sqrt(2.0 * math.pi * math.e * nu) * math.exp(
            -float(np.sum(np.log(eigvals))) / (2 * cfg.n)
        )
        out.append((covered, norm_vol, shrunk.rank))
    return out


class TestRunSimulation:
    @pytest.mark.parametrize("n,k,rho,stack", [
        (12, 3, 0.6, None), (12, 3, -0.5, 4), (40, 6, 0.3, 1),
    ])
    def test_stacked_trials_match_one_trial_reference(self, n, k, rho, stack, monkeypatch):
        sigma = random_pd(np.random.default_rng(68), n)
        cfg = CodecConfig(n=n, k=k, rho=rho, sigma=sigma, nu_x=0.3, nu_y=0.4,
                          delta=0.005, trials=9, seed=2**64 - 7)
        if stack is not None:
            monkeypatch.setattr(ellipsoid_codec, "_STACK_ENTRIES", stack * n * n)
        rep = run_simulation(cfg)
        for tr in rep.trials:
            (cov_x, vol_x, rank_x), (cov_y, vol_y, rank_y) = reference_trial(cfg, tr.trial)
            assert (tr.covered_x, tr.rank_x) == (cov_x, rank_x)
            assert (tr.covered_y, tr.rank_y) == (cov_y, rank_y)
            # The reference regroups the volume's logarithms: roundoff only.
            assert abs(tr.norm_volume_x - vol_x) <= 1e-13 * vol_x
            assert abs(tr.norm_volume_y - vol_y) <= 1e-13 * vol_y

    def test_loose_targets_cover_comfortably(self):
        cfg = CodecConfig(n=64, k=2, rho=0.0, sigma=np.eye(64), nu_x=0.99, nu_y=0.99,
                          delta=0.01, trials=100, seed=0)
        rep = run_simulation(cfg)
        assert rep.coverage_x >= 0.95
        assert rep.coverage_y >= 0.95

    def test_report_invariants(self):
        gen = np.random.default_rng(63)
        sigma = random_pd(gen, 32)
        cfg = CodecConfig(n=32, k=3, rho=0.6, sigma=sigma, nu_x=0.3, nu_y=0.4,
                          delta=0.005, trials=50, seed=11)
        rep = run_simulation(cfg)
        assert rep.residual_max <= 1e-9
        assert rep.region_inside
        assert rep.whitening_frobenius_error <= 0.1
        slack = math.sqrt(cfg.delta / cfg.nu_x)
        assert rep.center_norm_exceed_frac_x <= slack + 0.05
        for tr in rep.trials:
            assert tr.norm_volume_x > 0.0 and math.isfinite(tr.norm_volume_x)
            assert tr.rank_x <= cfg.k
        # Corrected volume equals the raw one with the deterministic
        # shrinkage factor divided out.
        tr = rep.trials[0]
        factor = cfg.tau * cfg.delta ** (tr.rank_x / cfg.n)
        assert abs(tr.norm_volume_x_corrected - tr.norm_volume_x * factor) < 1e-12

    def test_one_factorization_per_source_per_trial(self, monkeypatch):
        cfg = CodecConfig(n=16, k=3, rho=0.5, sigma=random_pd(np.random.default_rng(64), 16),
                          nu_x=0.3, nu_y=0.4, delta=0.005, trials=7, seed=2)
        slogdet = np.linalg.slogdet
        factorized = []

        def counted(mat):
            # slogdet factorizes each matrix of a stack separately.
            factorized.append(math.prod(mat.shape[:-2]))
            return slogdet(mat)

        monkeypatch.setattr(np.linalg, "slogdet", counted)
        rep = run_simulation(cfg)
        assert sum(factorized) == 2 * cfg.trials
        assert all(max(tr.logdet_residual_x, tr.logdet_residual_y) <= 1e-9 for tr in rep.trials)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunk_size_changes_no_trial(self, chunk, monkeypatch):
        sigma = random_pd(np.random.default_rng(66), 16)
        for rho, nu_x in ((0.5, 0.3), (-0.6, 0.3), (0.0, 1.0)):  # nu_x = 1: X is not sent
            cfg = CodecConfig(n=16, k=3, rho=rho, sigma=sigma, nu_x=nu_x, nu_y=0.4,
                              delta=0.005, trials=17, seed=4)
            whole = run_simulation(cfg)
            monkeypatch.setattr(ellipsoid_codec, "_STACK_ENTRIES", chunk * cfg.n * cfg.n)
            chunked = run_simulation(cfg)
            monkeypatch.undo()
            assert chunked.trials == whole.trials
            assert report_to_dict(chunked) == report_to_dict(whole)

    def test_one_deflation_per_stack_and_source(self, monkeypatch):
        cfg = CodecConfig(n=16, k=3, rho=0.5, sigma=np.eye(16), nu_x=0.3, nu_y=0.4,
                          delta=0.005, trials=17, seed=4)
        stacks = []
        deflate = ellipsoid_codec._deflate

        def recorded(a, centers, delta, logdet_a):
            stacks.append(centers.shape[0])
            return deflate(a, centers, delta, logdet_a)

        monkeypatch.setattr(ellipsoid_codec, "_deflate", recorded)
        run_simulation(cfg)
        assert stacks == [17, 17]  # one stack per source
        monkeypatch.setattr(ellipsoid_codec, "_STACK_ENTRIES", 7 * cfg.n * cfg.n)
        stacks.clear()
        run_simulation(cfg)
        assert stacks == [7, 7, 7, 7, 3, 3]

    def test_bit_reproducible(self):
        cfg = CodecConfig(n=24, k=2, rho=0.3, sigma=np.eye(24), nu_x=0.4, nu_y=0.4,
                          delta=0.01, trials=20, seed=5)
        assert report_to_dict(run_simulation(cfg)) == report_to_dict(run_simulation(cfg))

    def test_csv_rows_shape(self):
        cfg = CodecConfig(n=8, k=2, rho=0.2, sigma=np.eye(8), nu_x=0.5, nu_y=0.5,
                          delta=0.01, trials=3, seed=1)
        rows = trials_csv_rows(run_simulation(cfg))
        assert rows[0] == "trial,covered_x_frac,covered_y_frac,normvol_x,normvol_y"
        assert len(rows) == 4
        assert rows[1].split(",")[0] == "0"

    def test_report_dict_has_interface_keys(self):
        cfg = CodecConfig(n=8, k=2, rho=0.2, sigma=np.eye(8), nu_x=0.5, nu_y=0.5,
                          delta=0.01, trials=2, seed=1)
        d = report_to_dict(run_simulation(cfg))
        for key in ("config", "coverage_x", "coverage_y", "mean_norm_vol_x",
                    "mean_norm_vol_y", "implied_rates", "region_inside", "residual_max"):
            assert key in d

    def test_report_dict_reuses_the_run_log_det(self, monkeypatch):
        # log|sigma| comes from the whitening eigenvalues; printing the
        # report factorizes sigma no further. It agrees with the Cholesky
        # value to rounding: 2.7e-15 relative at most over dense and
        # identity matrices of n = 32 to 1024.
        sigma = random_pd(np.random.default_rng(65), 24)
        cfg = CodecConfig(n=24, k=3, rho=0.5, sigma=sigma, nu_x=0.3, nu_y=0.4,
                          delta=0.005, trials=2, seed=3)
        rep = run_simulation(cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("sigma factorized again")

        monkeypatch.setattr(ellipsoid_codec, "log_det", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        d = report_to_dict(rep)
        assert d["config"]["sigma"]["log_det"] == rep.log_det_sigma
        monkeypatch.undo()
        assert abs(rep.log_det_sigma - log_det(sigma)) <= 1e-13 * max(1.0, abs(log_det(sigma)))
