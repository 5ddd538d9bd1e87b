import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gauss_extremal import cli, ellipsoid_codec
from gauss_extremal.errors import DegenerateShrinkage, DomainError, Infeasible, NotPositiveDefinite
from gauss_extremal.ellipsoid_codec import (
    CodecConfig,
    TrialReport,
    build_shrunk_matrix,
    check_scalar_params,
    implied_rates,
    log_unit_ball_volume,
    report_to_dict,
    run_simulation,
    solve_noise_levels,
    trials_csv_rows,
)
from gauss_extremal.gauss_model import log_det
from gauss_extremal.rng import STREAM_NOISE_X, STREAM_NOISE_Y, STREAM_SOURCE, random_pd, stream


class TestUnitBallVolume:
    def test_disk_and_ball(self):
        assert abs(math.exp(log_unit_ball_volume(2)) - math.pi) < 1e-14
        assert abs(math.exp(log_unit_ball_volume(3)) - 4.0 * math.pi / 3.0) < 1e-14

    def test_log_form_is_consistent(self):
        # c_1 = 2, c_2 = pi and c_n = c_(n-2) 2 pi / n.
        assert abs(log_unit_ball_volume(1) - math.log(2.0)) < 1e-15
        for n in (3, 4, 7, 10, 101):
            step = log_unit_ball_volume(n) - log_unit_ball_volume(n - 2)
            assert abs(step - math.log(2.0 * math.pi / n)) < 1e-12

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
            log_unit_ball_volume(0)


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


class TestDraw:
    def test_unit_targets_give_zero_information(self):
        cfg = CodecConfig(n=8, k=2, rho=0.5, sigma=np.eye(8), nu_x=1.0, nu_y=1.0,
                          delta=0.01, trials=1, seed=0)
        setup = ellipsoid_codec._Setup(cfg)
        _, _, (x_hat, y_hat) = setup.draw(range(1))
        assert np.all(x_hat == 0.0) and np.all(y_hat == 0.0)
        assert setup.r_x == 0.0 and setup.r_y == 0.0
        assert setup.verdict.inside

    def test_deterministic_per_trial(self):
        cfg = CodecConfig(n=16, k=3, rho=0.4, sigma=np.eye(16), nu_x=0.3, nu_y=0.3,
                          delta=0.01, trials=1, seed=7)
        x_hat = lambda trials: ellipsoid_codec._Setup(cfg).draw(trials)[2][0]
        a = x_hat(range(5, 6))
        assert np.array_equal(a, x_hat(range(5, 6)))
        assert not np.array_equal(a, x_hat(range(6, 7)))
        # A trial draws the same in a stack as alone.
        assert np.array_equal(x_hat(range(4, 7)), np.concatenate([x_hat(range(t, t + 1)) for t in (4, 5, 6)]))

    def test_empirical_mse_matches_target(self):
        nu = 0.25
        # A negative rho must flip the sign of the cross weights.
        for rho in (0.5, -0.5):
            cfg = CodecConfig(n=200, k=2, rho=rho, sigma=np.eye(200), nu_x=nu, nu_y=nu,
                              delta=0.01, trials=1, seed=3)
            _, _, (x_hat, _) = ellipsoid_codec._Setup(cfg).draw(range(100))
            sq_err = 0.0
            for t in range(100):
                src = stream(cfg.seed, t, STREAM_SOURCE)
                x = src.standard_normal((cfg.k, cfg.n))  # sigma = I: whitened = raw
                sq_err += float(np.sum((x - x_hat[t]) ** 2))
            mse = sq_err / x_hat.size
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
        b, logdet_b, residual, rank, basis, norms = ellipsoid_codec._deflate(a, centers, 0.01, logdet_a)
        assert rank.tolist() == [3, 2, 0, 1]
        assert np.array_equal(norms, np.linalg.norm(centers, axis=2))
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

    def test_b_is_formed_as_its_transpose(self, monkeypatch):
        # run_simulation's whitening map A is F-ordered, so tau A^T and the
        # stack B^T are both C-ordered, and each B handed to slogdet is
        # F-ordered: the layout its LU copy reads contiguously.
        cfg = CodecConfig(n=24, k=3, rho=0.5, sigma=random_pd(np.random.default_rng(69), 24),
                          nu_x=0.3, nu_y=0.4, delta=0.005, trials=5, seed=6)
        deflate, slogdet = ellipsoid_codec._deflate, np.linalg.slogdet
        seen = []

        def recorded(a, centers, delta, logdet_a):
            out = deflate(a, centers, delta, logdet_a)
            seen.append((a.flags.f_contiguous, out[0].transpose(0, 2, 1).flags.c_contiguous))
            return out

        def f_ordered(mat):
            assert all(m.flags.f_contiguous for m in mat)
            return slogdet(mat)

        monkeypatch.setattr(ellipsoid_codec, "_deflate", recorded)
        monkeypatch.setattr(np.linalg, "slogdet", f_ordered)
        run_simulation(cfg)
        assert seen == [(True, True)] * 2

    @pytest.mark.parametrize("n,k,trials", [(48, 5, 6), (40, 40, 2), (255, 16, 2)])
    def test_b_matches_the_untransposed_product(self, n, k, trials):
        # Each entry of B^T sums the same k products gamma v_lj (V A)_li as
        # gamma V^T (V A) does, possibly in another order, then subtracts
        # it from tau a_ij: the two differ by at most (k + 1) eps times the
        # sum of the magnitudes involved. With OpenBLAS they are equal when
        # n is a multiple of 8; at n = 255 some entries differ, by up to
        # 1.65 eps times that sum.
        sigma = random_pd(np.random.default_rng(70), n)
        cfg = CodecConfig(n=n, k=k, rho=0.5, sigma=sigma, nu_x=0.3, nu_y=0.4, delta=0.005, trials=trials)
        setup = ellipsoid_codec._Setup(cfg)
        scale = 1.0 / math.sqrt(n * cfg.nu_x)
        a = scale * setup.white
        logdet_a = n * math.log(scale) - 0.5 * setup.log_det_sigma
        _, _, (x_hat, _) = setup.draw(range(trials))
        b, _, residual, _, vt, _ = ellipsoid_codec._deflate(a, x_hat @ a.T, cfg.delta, logdet_a)
        tau, gamma = ellipsoid_codec._shrinkage(cfg.delta)
        vta = vt @ a
        reference = tau * a - gamma * vt.transpose(0, 2, 1) @ vta
        magnitude = tau * np.abs(a) + gamma * np.abs(vt.transpose(0, 2, 1)) @ np.abs(vta)
        assert np.all(np.abs(b - reference) <= (k + 1) * np.finfo(float).eps * magnitude)
        assert np.all(residual < ellipsoid_codec.IDENTITY_TOL)

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

    def test_degenerate_shrinkage_is_refused_at_construction(self):
        # 1 - delta rounds to 1: refused before any trial is drawn.
        with pytest.raises(DegenerateShrinkage, match="delta = 1e-17"):
            CodecConfig(n=4, k=2, rho=0.5, sigma=np.eye(4), nu_x=0.5, nu_y=0.5, delta=1e-17)
        # The cheap fields are checked before sigma's O(n^3) factorization.
        with pytest.raises(DegenerateShrinkage, match="delta = 1e-17"):
            CodecConfig(n=4, k=2, rho=0.5, sigma=-np.eye(4), nu_x=0.5, nu_y=0.5, delta=1e-17)

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

    @pytest.mark.parametrize("name,value", [("n", 4.0), ("k", 1.5), ("trials", 2.5), ("seed", 1.5)])
    def test_non_integral_sizes_and_seed(self, name, value):
        # Each was accepted and failed later inside numpy or the streams.
        params = dict(n=4, k=2, rho=0.5, nu_x=0.5, nu_y=0.5, delta=0.0025, trials=3, seed=0) | {name: value}
        for build in (check_scalar_params, lambda **p: CodecConfig(sigma=np.eye(4), **p)):
            with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
                build(**params)


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
        tr = run_simulation(cfg).trials
        for t in range(cfg.trials):
            (cov_x, vol_x, rank_x), (cov_y, vol_y, rank_y) = reference_trial(cfg, t)
            assert np.array_equal(tr.covered_x[t], cov_x) and tr.rank_x[t] == rank_x
            assert np.array_equal(tr.covered_y[t], cov_y) and tr.rank_y[t] == rank_y
            # The reference regroups the volume's logarithms: roundoff only.
            assert abs(tr.norm_volume_x[t] - vol_x) <= 1e-13 * vol_x
            assert abs(tr.norm_volume_y[t] - vol_y) <= 1e-13 * vol_y

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
        tr = rep.trials
        assert np.all(tr.norm_volume_x > 0.0) and np.all(np.isfinite(tr.norm_volume_x))
        assert np.all(tr.rank_x <= cfg.k)
        # Corrected volume equals the raw one with the deterministic
        # shrinkage factor divided out.
        factor = cfg.tau * cfg.delta ** (tr.rank_x / cfg.n)
        assert np.all(np.abs(tr.norm_volume_x_corrected - tr.norm_volume_x * factor) < 1e-12)

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
        assert max(rep.trials.logdet_residual_x.max(), rep.trials.logdet_residual_y.max()) <= 1e-9

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunk_size_changes_no_trial(self, chunk, monkeypatch, capsys, tmp_path):
        sigma = random_pd(np.random.default_rng(66), 16)
        sigma_path = tmp_path / "sigma.json"
        sigma_path.write_text(json.dumps({"n": 16, "data": sigma.ravel().tolist()}))
        csv_path = tmp_path / "trials.csv"

        def cli_output(rho, nu_x):
            """Exit code, stdout and trials CSV bytes of the same run through the CLI."""
            code = cli.main([
                "ellipsoid", "--n", "16", "--k", "3", "--rho", repr(rho), "--nux", repr(nu_x),
                "--nuy", "0.4", "--delta", "0.005", "--trials", "17", "--seed", "4",
                "--sigma-file", str(sigma_path), "--precision", "17", "--trials-csv", str(csv_path),
            ])
            return code, capsys.readouterr().out, csv_path.read_bytes()

        for rho, nu_x in ((0.5, 0.3), (-0.6, 0.3), (0.0, 1.0)):  # nu_x = 1: X is not sent
            cfg = CodecConfig(n=16, k=3, rho=rho, sigma=sigma, nu_x=nu_x, nu_y=0.4,
                              delta=0.005, trials=17, seed=4)
            whole, whole_printed = run_simulation(cfg), cli_output(rho, nu_x)
            monkeypatch.setattr(ellipsoid_codec, "_STACK_ENTRIES", chunk * cfg.n * cfg.n)
            chunked, chunked_printed = run_simulation(cfg), cli_output(rho, nu_x)
            monkeypatch.undo()
            for field in dataclasses.fields(TrialReport):
                assert np.array_equal(getattr(chunked.trials, field.name), getattr(whole.trials, field.name))
            assert report_to_dict(chunked) == report_to_dict(whole)
            assert whole_printed[0] == 0
            assert chunked_printed == whole_printed

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

    @pytest.mark.parametrize("precision", [12, 17])
    @pytest.mark.parametrize("k,rho,nu_x", [(3, 0.5, 0.3), (3, 0.0, 1.0), (8, -0.6, 0.3)])
    def test_csv_rows_format_each_trial_alone(self, k, rho, nu_x, precision):
        # Each row is the trial's own values formatted one by one, with a
        # coverage fraction of sum(row) / k.
        cfg = CodecConfig(n=8, k=k, rho=rho, sigma=random_pd(np.random.default_rng(71), 8), nu_x=nu_x, nu_y=0.4,
                          delta=0.005, trials=13, seed=9)
        rep = run_simulation(cfg)
        tr = rep.trials
        expect = ["trial,covered_x_frac,covered_y_frac,normvol_x,normvol_y"]
        for t in range(cfg.trials):
            values = (sum(tr.covered_x[t].tolist()) / k, sum(tr.covered_y[t].tolist()) / k,
                      float(tr.norm_volume_x[t]), float(tr.norm_volume_y[t]))
            expect.append(",".join([str(t), *(format(v, f".{precision}g") for v in values)]))
        assert trials_csv_rows(rep, precision) == expect
        if nu_x == 1.0:  # X is not sent: its centers are 0, so every trial is rank deficient
            assert np.all(tr.rank_x == 0) and np.all(tr.rank_y == k)

    def test_csv_rows_of_partial_coverage(self):
        cfg = CodecConfig(n=8, k=3, rho=0.2, sigma=np.eye(8), nu_x=0.5, nu_y=0.5, delta=0.01, trials=4, seed=1)
        rep = run_simulation(cfg)
        covered = np.array([[True, True, True], [True, False, True], [False, False, True], [False, False, False]])
        columns = {f.name: getattr(rep.trials, f.name) for f in dataclasses.fields(TrialReport)} | {
            "covered_x": covered, "covered_y": covered[::-1],
            "norm_volume_x": np.array([1.0, 0.5, 0.25, 3.0]), "norm_volume_y": np.array([2.0, 1.5, 0.125, 10.0]),
        }
        assert trials_csv_rows(dataclasses.replace(rep, trials=TrialReport(**columns)), 17)[1:] == [
            "0,1,0,1,2",
            "1,0.66666666666666663,0.33333333333333331,0.5,1.5",
            "2,0.33333333333333331,0.66666666666666663,0.25,0.125",
            "3,0,1,3,10",
        ]

    @pytest.mark.parametrize("k,trials,stack", [(1, 1, None), (3, 17, 5)])
    def test_trial_columns_are_read_only(self, k, trials, stack, monkeypatch):
        cfg = CodecConfig(n=8, k=k, rho=0.5, sigma=random_pd(np.random.default_rng(72), 8), nu_x=0.3, nu_y=0.4,
                          delta=0.005, trials=trials, seed=10)
        if stack is not None:
            monkeypatch.setattr(ellipsoid_codec, "_STACK_ENTRIES", stack * cfg.n * cfg.n)
        tr = run_simulation(cfg).trials
        for field in dataclasses.fields(TrialReport):
            column = getattr(tr, field.name)
            coverage = field.name.startswith("covered_")
            assert column.shape == ((trials, k) if coverage else (trials,)), field.name
            assert column.dtype.kind == ("b" if coverage else "i" if field.name.startswith("rank_") else "f")
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]
        # == is identity and the report hashes: comparing the columns
        # element-wise would raise for T > 1.
        same_columns = dataclasses.replace(tr)
        assert tr == tr and tr != same_columns
        assert hash(tr) != hash(same_columns)

    def test_report_dict_has_interface_keys(self):
        cfg = CodecConfig(n=8, k=2, rho=0.2, sigma=np.eye(8), nu_x=0.5, nu_y=0.5,
                          delta=0.01, trials=2, seed=1)
        d = report_to_dict(run_simulation(cfg))
        assert set(d) == {
            "config", "coverage_x", "coverage_y", "per_point_failure_max_x", "per_point_failure_max_y",
            "mean_norm_vol_x", "mean_norm_vol_y", "mean_norm_vol_x_corrected", "mean_norm_vol_y_corrected",
            "implied_rates", "noise_levels", "region_inside", "residual_max", "whitening_frobenius_error",
            "center_norm_exceed_frac_x", "center_norm_exceed_frac_y",
        }
        assert set(d["config"]) == {"n", "k", "rho", "nu_x", "nu_y", "delta", "trials", "seed", "sigma"}
        assert set(d["config"]["sigma"]) == {"n", "trace", "log_det"}
        assert set(d["implied_rates"]) == {"r_x", "r_y"}
        assert set(d["noise_levels"]) == {"q_x", "q_y"}

    def test_trial_report_fields_are_the_per_trial_ones(self):
        assert [f.name for f in dataclasses.fields(TrialReport)] == [
            "covered_x", "covered_y", "norm_volume_x", "norm_volume_y",
            "norm_volume_x_corrected", "norm_volume_y_corrected",
            "logdet_residual_x", "logdet_residual_y", "rank_x", "rank_y",
        ]

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
