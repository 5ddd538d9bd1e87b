import json
import math
import warnings

import numpy as np
import pytest

from gauss_extremal import gauss_model
from gauss_extremal.errors import DomainError, NotPositiveDefinite
from gauss_extremal.extremal import minkowski_gap, vector_dual_lower, volume_ratio
from gauss_extremal.gauss_model import (
    GaussianAuxChannel,
    GaussianPairModel,
    InfoVector,
    cholesky_pd,
    information_batch,
    log_det,
    matrix_from_json,
    mutual_information,
    schur_conditional_cov,
)
from gauss_extremal.rng import random_pd, stream

from conftest import make_scalar_triple, make_vector_triple


class TestPairSpectrum:
    # Against eigvals of solve(sigma_x, sigma_z), a route with no Cholesky:
    # 1e-11 of max d absorbs both routes' rounding, about cond(sigma_x) ulps
    # (2.1e-14 at most here, n = 1-16). The basis W is checked by the two
    # congruences it makes diagonal: 1e-12 absorbs about 2 cond(sigma_x) ulps,
    # W sigma_x W^T - I measured 1.6e-14 at most here and W sigma_z W^T - diag(d)
    # 1.8e-15 of max d.
    @pytest.mark.parametrize("n", range(1, 17))
    def test_eigenvalues_of_sigma_x_inverse_sigma_z(self, n):
        gen = stream(32, n, 0)
        sx = np.stack([random_pd(gen, n) for _ in range(4)])
        sz = np.stack([random_pd(gen, n) for _ in range(4)])
        stacked, basis = gauss_model._pair_spectrum(sx, sz)
        assert stacked.shape == (4, n) and basis.shape == (4, n, n)
        for t in range(4):
            want = np.sort(np.linalg.eigvals(np.linalg.solve(sx[t], sz[t])).real)
            for d, w in (gauss_model._pair_spectrum(sx[t], sz[t]), (stacked[t], basis[t])):
                assert np.all(np.diff(d) >= 0.0)
                assert np.max(np.abs(d - want)) <= 1e-11 * want[-1]
                # n log gm(d) = sum log d = log |sigma_z| - log |sigma_x|: 1e-10
                # absorbs n log-determinants' rounding (1.9e-12 at most here).
                assert abs(np.log(d).sum() - (log_det(sz[t]) - log_det(sx[t]))) <= 1e-10
                assert np.max(np.abs(w @ sx[t] @ w.T - np.eye(n))) <= 1e-12
                assert np.max(np.abs(w @ sz[t] @ w.T - np.diag(d))) <= 1e-12 * d[-1]

    def test_sigma_x_is_refused_as_cholesky_pd_refuses_it(self):
        sx = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(NotPositiveDefinite, match=r"^sigma_x \(sample 1\): "):
            gauss_model._pair_spectrum(sx, np.stack([np.eye(2)] * 2))

    def test_sigma_z_is_refused_after_sigma_x_is_checked(self):
        good, bad = np.stack([np.eye(2)] * 2), np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(NotPositiveDefinite, match=r"^sigma_z \(sample 1\): "):
            gauss_model._pair_spectrum(good, bad)
        with pytest.raises(NotPositiveDefinite, match=r"^sigma_x \(sample 1\): "):
            gauss_model._pair_spectrum(bad, bad[::-1])


class TestLogDet:
    def test_identity_is_zero(self):
        assert log_det(np.eye(3)) == 0.0

    @pytest.mark.parametrize("sigma_x", [
        np.diag([1e-3, 7.0, 2.5]),
        np.diag([0.5, 3.0, 7.0]),  # a sum of logs of the diagonal lands an ulp off the pivots' value
        random_pd(np.random.default_rng(8), 6),
    ])
    def test_equals_the_kernel_block_bit_for_bit(self, sigma_x):
        # log_det and information_batch read the same Cholesky pivots.
        n = len(sigma_x)
        joint = GaussianPairModel.vector(sigma_x, np.eye(n)).joint_xy_cov()[None]
        off, unit = np.zeros((1, 1, n)), np.ones((1, 1, 1))
        _, ld = information_batch(joint, off, unit, off, unit)
        assert log_det(sigma_x) == float(ld["x"][0])

    def test_matches_eigenvalue_product_oracle(self):
        gen = np.random.default_rng(7)
        a = gen.standard_normal((5, 5))
        mat = a @ a.T + np.eye(5)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(mat))))
        assert abs(log_det(mat) - oracle) < 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefinite):
            log_det(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            log_det(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_pivot_below_scaled_tolerance(self):
        # Pivot 1e-10 against trace/n = 5e9: far below 1e-10 * trace/n.
        with pytest.raises(NotPositiveDefinite):
            log_det(np.diag([1e10, 1e-10]))


@pytest.mark.parametrize("entries", [1, 7, 40, 1 << 16])
@pytest.mark.parametrize("where", [(8, 2), (0, 8), (4, 4)])
@pytest.mark.parametrize("offset", [0.0, 0.5e-12, 2e-12, 1e-3])
def test_symmetry_check_in_blocks_keeps_every_verdict(monkeypatch, entries, where, offset):
    # a - a^T formed in row blocks of a few entries gives the verdict and
    # the message of one block.
    a = np.random.default_rng(3).standard_normal((9, 9))
    a = a + a.T
    a[where] += offset * np.abs(a).max()

    def verdict():
        try:
            gauss_model._check_symmetric(a, "m")
        except NotPositiveDefinite as exc:
            return str(exc)
        return None

    monkeypatch.setattr(gauss_model, "_SYMMETRY_ENTRIES", 1 << 30)
    whole = verdict()
    monkeypatch.setattr(gauss_model, "_SYMMETRY_ENTRIES", entries)
    assert verdict() == whole
    assert (whole is None) == (offset <= 0.5e-12 or where[-1] == where[-2])


class TestSchurConditionalCov:
    def test_independent_blocks_unchanged(self):
        joint = np.diag([1.0, 2.0, 3.0, 4.0])
        out = schur_conditional_cov(joint, [0, 1], [2, 3])
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-15)

    def test_scalar_channel_conditional_variance(self):
        # Var(X | U) with U = c X + noise of variance 1 - c^2 is 1 - c^2.
        c = 0.8
        joint = np.array([[1.0, c], [c, 1.0]])
        out = schur_conditional_cov(joint, [0], [1])
        # 2x2 hand inversion: 1 - c^2 / 1
        assert abs(out[0, 0] - (1.0 - c * c)) < 1e-14

    def test_identity_blocks_with_half_cross(self):
        eye = np.eye(2)
        joint = np.block([[eye, 0.5 * eye], [0.5 * eye, eye]])
        out = schur_conditional_cov(joint, [0, 1], [2, 3])
        assert np.allclose(out, 0.75 * np.eye(2), atol=1e-15)

    def test_rejects_singular_given_block(self):
        joint = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NotPositiveDefinite):
            schur_conditional_cov(joint, [0], [1])


class TestMutualInformation:
    def test_degenerate_descriptions_zero_everything(self):
        model = GaussianPairModel.scalar(0.5)
        info = mutual_information(
            model,
            GaussianAuxChannel.degenerate_on("x"),
            GaussianAuxChannel.degenerate_on("y"),
        )
        for name in ("i_xu", "i_yu", "i_xv", "i_yv", "i_xv_given_u",
                     "i_yv_given_u", "i_uv", "i_x_uv", "i_y_uv"):
            assert getattr(info, name) == 0.0
        assert abs(info.i_xy - 0.5 * math.log2(1.0 / 0.75)) < 1e-14

    def test_noiseless_copy_is_rejected(self):
        model = GaussianPairModel.scalar(0.3)
        u = GaussianAuxChannel.linear([[1.0]], [[0.0]], "x")
        v = GaussianAuxChannel.degenerate_on("y")
        with pytest.raises(NotPositiveDefinite):
            mutual_information(model, u, v)

    def test_information_grows_as_noise_shrinks(self):
        model = GaussianPairModel.scalar(0.3)
        v = GaussianAuxChannel.degenerate_on("y")
        prev = -1.0
        for noise in (1.0, 0.1, 0.01, 0.001):
            u = GaussianAuxChannel.linear([[1.0]], [[noise]], "x")
            cur = mutual_information(model, u, v).i_xu
            assert cur > prev
            prev = cur

    def test_scalar_closed_form_example(self):
        model = GaussianPairModel.scalar(0.5)
        u = GaussianAuxChannel.scalar_corr(math.sqrt(0.5), "x")
        info = mutual_information(model, u, GaussianAuxChannel.degenerate_on("y"))
        assert abs(info.i_xu - 0.5) < 1e-12
        assert abs(info.i_yu - (-0.5 * math.log2(0.875))) < 1e-12

    def test_scalar_closed_forms_match_log_det_path(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            rho = gen.uniform(-0.95, 0.95)
            cu = gen.uniform(0.0, 0.99)
            cv = gen.uniform(0.0, 0.99)
            model = GaussianPairModel.scalar(rho)
            info = mutual_information(
                model,
                GaussianAuxChannel.scalar_corr(cu, "x"),
                GaussianAuxChannel.scalar_corr(cv, "y"),
            )
            r2 = rho * rho
            expect = {
                "i_xu": -0.5 * math.log2(1.0 - cu * cu),
                "i_yu": -0.5 * math.log2(1.0 - r2 * cu * cu),
                "i_yv": -0.5 * math.log2(1.0 - cv * cv),
                "i_xv": -0.5 * math.log2(1.0 - r2 * cv * cv),
                "i_uv": -0.5 * math.log2(1.0 - r2 * cu * cu * cv * cv),
            }
            for name, val in expect.items():
                assert abs(getattr(info, name) - val) < 1e-12, name

    def test_sides_are_enforced(self):
        model = GaussianPairModel.scalar(0.5)
        u = GaussianAuxChannel.scalar_corr(0.5, "y")
        v = GaussianAuxChannel.degenerate_on("y")
        with pytest.raises(DomainError):
            mutual_information(model, u, v)


def test_scalar_embedding_reproduces_scalar_path():
    gen = np.random.default_rng(3)
    for _ in range(20):
        rho = gen.uniform(0.05, 0.95) * (1 if gen.uniform() < 0.5 else -1)
        cu = gen.uniform(0.0, 0.99)
        cv = gen.uniform(0.0, 0.99)
        scalar_model = GaussianPairModel.scalar(rho)
        u = GaussianAuxChannel.scalar_corr(cu, "x")
        v = GaussianAuxChannel.scalar_corr(cv, "y")
        info_s = mutual_information(scalar_model, u, v)

        vec_model = GaussianPairModel.vector([[rho * rho]], [[1.0 - rho * rho]])
        # The vector model's X is rho X, so the X-side gain rescales too.
        u_vec = GaussianAuxChannel.linear([[cu / rho]], [[1.0 - cu * cu]], "x")
        info_v = mutual_information(vec_model, u_vec, v)
        for name in info_s.__dataclass_fields__:
            assert abs(getattr(info_s, name) - getattr(info_v, name)) < 1e-12, name


def test_conditional_cov_channel_hits_target():
    gen = np.random.default_rng(5)
    model = GaussianPairModel.vector(random_pd(gen, 4), random_pd(gen, 4))
    target = 0.3 * model.sigma_x
    u = GaussianAuxChannel.for_conditional_cov(model, target, "x")
    joint = np.block([
        [model.sigma_x, model.sigma_x @ u.gain.T],
        [u.gain @ model.sigma_x, u.gain @ model.sigma_x @ u.gain.T + u.noise_cov],
    ])
    cond = schur_conditional_cov(joint, range(4), range(4, 8))
    assert np.max(np.abs(cond - target)) < 1e-10


@pytest.mark.parametrize("side", ["x", "y"])
def test_conditional_cov_channel_uses_scalar_model_coordinates(side):
    # Var(X) = Var(Y) = 1 in the scalar model: Var(X | U) and Var(Y | V)
    # equal the target as the model's own joint covariance gives them.
    model = GaussianPairModel.scalar(0.6)
    ch = GaussianAuxChannel.for_conditional_cov(model, [[0.2]], side)
    g, w = ch.gain[0, 0], ch.noise_cov[0, 0]
    joint = np.array([[1.0, g], [g, g * g + w]])
    assert abs(schur_conditional_cov(joint, [0], [1])[0, 0] - 0.2) < 1e-15


def test_conditional_cov_channel_rejects_infeasible_target():
    gen = np.random.default_rng(6)
    model = GaussianPairModel.vector(random_pd(gen, 3), random_pd(gen, 3))
    with pytest.raises(NotPositiveDefinite):
        GaussianAuxChannel.for_conditional_cov(model, 2.0 * model.sigma_x, "x")


@pytest.mark.parametrize("target,error,message", [
    ([[1.0, 2.0], [3.0, 4.0]], NotPositiveDefinite, "^target_cov: not symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], NotPositiveDefinite, "^target_cov: Cholesky factorization failed$"),
    ([[math.nan, 0.0], [0.0, 1.0]], DomainError, "^target_cov: entries must be finite$"),
    (0.1 * np.eye(3), DomainError, r"^target_cov must have the source's shape \(2, 2\), got \(3, 3\)$"),
    (0.1 * np.stack([np.eye(2)] * 2), DomainError, r"^target_cov: expected a square matrix, got shape \(2, 2, 2\)$"),
    ("twice", NotPositiveDefinite, r"^target_cov \(must be strictly below the source covariance\): "),
], ids=["asymmetric", "indefinite", "nan", "matrix-3-on-model-2", "stack", "twice-the-source"])
@pytest.mark.parametrize("side", ["x", "y"])
def test_conditional_cov_channel_refusals_name_the_target(target, error, message, side):
    # The target is checked before _pair_spectrum reads it, so a bad one is
    # named target_cov, never sigma_z; twice the source is not below it.
    gen = np.random.default_rng(7)
    model = GaussianPairModel.vector(random_pd(gen, 2), random_pd(gen, 2))
    if isinstance(target, str):
        target = 2.0 * (model.sigma_x if side == "x" else model.sigma_y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            GaussianAuxChannel.for_conditional_cov(model, target, side)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("side", ["x", "y"])
def test_conditional_cov_channel_meets_random_targets(n, side):
    # Cov(S | U) = S - S G^T (G S G^T + N)^-1 G S against T, for targets
    # T = c R / max eig(S^-1 R), c in [0.05, 0.95), R random. 1e-11 of max |T|
    # absorbs the rounding of e, W and q and of this check's own solve, about
    # cond(S) ulps: 4.8e-13 at most here (n = 16, side x), 6.5e-13 over 100 pairs.
    gen = stream(34, n, 0)
    worst = 0.0
    for _ in range(20):
        model = GaussianPairModel.vector(random_pd(gen, n), random_pd(gen, n))
        source = model.sigma_x if side == "x" else model.sigma_y
        r = random_pd(gen, n)
        target = gen.uniform(0.05, 0.95) / np.linalg.eigvals(np.linalg.solve(source, r)).real.max() * r
        target = 0.5 * (target + target.T)
        u = GaussianAuxChannel.for_conditional_cov(model, target, side)
        g = u.gain @ source
        cond = source - g.T @ np.linalg.solve(g @ u.gain.T + u.noise_cov, g)
        worst = max(worst, np.abs(cond - target).max() / np.abs(target).max())
    assert worst <= 1e-11


def test_info_vector_invariants_randomized():
    """10^4 random triples: nonnegativity, chain rule, data processing,
    and the chain identity I(X;V) - I(X;V|U) = I(U;V)."""
    gen = np.random.default_rng(2024)
    for i in range(10_000):
        if i % 2 == 0:
            model, u, v = make_scalar_triple(gen)
        else:
            model, u, v = make_vector_triple(gen)
        info = mutual_information(model, u, v)
        for name in info.__dataclass_fields__:
            assert getattr(info, name) >= -1e-10, (name, i)
        assert abs(info.i_x_uv - (info.i_xu + info.i_xv_given_u)) < 1e-10, i
        assert abs(info.i_y_uv - (info.i_yu + info.i_yv_given_u)) < 1e-10, i
        assert info.i_yu <= info.i_xu + 1e-10, i
        assert info.i_xv <= info.i_yv + 1e-10, i
        assert abs(info.i_xv - info.i_xv_given_u - info.i_uv) < 1e-10, i


class TestMatrixJson:
    def test_round_trip(self):
        gen = np.random.default_rng(9)
        mat = random_pd(gen, 3)
        again = matrix_from_json(json.loads(json.dumps({"n": 3, "data": mat.ravel().tolist()})))
        assert np.array_equal(mat, again)

    def test_rejects_wrong_length(self):
        with pytest.raises(DomainError):
            matrix_from_json({"n": 2, "data": [1.0, 0.0, 0.0]})

    def test_rejects_extra_keys(self):
        with pytest.raises(DomainError):
            matrix_from_json({"n": 1, "data": [1.0], "extra": 1})

    def test_rejects_non_numeric(self):
        with pytest.raises(DomainError):
            matrix_from_json({"n": 1, "data": ["x"]})

    @pytest.mark.parametrize("obj", [
        {"n": 1, "data": ["2.0"]},  # numpy reads the string as 2.0
        {"n": 2, "data": [True, False, False, True]},  # and the booleans as 1 and 0
        {"n": 1, "data": [None]},
        {"n": 1, "data": [[1.0]]},
        {"n": True, "data": [2.0]},
    ])
    def test_rejects_entries_that_are_not_json_numbers(self, obj):
        with pytest.raises(DomainError, match="must be"):
            matrix_from_json(obj)

    def test_rejects_integer_beyond_float_range(self):
        with pytest.raises(DomainError, match="finite"):
            matrix_from_json(json.loads('{"n": 1, "data": [1' + "0" * 400 + "]}"))

    def test_accepts_integer_entries(self):
        got = matrix_from_json(json.loads('{"n": 2, "data": [2, 0, 0.5, 1]}'))
        assert got.dtype == float and np.array_equal(got, [[2.0, 0.0], [0.5, 1.0]])

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            matrix_from_json({"n": 0, "data": []})

    def test_rejects_undecoded_json_text(self):
        # The caller decodes; text, even text nested too deep to decode, is not a matrix object.
        with pytest.raises(DomainError, match="must be an object"):
            matrix_from_json("[" * 100000 + "]" * 100000)


# Correlations for the scalar model's tests: 0, both signs, the doubles
# closest to +-1, and one whose square underflows to 0.
SCALAR_RHOS = (0.0, 0.6, -0.6, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 1e-200)


class TestModelValidation:
    def test_scalar_rho_range(self):
        with pytest.raises(DomainError):
            GaussianPairModel.scalar(1.0)
        GaussianPairModel.scalar(0.0)  # zero correlation is allowed

    # The kernel refuses the doubles closest to +-1 (the joint's pivot
    # 1 - rho^2 falls below its floor): 1 - 1e-9 is near 1 and accepted.
    @pytest.mark.parametrize("rho", (0.0, 0.6, -0.6, 1.0 - 1e-9, -(1.0 - 1e-9), 1e-200))
    def test_scalar_volume_ratio_is_rho_squared(self, rho):
        # The X and Y blocks of the scalar joint are both [[1]], so the
        # kernel's log-determinants vanish and the ratio is rho^2 exactly.
        model = GaussianPairModel.scalar(rho)
        u, v = GaussianAuxChannel.scalar_corr(0.5, "x"), GaussianAuxChannel.scalar_corr(0.5, "y")
        _, ld = gauss_model._triple_batch(model, u, v)
        assert volume_ratio(ld, model.n, model.rho).tolist() == [rho * rho]

    @pytest.mark.parametrize("rho", SCALAR_RHOS)
    def test_scalar_model_is_the_unit_variance_pair(self, rho):
        # Y = rho X + Z with Var(X) = 1 and Var(Z) = 1 - rho^2: since
        # rho^2 + (1 - rho^2) rounds to 1, the joint is [[1, rho], [rho, 1]].
        model = GaussianPairModel.scalar(rho)
        assert model.rho == rho and model.n == 1
        assert np.array_equal(model.sigma_x, [[1.0]])
        assert np.array_equal(model.sigma_z, [[1.0 - rho * rho]])
        assert np.array_equal(model.sigma_y, [[1.0]])
        assert np.array_equal(model.joint_xy_cov(), [[1.0, rho], [rho, 1.0]])

    @pytest.mark.parametrize("n", [1, 3])
    def test_vector_model_has_unit_coefficient(self, n):
        gen = np.random.default_rng(40 + n)
        sx, sz = random_pd(gen, n), random_pd(gen, n)
        model = GaussianPairModel.vector(sx, sz)
        assert model.rho == 1.0
        assert np.array_equal(model.sigma_y, sx + sz)
        assert np.array_equal(model.joint_xy_cov(), np.block([[sx, sx], [sx, sx + sz]]))

    def test_vector_requires_pd(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianPairModel.vector([[1.0, 2.0], [2.0, 1.0]], np.eye(2))

    def test_vector_shape_mismatch(self):
        with pytest.raises(DomainError):
            GaussianPairModel.vector(np.eye(2), np.eye(3))

    def test_model_arrays_are_immutable(self):
        model = GaussianPairModel.vector(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            model.sigma_x[0, 0] = 2.0
        for rho in SCALAR_RHOS:
            model = GaussianPairModel.scalar(rho)
            assert not model.sigma_x.flags.writeable and not model.sigma_z.flags.writeable


INFO_FIELDS = tuple(InfoVector.__dataclass_fields__)


def random_batch(seed, trials, n):
    """A seeded stack of vector triples, one rng stream per sample, with
    about one channel in ten degenerate (zero gain, unit noise). Returns the
    kernel's arrays and the equivalent single-triple objects."""
    arrays = {k: np.empty((trials, n, n)) for k in ("sx", "sz", "gu", "wu", "gv", "wv")}
    singles = []
    for t in range(trials):
        gen = stream(seed, t, 0)
        arrays["sx"][t], arrays["sz"][t] = random_pd(gen, n), random_pd(gen, n)
        channels = []
        for side, g, w in (("x", "gu", "wu"), ("y", "gv", "wv")):
            if gen.uniform() < 0.1:
                arrays[g][t], arrays[w][t] = np.zeros((n, n)), np.eye(n)
                channels.append(GaussianAuxChannel.degenerate_on(side))
            else:
                arrays[g][t], arrays[w][t] = gen.standard_normal((n, n)), random_pd(gen, n)
                channels.append(GaussianAuxChannel.linear(arrays[g][t], arrays[w][t], side))
        singles.append((GaussianPairModel.vector(arrays["sx"][t], arrays["sz"][t]), *channels))
    sx, sz = arrays["sx"], arrays["sz"]
    source = np.block([[sx, sx], [sx, sx + sz]])
    return (source, arrays["gu"], arrays["wu"], arrays["gv"], arrays["wv"]), singles


def scalar_batch(rho, corr_u, corr_v):
    source = np.empty((len(rho), 2, 2))
    source[:, 0, 0] = source[:, 1, 1] = 1.0
    source[:, 0, 1] = source[:, 1, 0] = rho
    gu, gv = np.reshape(corr_u, (-1, 1, 1)), np.reshape(corr_v, (-1, 1, 1))
    return source, gu, 1.0 - gu * gu, gv, 1.0 - gv * gv


def reference_joint(model, u, v):
    """Joint covariance of (X, Y, U, V) from its blocks, for non-degenerate
    channels; independent of the kernel's own assembly."""
    sx = model.sigma_x
    sy = model.sigma_y
    sxy = model.rho * sx  # Cov(X, Y); sigma_x itself for a vector model
    cu, cv = u.gain, v.gain
    return np.block([
        [sx, sxy, sx @ cu.T, sxy @ cv.T],
        [sxy, sy, sxy @ cu.T, sy @ cv.T],
        [cu @ sx, cu @ sxy, cu @ sx @ cu.T + u.noise_cov, cu @ sxy @ cv.T],
        [cv @ sxy, cv @ sy, cv @ sxy @ cu.T, cv @ sy @ cv.T + v.noise_cov],
    ])


def active_channel(ch, n):
    """ch itself, or for a degenerate channel the zero-gain, unit-noise
    linear channel that stands in for it in the kernel."""
    return GaussianAuxChannel.linear(np.zeros((1, n)), np.eye(1), ch.side) if ch.gain is None else ch


@pytest.mark.parametrize("make,count", [(make_scalar_triple, 600), (make_vector_triple, 200)])
def test_sum_rate_is_the_full_joint_information(make, count):
    # On the chain U - X - Y - V, I(XY;UV) = I(X;U) + I(Y;V|U). The
    # reference [ld(XY) + ld(UV) - ld(XYUV)] / (2 ln 2) factorizes three
    # other matrices, so the two differ by log-determinant roundoff: at most
    # 6.7e-15 (scalar) and 5.0e-14 (vector) of max(1, |I(XY;UV)|) over
    # 2000 and 500 triples of these generators at this seed.
    gen = np.random.default_rng(7)
    degenerate = 0
    for _ in range(count):
        model, u, v = make(gen)
        degenerate += u.gain is None or v.gain is None
        info = mutual_information(model, u, v)
        joint = reference_joint(model, active_channel(u, model.n), active_channel(v, model.n))
        xy = 2 * model.n
        full = (log_det(joint[:xy, :xy]) + log_det(joint[xy:, xy:]) - log_det(joint)) / (2.0 * math.log(2.0))
        assert abs(info.i_xu + info.i_yv_given_u - full) <= 1e-12 * max(1.0, abs(full))
    assert degenerate > 0


def test_only_the_blocks_an_information_reads_are_pivot_tested():
    # Y's variance (1e9) lifts the mean diagonal of the full joint to
    # 2.5e8, so its pivot floor (2.5e-2) lies above U's noise (1e-3),
    # while every block that an information reads passes. The full joint
    # is not factorized, so the triple computes.
    model = GaussianPairModel.vector([[1.0]], [[1e9]])
    u = GaussianAuxChannel.linear([[1.0]], [[1e-3]], "x")
    v = GaussianAuxChannel.linear([[1e-6]], [[1.0]], "y")
    info = mutual_information(model, u, v)
    assert abs(info.i_xu - 0.5 * math.log2(1001.0)) < 1e-12


class TestInformationBatch:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_chain_rule_and_markov_identity(self, n):
        info, _ = information_batch(*random_batch(31, 200, n)[0])
        assert np.all(np.abs(info.i_x_uv - (info.i_xu + info.i_xv_given_u)) < 1e-10)
        assert np.all(np.abs(info.i_y_uv - (info.i_yu + info.i_yv_given_u)) < 1e-10)
        assert np.all(np.abs(info.i_xv - info.i_xv_given_u - info.i_uv) < 1e-10)
        for name in INFO_FIELDS:
            assert np.all(getattr(info, name) >= -1e-10), name

    def test_batch_matches_single_calls(self):
        batch, singles = random_batch(32, 60, 3)
        info, _ = information_batch(*batch)
        for t, triple in enumerate(singles):
            single = mutual_information(*triple)
            for name in INFO_FIELDS:
                assert abs(getattr(info, name)[t] - getattr(single, name)) < 1e-12, (t, name)

    def test_sign_of_rho_changes_nothing(self):
        gen = stream(33, 0, 0)
        rho = gen.uniform(-0.99, 0.99, 300)
        cu, cv = gen.uniform(0.0, 0.999, 300), gen.uniform(0.0, 0.999, 300)
        plus, _ = information_batch(*scalar_batch(rho, cu, cv))
        minus, _ = information_batch(*scalar_batch(-rho, cu, cv))
        for name in INFO_FIELDS:
            assert np.all(np.abs(getattr(plus, name) - getattr(minus, name)) < 1e-12), name

    def test_scalar_model_matches_vector_embedding(self):
        gen = stream(34, 0, 0)
        rho = gen.uniform(0.05, 0.95, 200) * np.where(gen.uniform(size=200) < 0.5, -1.0, 1.0)
        cu, cv = gen.uniform(0.0, 0.99, 200), gen.uniform(0.0, 0.99, 200)
        scalar, _ = information_batch(*scalar_batch(rho, cu, cv))
        # sigma_x = rho^2, sigma_z = 1 - rho^2; X is rescaled by rho, so the
        # X-side gain is cu / rho.
        r2 = (rho * rho).reshape(-1, 1, 1)
        source = np.block([[r2, r2], [r2, np.ones_like(r2)]])
        _, wu, gv, wv = scalar_batch(rho, cu, cv)[1:]
        vector, _ = information_batch(source, (cu / rho).reshape(-1, 1, 1), wu, gv, wv)
        for name in INFO_FIELDS:
            assert np.all(np.abs(getattr(scalar, name) - getattr(vector, name)) < 1e-12), name

    def test_conditional_informations_match_schur_route(self):
        _, singles = random_batch(35, 40, 3)
        for model, u, v in singles:
            if u.gain is None or v.gain is None:
                continue
            info = mutual_information(model, u, v)
            joint = reference_joint(model, u, v)
            x, y, uu, vv = np.arange(3), np.arange(3, 6), np.arange(6, 9), np.arange(9, 12)
            for target, expect in ((x, info.i_xv_given_u), (y, info.i_yv_given_u)):
                cond = schur_conditional_cov(joint, np.concatenate([target, vv]), uu)
                ld = lambda m: log_det(m, "conditional block")
                cmi = (ld(cond[:3, :3]) + ld(cond[3:, 3:]) - ld(cond)) / (2.0 * math.log(2.0))
                assert abs(cmi - expect) < 1e-10

    def test_degenerate_second_description_carries_no_information(self):
        batch, _ = random_batch(36, 50, 3)
        source, gu, wu = batch[:3]
        gv, wv = np.zeros((50, 1, 3)), np.ones((50, 1, 1))
        info, _ = information_batch(source, gu, wu, gv, wv)
        for name in ("i_xv", "i_yv", "i_uv", "i_xv_given_u", "i_yv_given_u"):
            assert np.all(np.abs(getattr(info, name)) < 1e-14), name
        assert np.all(np.abs(info.i_x_uv - info.i_xu) < 1e-14)

    def test_failing_sample_is_named(self):
        batch, _ = random_batch(37, 5, 2)
        source, gu, wu, gv, wv = (a.copy() for a in batch)
        gu[3], wu[3] = np.eye(2), np.zeros((2, 2))  # noiseless copy of X
        with pytest.raises(NotPositiveDefinite, match=r"\(sample 3\)"):
            information_batch(source, gu, wu, gv, wv)

    def test_rejects_asymmetric_noise(self):
        source, gu, wu, gv, wv = (a.copy() for a in random_batch(38, 4, 2)[0])
        wu[1, 0, 1] += 1e-6
        with pytest.raises(NotPositiveDefinite, match="symmetric"):
            information_batch(source, gu, wu, gv, wv)

    def test_rejects_non_finite_and_bad_shapes(self):
        source, gu, wu, gv, wv = (a.copy() for a in random_batch(39, 4, 2)[0])
        with pytest.raises(DomainError):
            information_batch(source, gu[:, :, :1], wu, gv, wv)
        with pytest.raises(DomainError):
            information_batch(source, gu, wu[:, :1], gv, wv)
        gv[2, 0, 0] = np.inf
        with pytest.raises(DomainError, match="finite"):
            information_batch(source, gu, wu, gv, wv)


EMPTY, ONE = np.zeros((1, 0, 0)), np.ones((1, 1, 1))


@pytest.mark.parametrize("args,message", [
    ((np.eye(2)[None], np.zeros((1, 0, 1)), EMPTY, ONE, ONE), "U-channel gain must have at least one row"),
    ((np.eye(2)[None], ONE, ONE, np.zeros((1, 0, 1)), EMPTY), "V-channel gain must have at least one row"),
    ((EMPTY, np.zeros((1, 1, 0)), ONE, np.zeros((1, 1, 0)), ONE), r"expected shape \(T, 2n, 2n\) with n >= 1"),
])
def test_information_batch_refuses_an_empty_block(args, message):
    # An empty channel or source made an empty subset group, whose batch
    # step divided by zero: a ZeroDivisionError, not a DomainError.
    with pytest.raises(DomainError, match=message):
        information_batch(*args)


def test_cholesky_pd_checks_every_matrix_of_a_stack():
    gen = stream(40, 0, 0)
    stack = np.stack([random_pd(gen, 3) for _ in range(4)])
    lower = cholesky_pd(stack)
    assert np.allclose(lower @ lower.transpose(0, 2, 1), stack, atol=1e-12)
    stack[2] = np.diag([1e10, 1.0, 1e-10])
    with pytest.raises(NotPositiveDefinite, match=r"\(sample 2\)"):
        cholesky_pd(stack)


@pytest.mark.parametrize("name,call", [
    ("m", lambda: log_det(np.zeros((0, 0)), "m")),
    ("stack", lambda: cholesky_pd(np.zeros((2, 0, 0)), "stack")),
    ("sigma_x", lambda: GaussianPairModel.vector(np.zeros((0, 0)), np.zeros((0, 0)))),
    ("sigma_x", lambda: vector_dual_lower(2.0, np.zeros((0, 0)), np.zeros((0, 0)))),
    ("sigma_a", lambda: minkowski_gap(np.zeros((0, 0)), np.zeros((0, 0)))),
    ("noise_cov", lambda: GaussianAuxChannel.linear(np.zeros((0, 2)), np.zeros((0, 0)), "x")),
])
def test_an_empty_matrix_is_a_domain_error(name, call):
    # A 0 x 0 matrix reached a numpy reduction with no identity and
    # escaped as its ValueError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name}: expected at least one row and column, got shape"):
            call()


def test_an_empty_stack_of_matrices_is_accepted():
    assert cholesky_pd(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_cholesky_pd_refuses_a_trace_that_overflows():
    # The pivot floor PIVOT_TOL * trace / n was inf, after a numpy overflow
    # warning, and the error blamed the first pivot as below it.
    with pytest.raises(DomainError, match="^big: its trace overflows$"):
        cholesky_pd(np.diag([1e308] * 4), "big")


def test_log_det_refuses_a_diagonal_whose_trace_overflows():
    # The diagonal fast path computed the pivot floor without the guard:
    # a numpy overflow warning, then a pivot blamed. Under warnings-as-errors
    # both callers get the DomainError of cholesky_pd.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^m: its trace overflows$"):
            log_det(1e308 * np.eye(4), "m")
        with pytest.raises(DomainError, match="^sigma_x: its trace overflows$"):
            vector_dual_lower(2.0, 1e308 * np.eye(3), np.eye(3))


def test_grouped_kernel_refuses_a_joint_block_whose_trace_overflows():
    # The grouped factorization computed its pivot floors without the
    # guard: a numpy overflow warning before the per-subset fallback could
    # name the block. Under warnings-as-errors the caller got the warning.
    model = GaussianPairModel.vector(np.array([[1e308]]), np.array([[1.0]]))
    u = GaussianAuxChannel.linear(np.eye(1), np.eye(1), "x")
    v = GaussianAuxChannel.linear(np.eye(1), np.eye(1), "y")
    with pytest.raises(DomainError, match="^joint covariance block XY: its trace overflows$"):
        mutual_information(model, u, v)


def per_subset_log_dets(source, gu, wu, gv, wv):
    """The kernel's log-determinants with every index subset gathered and
    factorized on its own, in _SUBSETS order: the reference for the grouped
    factorization, its values and its errors."""
    joint = gauss_model._joint_covariance(source, [gu, gv], [wu, wv])
    n = source.shape[1] // 2
    stops = np.cumsum([0, n, n, gu.shape[1], gv.shape[1]])
    blocks = {c: np.arange(stops[i], stops[i + 1]) for i, c in enumerate("xyuv")}
    out = {}
    for key in gauss_model._SUBSETS:
        idx = np.concatenate([blocks[c] for c in key])
        lower = gauss_model._factor(joint[:, idx[:, None], idx], f"joint covariance block {key.upper()}")
        out[key] = 2.0 * np.log(np.diagonal(lower, axis1=1, axis2=2)).sum(axis=1)
    return out


def sized_batch(seed, trials, n, m_u, m_v):
    """A seeded stack of vector triples whose U and V channels have m_u
    and m_v rows; every fifth U channel is degenerate (zero gain, unit
    noise)."""
    gen = stream(seed, 0, 0)

    def pd(m):
        a = gen.standard_normal((trials, m, m))
        return a @ a.transpose(0, 2, 1) + 0.1 * np.eye(m)

    sx, sz = pd(n), pd(n)
    gu, wu = gen.standard_normal((trials, m_u, n)), pd(m_u)
    gu[::5], wu[::5] = 0.0, np.eye(m_u)
    return np.block([[sx, sx], [sx, sx + sz]]), gu, wu, gen.standard_normal((trials, m_v, n)), pd(m_v)


class TestGroupedFactorization:
    @pytest.mark.parametrize("n,m_v", [(1, 1), (2, 2), (4, 4), (8, 8), (2, 1)])
    @pytest.mark.parametrize("trials", [1, 7, 300])
    @pytest.mark.parametrize("pieces", [False, True])
    def test_log_dets_equal_per_subset_factorization(self, n, m_v, trials, pieces, monkeypatch):
        if pieces:  # a few samples per batched call
            monkeypatch.setattr(gauss_model, "_GROUP_ENTRIES", 3 * (4 * n) ** 2)
        batch = sized_batch(41 + n, trials, n, n, m_v)
        _, ld = information_batch(*batch)
        expect = per_subset_log_dets(*batch)
        assert ld.keys() == expect.keys()
        for key in expect:
            assert np.array_equal(ld[key], expect[key]), key

    @pytest.mark.parametrize("n,m_v,trials,calls", [
        (1, 1, 30, 3), (2, 2, 30, 3), (8, 8, 7, 3),
        # subset sizes 2 (X, Y, U), 1 (V), 4 (XY, XU, YU), 3 (XV, YV, UV)
        # and 5 (XUV, YUV)
        (2, 1, 30, 5),
        # at most 2^14 entries per call: sizes 8, 16 and 24 take 1, 3 and 3
        # calls of 64, 10 and 14 samples
        (8, 8, 30, 7),
    ])
    def test_one_cholesky_call_per_subset_size(self, n, m_v, trials, calls, monkeypatch):
        batch = sized_batch(42, trials, n, n, m_v)
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
        information_batch(*batch)
        assert len(shapes) == calls
        assert {shape[-1] for shape in shapes} == ({n, 2 * n, 3 * n} if m_v == n else {1, 2, 3, 4, 5})
        assert all(np.prod(shape) <= gauss_model._GROUP_ENTRIES for shape in shapes)

    @pytest.mark.parametrize("trials", [1, 6])
    @pytest.mark.parametrize("n,m_u,m_v,breaks", [
        # U copies X in the last sample, V copies Y in sample 2: XU fails
        # first in _SUBSETS order, whichever sample comes first.
        (2, 2, 2, {"u_copies_x": -1, "v_copies_y": 2}),
        (2, 2, 1, {"u_copies_x": -1, "v_copies_y": 2}),
        # Y = X in the last sample makes XY singular; XY comes before XU
        # in _SUBSETS, though its size group (4) comes after XU's (3).
        (2, 1, 3, {"y_equals_x": -1, "u_copies_x": 0}),
    ])
    @pytest.mark.parametrize("noise", [0.0, 1e-13])
    def test_failure_names_first_subset_then_first_sample(self, trials, n, m_u, m_v, breaks, noise):
        source, gu, wu, gv, wv = (a.copy() for a in sized_batch(43, trials, n, m_u, m_v))
        for what, t in breaks.items():
            t %= trials
            if what == "u_copies_x":
                gu[t], wu[t] = np.eye(m_u, n), noise * np.eye(m_u)
            elif what == "v_copies_y":
                gv[t], wv[t] = np.eye(m_v, n), noise * np.eye(m_v)
            else:
                source[t, n:, n:] = source[t, :n, :n] + noise * np.eye(n)
        with pytest.raises(NotPositiveDefinite) as expect:
            per_subset_log_dets(source, gu, wu, gv, wv)
        with pytest.raises(NotPositiveDefinite) as got:
            information_batch(source, gu, wu, gv, wv)
        assert str(got.value) == str(expect.value)
