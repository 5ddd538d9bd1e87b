import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from gauss_extremal.errors import DomainError
from gauss_extremal.gauss_model import (
    GaussianAuxChannel,
    GaussianPairModel,
    mutual_information,
    schur_conditional_cov,
)
from gauss_extremal.rate_region import (
    beta,
    distortion_of_sum_rate,
    region_verdict,
    sum_rate_bound,
    sum_rate_bound_raw,
)

getcontext().prec = 50


def d_log2(x: Decimal) -> Decimal:
    return x.ln() / Decimal(2).ln()


def d_exp2(x: Decimal) -> Decimal:
    return (x * Decimal(2).ln()).exp()


def decimal_slacks(rho, r_x, r_y, nu_x, nu_y):
    """50-digit re-evaluation of the three region constraints."""
    rho, r_x, r_y = Decimal(repr(rho)), Decimal(repr(r_x)), Decimal(repr(r_y))
    nu_x, nu_y = Decimal(repr(nu_x)), Decimal(repr(nu_y))
    r2 = rho * rho
    one = Decimal(1)
    bound_x = d_log2((one - r2 + r2 * d_exp2(-2 * r_y)) / nu_x) / 2
    bound_y = d_log2((one - r2 + r2 * d_exp2(-2 * r_x)) / nu_y) / 2
    d = nu_x * nu_y
    beta_d = one + (one + 4 * r2 * d / (one - r2) ** 2).sqrt()
    bound_sum = d_log2((one - r2) * beta_d / (2 * d)) / 2
    return float(r_x - bound_x), float(r_y - bound_y), float(r_x + r_y - bound_sum)


class TestBeta:
    def test_zero_argument(self):
        assert beta(0.5, 0.0) == 2.0

    def test_zero_correlation(self):
        assert beta(0.0, 0.7) == 2.0

    def test_value_against_decimal(self):
        want = Decimal(1) + (Decimal(1) + Decimal(4) * Decimal("0.25") * Decimal("0.1")
                             / Decimal("0.5625")).sqrt()
        assert abs(beta(0.5, 0.1) - float(want)) < 1e-14

    def test_monotone_and_floor(self):
        zs = np.linspace(0.0, 2.0, 50)
        vals = [beta(0.6, z) for z in zs]
        assert all(b >= 2.0 for b in vals)
        assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(1.0, 0.1)
        with pytest.raises(DomainError):
            beta(0.5, -0.1)

    @pytest.mark.parametrize("rho", [0.0, 1e-16, 0.5])
    def test_an_infinite_z_is_a_domain_error(self, rho):
        # 4 rho^2 z was nan at rho = 0 and inf otherwise, and so was beta.
        with pytest.raises(DomainError, match="^z must be finite$"):
            beta(rho, math.inf)

    @pytest.mark.parametrize("rho,z", [(0.9, 1e308), (-0.9, 1e308), (0.75, 1e308), (-0.5, 1.7976931348623157e308)])
    def test_a_z_whose_square_term_overflows_keeps_a_finite_value(self, rho, z):
        # 4 rho^2 z / (1 - rho^2)^2 overflows here, and beta was inf. Its
        # square root t = 2 |rho| sqrt(z) / (1 - rho^2) does not. 1e-15 relative
        # absorbs a few roundings, amplified at most 5-fold by 1 - rho^2 >= 0.19:
        # 4.9e-16 at most over 10^4 random such inputs with |rho| <= 0.9.
        assert 4.0 * rho * rho * z / (1.0 - rho * rho) ** 2 == math.inf
        r = Decimal(rho)
        want = 1 + (1 + 4 * r * r * Decimal(z) / (1 - r * r) ** 2).sqrt()
        assert abs(Decimal(beta(rho, z)) - want) <= Decimal("1e-15") * want


class TestSumRateBound:
    def test_independent_sources(self):
        for dx, dy in ((0.5, 0.5), (0.1, 0.9)):
            want = 0.5 * math.log2(1.0 / (dx * dy))
            assert abs(sum_rate_bound(0.0, dx, dy) - want) < 1e-12

    def test_unit_distortion_clamps_to_zero(self):
        for rho in (0.0, 0.6, -0.8):
            assert sum_rate_bound(rho, 1.0, 1.0) == 0.0
            assert sum_rate_bound_raw(rho, 1.0, 1.0) <= 1e-12

    def test_strictly_decreasing_in_product(self):
        ds = np.linspace(0.05, 1.0, 40)
        vals = [sum_rate_bound_raw(0.7, d, d) for d in ds]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_finite_when_distortion_product_underflows(self):
        # 1e-300 * 1e-300 underflows to 0, where beta = 2.
        bound = sum_rate_bound_raw(0.99, 1e-300, 1e-300)
        want = 0.5 * (math.log2(1.0 - 0.99 * 0.99) - 2.0 * math.log2(1e-300))
        assert math.isfinite(bound)
        assert abs(bound - want) <= 1e-12 * want

    def test_rejects_bad_distortions(self):
        with pytest.raises(DomainError):
            sum_rate_bound(0.5, 0.0, 0.5)
        with pytest.raises(DomainError):
            sum_rate_bound(0.5, 0.5, 1.5)

    def test_quadratic_inversion_round_trip(self):
        gen = np.random.default_rng(31)
        for _ in range(1000):
            rho = gen.uniform(-0.95, 0.95)
            r = gen.uniform(0.0, 5.0)
            d = distortion_of_sum_rate(rho, r)
            root = math.sqrt(d)
            assert abs(sum_rate_bound(rho, root, root) - r) < 1e-12


class TestDistortionOfSumRate:
    def test_zero_rate(self):
        assert distortion_of_sum_rate(0.7, 0.0) == 1.0

    def test_independent(self):
        assert abs(distortion_of_sum_rate(0.0, 1.5) - 2.0 ** (-3.0)) < 1e-15


class TestRegionVerdict:
    @pytest.mark.parametrize("nu_x,nu_y,name", [(5e-324, 0.3, "nu_x"), (0.3, 5e-324, "nu_y"), (1e-310, 1e-310, "nu_x")])
    def test_a_nu_whose_bound_overflows_is_a_domain_error(self, nu_x, nu_y, name):
        # The quotient inside the per-encoder log2 overflowed: slack -inf, while
        # slack_sum, a sum of logs, stayed finite.
        with pytest.raises(DomainError, match=f"^{name} = .* is too small: its per-encoder rate bound is not finite$"):
            region_verdict(0.5, 1.0, 1.0, nu_x, nu_y)

    def test_the_smallest_normal_nu_keeps_a_finite_bound(self):
        v = region_verdict(0.5, 1.0, 1.0, 2.2250738585072014e-308, 0.3)
        assert math.isfinite(v.slack_rx) and not v.satisfies_rx

    def test_zero_rate_corner(self):
        v = region_verdict(rho=0.0, r_x=0.0, r_y=0.0, nu_x=1.0, nu_y=1.0)
        assert v.inside
        assert v.slack_rx >= 0.0 and v.slack_ry >= 0.0 and v.slack_sum >= 0.0

    def test_boundary_construction_counts_as_inside(self):
        rho, r_x, r_y = 0.6, 2.0, 1.5
        r2 = rho * rho
        nu_x = 2.0 ** (-2.0 * r_x) * (1.0 - r2 + r2 * 2.0 ** (-2.0 * r_y))
        v = region_verdict(rho=rho, r_x=r_x, r_y=r_y, nu_x=nu_x, nu_y=1.0)
        assert v.satisfies_rx
        assert abs(v.slack_rx) <= 1e-12

    def test_slacks_match_extended_precision(self):
        args = (0.5, 1.0, 1.0, 0.3, 0.3)
        v = region_verdict(*args)
        for got, want in zip((v.slack_rx, v.slack_ry, v.slack_sum), decimal_slacks(*args)):
            assert abs(got - want) < 1e-12

    def test_monotone_in_rates_and_distortions(self):
        gen = np.random.default_rng(32)
        found = 0
        while found < 200:
            rho, r_x, r_y, nu_x, nu_y = (
                gen.uniform(-0.9, 0.9),
                gen.uniform(0.0, 3.0),
                gen.uniform(0.0, 3.0),
                gen.uniform(0.05, 1.0),
                gen.uniform(0.05, 1.0),
            )
            if not region_verdict(rho, r_x, r_y, nu_x, nu_y).inside:
                continue
            found += 1
            assert region_verdict(
                rho,
                r_x + gen.uniform(0.0, 1.0),
                r_y + gen.uniform(0.0, 1.0),
                min(1.0, nu_x + gen.uniform(0.0, 0.5)),
                min(1.0, nu_y + gen.uniform(0.0, 0.5)),
            ).inside

    def test_sign_of_rho_is_irrelevant(self):
        gen = np.random.default_rng(33)
        for _ in range(100):
            rho = gen.uniform(0.0, 0.95)
            args = dict(
                r_x=gen.uniform(0.0, 3.0), r_y=gen.uniform(0.0, 3.0),
                nu_x=gen.uniform(0.05, 1.0), nu_y=gen.uniform(0.05, 1.0),
            )
            assert region_verdict(rho=rho, **args) == region_verdict(rho=-rho, **args)

    def test_decoupling_at_zero_correlation(self):
        # The sum constraint is redundant once the per-encoder ones hold.
        rates = np.linspace(0.0, 2.0, 7)
        nus = np.linspace(0.1, 1.0, 5)
        for r_x in rates:
            for r_y in rates:
                for nu_x in nus:
                    for nu_y in nus:
                        v = region_verdict(0.0, r_x, r_y, nu_x, nu_y)
                        pair_ok = v.satisfies_rx and v.satisfies_ry
                        assert v.inside == pair_ok
                        if pair_ok:
                            assert v.slack_sum >= min(v.slack_rx, v.slack_ry) - 1e-12

    def test_query_validation(self):
        with pytest.raises(DomainError):
            region_verdict(rho=1.5, r_x=0.0, r_y=0.0, nu_x=0.5, nu_y=0.5)
        with pytest.raises(DomainError):
            region_verdict(rho=0.5, r_x=-0.1, r_y=0.0, nu_x=0.5, nu_y=0.5)
        with pytest.raises(DomainError):
            region_verdict(rho=0.5, r_x=0.0, r_y=0.0, nu_x=0.0, nu_y=0.5)

    @pytest.mark.parametrize("args, message", [
        # Each row is also bad in every later check, so a row passes only if its check comes first.
        ((1.5, math.inf, -1.0, 0.0, 0.0), r"^rho must lie in \(-1, 1\)$"),
        ((0.5, math.inf, -1.0, 0.0, 0.0), "^r_x must be finite$"),
        ((0.5, 1.0, math.nan, 0.0, 0.0), "^r_y must be finite$"),
        ((0.5, -1.0, 1.0, -math.inf, 0.0), "^nu_x must be finite$"),
        ((0.5, -1.0, 1.0, 0.5, math.nan), "^nu_y must be finite$"),
        ((0.5, 1.0, -0.1, 0.0, 0.5), "^rates must be nonnegative$"),
        ((0.5, 1.0, 1.0, 0.5, 1.5), r"^nu values must lie in \(0, 1\]$"),
    ])
    def test_refusal_messages_and_their_order(self, args, message):
        with pytest.raises(DomainError, match=message):
            region_verdict(*args)


def min_nu_corner(rho, r_x, r_y):
    """Smallest (nu_x, nu_y) that meet the R_x and R_y constraints at the
    given rates: each bound of region_verdict solved for its distortion."""
    r2 = rho * rho
    nu_x = 2.0 ** (-2.0 * r_x) * (1.0 - r2 + r2 * 2.0 ** (-2.0 * r_y))
    nu_y = 2.0 ** (-2.0 * r_y) * (1.0 - r2 + r2 * 2.0 ** (-2.0 * r_x))
    return nu_x, nu_y


class TestMinNuBoundary:
    def test_independent_sources_decouple(self):
        # At rho = 0 the corner is (2^(-2 r_x), 2^(-2 r_y)) and the sum constraint is redundant.
        v = region_verdict(rho=0.0, r_x=1.0, r_y=2.0, nu_x=0.25, nu_y=2.0 ** (-4.0))
        assert abs(v.slack_rx) < 1e-15 and abs(v.slack_ry) < 1e-15
        assert v.satisfies_sum

    def test_infinite_partner_rate_limit(self):
        # As r_y grows, the R_x bound tends to (1/2) log2((1 - rho^2) / nu_x).
        rho = 0.8
        v = region_verdict(rho=rho, r_x=1.0, r_y=60.0, nu_x=0.25 * (1.0 - rho * rho), nu_y=0.5)
        assert abs(v.slack_rx) < 1e-9

    def test_reported_point_sits_on_boundary(self):
        gen = np.random.default_rng(34)
        for _ in range(50):
            rho = gen.uniform(-0.9, 0.9)
            r_x, r_y = gen.uniform(0.0, 3.0), gen.uniform(0.0, 3.0)
            nu_x, nu_y = min_nu_corner(rho, r_x, r_y)
            v = region_verdict(rho=rho, r_x=r_x, r_y=r_y, nu_x=nu_x, nu_y=nu_y)
            assert v.satisfies_rx and v.satisfies_ry
            assert abs(v.slack_rx) <= 1e-12 and abs(v.slack_ry) <= 1e-12


def _scalar_joint(rho, cu, cv):
    """Covariance of (X, Y, U, V) for unit-variance correlation channels."""
    return np.array([
        [1.0, rho, cu, rho * cv],
        [rho, 1.0, rho * cu, cv],
        [cu, rho * cu, 1.0, rho * cu * cv],
        [rho * cv, cv, rho * cu * cv, 1.0],
    ])


class TestMmseJensenGap:
    def test_degenerate_descriptions(self):
        model = GaussianPairModel.scalar(0.5)
        info = mutual_information(
            model, GaussianAuxChannel.degenerate_on("x"), GaussianAuxChannel.degenerate_on("y")
        )
        assert info.i_x_uv == 0.0 and info.i_y_uv == 0.0

    def test_gaussian_descriptions_attain_equality(self):
        """I(X;U,V) = (1/2) log2(1 / Var(X|U,V)) for unit-variance X, and
        likewise for Y: the joint informations equal the conditional errors
        that the Schur complement gives."""
        gen = np.random.default_rng(35)
        for _ in range(50):
            rho = gen.uniform(-0.9, 0.9)
            cu, cv = gen.uniform(0.0, 0.95), gen.uniform(0.0, 0.95)
            model = GaussianPairModel.scalar(rho)
            info = mutual_information(
                model,
                GaussianAuxChannel.scalar_corr(cu, "x"),
                GaussianAuxChannel.scalar_corr(cv, "y"),
            )
            joint = _scalar_joint(rho, cu, cv)
            m_x = schur_conditional_cov(joint, [0], [2, 3])[0, 0]
            m_y = schur_conditional_cov(joint, [1], [2, 3])[0, 0]
            assert abs(info.i_x_uv + 0.5 * math.log2(m_x)) < 1e-12
            assert abs(info.i_y_uv + 0.5 * math.log2(m_y)) < 1e-12


def test_forward_replay_of_sum_rate_derivation():
    """Random Gaussian description pairs never beat the sum-rate bound at
    the conditional errors they achieve, and the joint information
    I(XY;UV) = I(X;U) + I(Y;V|U) meets that bound with equality."""
    gen = np.random.default_rng(36)
    for _ in range(1000):
        rho = gen.uniform(-0.95, 0.95)
        cu, cv = gen.uniform(0.0, 0.99), gen.uniform(0.0, 0.99)
        model = GaussianPairModel.scalar(rho)
        info = mutual_information(
            model,
            GaussianAuxChannel.scalar_corr(cu, "x"),
            GaussianAuxChannel.scalar_corr(cv, "y"),
        )
        joint = _scalar_joint(rho, cu, cv)
        m_x = schur_conditional_cov(joint, [0], [2, 3])[0, 0]
        m_y = schur_conditional_cov(joint, [1], [2, 3])[0, 0]
        bound = sum_rate_bound_raw(rho, m_x, m_y)
        assert info.i_xu + info.i_yv - bound >= -1e-9
        assert abs(info.i_xu + info.i_yv_given_u - bound) < 1e-9
