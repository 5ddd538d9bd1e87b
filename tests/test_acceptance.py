"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from gauss_extremal.cli import run_verify_sweep
from gauss_extremal.ellipsoid_codec import CodecConfig, run_simulation
from gauss_extremal.extremal import (
    alpha_family_channel,
    dual_functional,
    exponent_tradeoff_min,
    minkowski_gap,
    nondegenerate_minimizers,
    oohama_gap,
    scalar_dual_closed,
    scalar_dual_oracle,
    vector_dual_lower,
)
from gauss_extremal.ellipsoid_codec import log_unit_ball_volume
from gauss_extremal.gauss_model import (
    GaussianAuxChannel,
    GaussianPairModel,
    mutual_information,
)
from gauss_extremal.rate_region import distortion_of_sum_rate, sum_rate_bound
from gauss_extremal.rng import random_pd

from test_extremal import tradeoff_oracle


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def acceptance_simulation():
    config = CodecConfig(
        n=256, k=4, rho=0.5, sigma=np.eye(256),
        nu_x=0.25, nu_y=0.25, delta=0.0025, trials=200, seed=0,
    )
    start = time.perf_counter()
    rep = run_simulation(config)
    return rep, time.perf_counter() - start


def test_c01_scalar_dual_agreement():
    start = time.perf_counter()
    worst = 0.0
    for r2 in (0.2, 0.5, 0.8):
        rho = math.sqrt(r2)
        lams = np.concatenate([
            np.linspace(0.0, 0.95, 8) / r2,
            np.geomspace(1.01, 30.0, 12) / r2,
        ])
        for lam in lams:
            closed = scalar_dual_closed(float(lam), rho).value_bits
            oracle = scalar_dual_oracle(float(lam), rho, 2000)
            assert oracle >= closed - 1e-9, (r2, lam)
            worst = max(worst, abs(oracle - closed))
    elapsed = time.perf_counter() - start
    report(
        "C1 scalar dual: grid oracle matches closed form",
        worst <= 1e-3 and elapsed <= 30.0,
        f"max |oracle-closed| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_inequality_falsification_sweeps():
    start = time.perf_counter()
    mins = []
    for mode, trials, dim in (("thm3", 10_000, 1), ("thm1-scalar", 10_000, 1)):
        summary = run_verify_sweep(mode, trials, dim, seed=0)
        mins.append((mode, dim, summary["min_gap"]))
    for n in (2, 4, 8):
        summary = run_verify_sweep("thm1-vector", 1_000, n, seed=0)
        mins.append(("thm1-vector", n, summary["min_gap"]))
    elapsed = time.perf_counter() - start
    worst = min(g for _, _, g in mins)
    report(
        "C2 falsification sweeps find no violation",
        worst >= -1e-9 and elapsed <= 60.0,
        f"min gap = {worst:.2e}, {elapsed:.1f}s",
    )


def test_c03_equality_certification():
    degenerate_v = GaussianAuxChannel.degenerate_on("y")
    worst_gap = 0.0
    worst_tightness = 0.0

    gen = np.random.default_rng(100)
    sz = random_pd(gen, 4)
    cases = [(GaussianPairModel.vector(2.0 * sz, sz), 3.0)]
    sx, sz2 = random_pd(gen, 3), random_pd(gen, 3)
    white = np.linalg.inv(np.linalg.cholesky(sx))
    lam_big = 1.0 + 1.5 * float(np.linalg.eigvalsh(white @ sz2 @ white.T).max())
    cases.append((GaussianPairModel.vector(sx, sz2), lam_big))

    for model, lam in cases:
        channel, _ = alpha_family_channel(model, lam)
        worst_gap = max(worst_gap, abs(oohama_gap(model, channel)))
        info = mutual_information(model, channel, degenerate_v)
        bound = vector_dual_lower(lam, model.sigma_x, model.sigma_z)
        assert bound.branch == "active"
        worst_tightness = max(
            worst_tightness, abs(dual_functional(info, lam) - bound.value_bits)
        )
    report(
        "C3 equality family certifies tightness",
        worst_gap <= 1e-9 and worst_tightness <= 1e-9,
        f"max |gap| = {worst_gap:.2e}, max |functional-bound| = {worst_tightness:.2e}",
    )


def test_c04_nondegenerate_minimizers():
    rho = math.sqrt(0.5)
    lam = 3.0
    model = GaussianPairModel.scalar(rho)
    closed = scalar_dual_closed(lam, rho).value_bits
    pairs = nondegenerate_minimizers(lam, rho, 25)
    assert pairs
    worst_abs = 0.0
    worst_vs_closed = 0.0
    for p in pairs:
        info = mutual_information(
            model,
            GaussianAuxChannel.scalar_corr(p.rho_u, "x"),
            GaussianAuxChannel.scalar_corr(p.rho_v, "y"),
        )
        value = dual_functional(info, lam)
        worst_abs = max(worst_abs, abs(value - (-0.12256)))
        worst_vs_closed = max(worst_vs_closed, abs(value - closed))
    report(
        "C4 nondegenerate minimizers attain the dual value",
        worst_abs <= 1e-4 and worst_vs_closed <= 1e-9,
        f"{len(pairs)} pairs, max |value+0.12256| = {worst_abs:.2e}, "
        f"max |value-closed| = {worst_vs_closed:.2e}",
    )


def test_c05_sum_rate_inversion_round_trip():
    gen = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        rho = gen.uniform(-0.95, 0.95)
        r = gen.uniform(0.0, 5.0)
        root = math.sqrt(distortion_of_sum_rate(rho, r))
        worst = max(worst, abs(sum_rate_bound(rho, root, root) - r))
    report(
        "C5 sum-rate quadratic inversion round trip",
        worst <= 1e-12,
        f"max |round trip - r| = {worst:.2e}",
    )


def test_c06_tradeoff_min_vs_implicit_oracle():
    gen = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        a1 = gen.uniform(0.05, 0.9)
        a2 = gen.uniform(0.05, min(0.95, 1.0 - a1))
        lam = gen.uniform(0.0, 3.0 * (a1 + a2) / a1)
        closed = exponent_tradeoff_min(a1, a2, lam)
        worst = max(worst, abs(closed - tradeoff_oracle(a1, a2, lam)))
    report(
        "C6 exponent tradeoff min matches implicit-curve oracle",
        worst <= 1e-6,
        f"max error = {worst:.2e}",
    )


def test_c07_determinant_identity_every_trial(acceptance_simulation):
    rep, _ = acceptance_simulation
    worst = float(max(rep.trials.logdet_residual_x.max(), rep.trials.logdet_residual_y.max()))
    report(
        "C7 shrunk-matrix determinant identity holds per trial",
        worst <= 1e-9,
        f"max residual = {worst:.2e} over {len(rep.trials.logdet_residual_x)} trials",
    )


def test_c08_covering_simulation_at_scale(acceptance_simulation):
    rep, elapsed = acceptance_simulation
    coverage_ok = (
        1.0 - rep.per_point_failure_max_x >= 0.90
        and 1.0 - rep.per_point_failure_max_y >= 0.90
    )
    # The normalized volume is compared against its large-n limit after the
    # deterministic shrinkage factor tau * delta^(k/n) is divided out; the
    # raw ratio is reported alongside.
    volume_ok = max(rep.mean_norm_vol_x_corrected, rep.mean_norm_vol_y_corrected) <= 1.10
    report(
        "C8 covering simulation: coverage, volume, rates in region",
        coverage_ok and volume_ok and rep.region_inside and elapsed <= 60.0,
        f"coverage = ({rep.coverage_x:.3f}, {rep.coverage_y:.3f}), "
        f"corrected volume = {rep.mean_norm_vol_x_corrected:.4f} "
        f"(raw {rep.mean_norm_vol_x:.4f}), inside = {rep.region_inside}, {elapsed:.1f}s",
    )


def test_c09_stirling_limit():
    target = math.sqrt(2.0 * math.pi * math.e)
    errs = {
        n: abs(math.sqrt(n) * math.exp(log_unit_ball_volume(n) / n) - target)
        for n in (64, 256, 1024, 4096)
    }
    monotone = all(errs[b] < errs[a] for a, b in ((64, 256), (256, 1024), (1024, 4096)))
    report(
        "C9 unit-ball volume approaches its scaling limit",
        errs[4096] <= 0.05 and monotone,
        f"error at 4096 = {errs[4096]:.4f}, monotone = {monotone}",
    )


def test_c10_minkowski_determinant_check():
    gen = np.random.default_rng(103)
    worst = math.inf
    for _ in range(1000):
        n = int(gen.integers(1, 8))
        worst = min(worst, minkowski_gap(random_pd(gen, n), random_pd(gen, n)))
    # Proportional pairs attain equality: |A + cA|^(1/n) = (1+c)|A|^(1/n).
    prop_worst = 0.0
    for c in (0.5, 1.0, 3.0):
        a = random_pd(gen, 4)
        prop_worst = max(prop_worst, abs(minkowski_gap(a, c * a)))
    report(
        "C10 determinant superadditivity check",
        worst >= -1e-10 and prop_worst <= 1e-9,
        f"min gap = {worst:.2e}, proportional residual = {prop_worst:.2e}",
    )
