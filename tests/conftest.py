import numpy as np
import pytest

from gauss_extremal.gauss_model import GaussianAuxChannel, GaussianPairModel
from gauss_extremal.rng import random_pd


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_scalar_triple(gen, allow_degenerate=True):
    """Random scalar model with two valid descriptions."""
    rho = gen.uniform(-0.99, 0.99)
    model = GaussianPairModel.scalar(rho)

    def channel(side):
        if allow_degenerate and gen.uniform() < 0.05:
            return GaussianAuxChannel.degenerate_on(side)
        return GaussianAuxChannel.scalar_corr(gen.uniform(0.0, 0.999), side)

    return model, channel("x"), channel("y")


def make_vector_triple(gen, n=None, allow_degenerate=True):
    """Random vector model (dimension <= 8) with two valid descriptions."""
    if n is None:
        n = int(gen.integers(2, 9))
    model = GaussianPairModel.vector(random_pd(gen, n), random_pd(gen, n))

    def channel(side):
        if allow_degenerate and gen.uniform() < 0.05:
            return GaussianAuxChannel.degenerate_on(side)
        m = int(gen.integers(1, n + 1))
        return GaussianAuxChannel.linear(gen.standard_normal((m, n)), random_pd(gen, m), side)

    return model, channel("x"), channel("y")


def sigmas_eigh_cannot_whiten():
    """{name: sigma} of matrices that pass the pivot test but that eigh
    cannot whiten: it returns a negative or an infinite eigenvalue. The
    simulator, which runs in whitened coordinates, simulates them.

    ill-conditioned: L L^T at n = 40 with L unit lower-triangular, -1
    below the diagonal. Every Cholesky pivot is 1 (the floor is 2.05e-9),
    so log|sigma| = 0 exactly, but the condition number is about 1.7e17
    and eigh returns a negative eigenvalue. near-float-max: [[1.7e308]],
    whose symmetrization 0.5 (S + S^T) overflows to inf.
    """
    lower = np.eye(40) - np.tril(np.ones((40, 40)), -1)
    return {"ill-conditioned": lower @ lower.T, "near-float-max": np.array([[1.7e308]])}
