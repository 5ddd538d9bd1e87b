import warnings

import numpy as np
import pytest

from gauss_extremal import rng
from gauss_extremal.errors import DomainError

SEEDS = [0, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 3, 2**64 - 1]
TRIALS = [0, 1, 2**47 - 1, 2**47, 2**48 - 1]
STREAM_IDS = [rng.STREAM_SOURCE, rng.STREAM_NOISE_X, rng.STREAM_NOISE_Y]  # the sweep uses 0


def fresh(seed, trial, stream_id):
    # The reference construction; for some seeds numpy warns that it
    # casts a key word through float64.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.random.Generator(np.random.Philox(key=(seed, (trial << 16) | stream_id)))


def assert_same_state(got, want):
    got, want = got.bit_generator.state, want.bit_generator.state
    assert got.keys() == want.keys()
    for key in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
        assert got[key] == want[key], key
    assert np.array_equal(got["buffer"], want["buffer"])
    for key in ("counter", "key"):
        assert np.array_equal(got["state"][key], want["state"][key]), key


@pytest.mark.parametrize("seed", SEEDS)
def test_rekeyed_streams_equal_fresh_generators(seed):
    streams = rng.Streams(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # re-keying itself warns about nothing
        for trial in TRIALS:
            for stream_id in STREAM_IDS:
                gen, want = streams(trial, stream_id), fresh(seed, trial, stream_id)
                assert_same_state(gen, want)
                # Drawing moves the state on; the next re-key must reset it.
                assert np.array_equal(gen.standard_normal(64), want.standard_normal(64))


@pytest.mark.parametrize("seed", [0, 2**63 + 1, 2**64 - 1])
def test_one_shot_stream_equals_rekeyed_stream(seed):
    streams = rng.Streams(seed)
    for trial in (0, 5, 2**47):
        first = rng.stream(seed, trial, 1).standard_normal(16)
        assert np.array_equal(first, streams(trial, 1).standard_normal(16))


def test_rekeying_reuses_one_generator():
    streams = rng.Streams(3)
    first = streams(0, 0)
    assert streams(1, 2) is first
    assert rng.stream(3, 0, 0) is not rng.stream(3, 0, 0)


@pytest.mark.parametrize("trial,stream_id", [(-1, 0), (2**48, 0), (0, -1), (0, 2**16)])
def test_rejects_key_parts_out_of_range(trial, stream_id):
    with pytest.raises(ValueError):
        rng.Streams(0)(trial, stream_id)


@pytest.mark.parametrize("n", [True, 0, -1, 2.0, 2.5, float("nan")])
def test_random_pd_refuses_an_n_that_is_not_a_positive_integer(n):
    # True was taken as 1 until numpy's TypeError, and 0 gave a 0 x 0 matrix.
    with pytest.raises(DomainError, match="^n must be an integer of at least 1, got"):
        rng.random_pd(np.random.default_rng(0), n)


def test_random_pd_takes_a_numpy_integer():
    a = rng.random_pd(np.random.default_rng(0), np.int64(3))
    assert a.shape == (3, 3) and np.array_equal(a, rng.random_pd(np.random.default_rng(0), 3))


@pytest.mark.parametrize("seed", [1.5, 2.0])
def test_non_integral_seed_is_a_domain_error(seed):
    with pytest.raises(DomainError, match="^seed must be an integer"):
        rng.check_seed(seed)
    with pytest.raises(DomainError, match="^seed must be an integer"):
        rng.Streams(seed)
