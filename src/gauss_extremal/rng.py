"""Counter-based random streams for reproducible simulation.

Every randomized operation in the package draws from a Philox generator
keyed by (seed, trial, stream). Philox is counter based, so a stream's
output depends only on its key, never on how many other streams were
consumed first. Results are therefore bit-reproducible regardless of
execution order or parallelism.

A run that draws many streams of one seed builds one Streams object, which
re-keys a single Philox per (trial, stream) instead of constructing a
generator each time (most of that cost is seeding an entropy pool that
the explicit key then replaces); stream() is a one-shot use of it. Each
call gives the state of a fresh Generator(Philox(key=(seed, (trial << 16)
| stream))), and the generator it returns is valid only until the next
call. A Streams object belongs to the run that built it; the module holds
no state.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError
from .extremal import _check_n

_MASK64 = (1 << 64) - 1
_MAX_TRIALS = 1 << 48  # a trial index fills 48 bits of the second Philox key word
PD_RIDGE = 0.1  # r of every drawn covariance A A^T + r I, A standard normal

# Stream ids used by the simulator; sweeps may use their own small ints.
STREAM_SOURCE = 0
STREAM_NOISE_X = 1
STREAM_NOISE_Y = 2


def check_seed(seed: int, name: str = "seed") -> int:
    """Return seed if it is an integer in [0, 2^64), the first Philox key
    word; raise DomainError otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"{name} must lie in [0, 2^64), got {seed}")
    return seed


def check_trials(trials: int) -> None:
    """Raise DomainError unless the trial indices 0..trials-1 of an integer
    count fit the Philox trial field: 1 <= trials <= 2^48."""
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if trials > _MAX_TRIALS:
        raise DomainError(f"trials must be at most 2^48, the trial indices a Philox key holds, got {trials}")


def _through_float64(word: int) -> int:
    """The key word numpy stores for a word it converts through float64."""
    value = float(word)
    if value < 2.0**63:  # the cast back to uint64 is exact on every platform
        return int(value)
    with np.errstate(invalid="ignore"):  # a word rounded up to 2^64 wraps as numpy's cast does
        return int(np.array(value).astype(np.uint64))


class Streams:
    """The (trial, stream) generators of one seed, by re-keying one Philox.

    streams(trial, stream_id) returns a Generator in the state of a fresh
    Generator(Philox(key=(seed, (trial << 16) | stream_id))). It is the same
    Generator object every call, re-keyed in place: a generator returned
    by one call is valid only until the next call.

    numpy reads a tuple key of Python ints as one array: two words below
    2^63 as int64 and two at or above it as uint64, both exactly, but one
    of each through float64, losing low bits (seeds 2^64 - 3 and 2^64 - 1
    both get the key word of seed 0). The words set here follow the same
    rule, so each stream is the one the tuple key gives, for every trial
    in [0, 2^48).
    """

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._seed_through_float = _through_float64(seed)
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # counter 0 and an empty buffer: a fresh key's state
        self._key = self._state["state"]["key"]

    def __call__(self, trial: int, stream_id: int) -> np.random.Generator:
        if not 0 <= trial < _MAX_TRIALS:
            raise ValueError("trial index out of range")
        if not 0 <= stream_id < (1 << 16):
            raise ValueError("stream id out of range")
        word = (trial << 16) | stream_id
        if (word >> 63) == (self.seed >> 63):
            self._key[0], self._key[1] = self.seed, word
        else:
            self._key[0], self._key[1] = self._seed_through_float, _through_float64(word)
        self._bitgen.state = self._state
        return self._gen


def stream(seed: int, trial: int, stream_id: int) -> np.random.Generator:
    """Generator for one (seed, trial, stream) triple.

    seed must lie in [0, 2^64), trial must fit in 48 bits and stream_id in
    16 bits so the pair packs into the second Philox key word. The key
    words are those of Streams, which converts some of them through
    float64 as numpy does; packing the key exactly would change the
    stream of every seed in [2^63, 2^64).
    """
    return Streams(seed)(trial, stream_id)


def random_pd(gen: np.random.Generator, n: int) -> np.ndarray:
    """Random positive-definite matrix A @ A.T + PD_RIDGE * I, A n x n: n an integer of at least 1."""
    _check_n(n)
    a = gen.standard_normal((n, n))
    return a @ a.T + PD_RIDGE * np.eye(n)
