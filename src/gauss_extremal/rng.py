"""Counter-based random streams for reproducible simulation.

Every randomized operation in the package draws from a Philox generator
keyed by (seed, trial, stream). Philox is counter based, so a stream's
output depends only on its key, never on how many other streams were
consumed first. Results are therefore bit-reproducible regardless of
execution order or parallelism.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1

# Stream ids used by the simulator; sweeps may use their own small ints.
STREAM_SOURCE = 0
STREAM_NOISE_X = 1
STREAM_NOISE_Y = 2


def check_seed(seed: int, name: str = "seed") -> int:
    """Return seed if it lies in [0, 2^64), the first Philox key word;
    raise DomainError otherwise."""
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"{name} must lie in [0, 2^64), got {seed}")
    return seed


def stream(seed: int, trial: int, stream_id: int) -> np.random.Generator:
    """Generator for one (seed, trial, stream) triple.

    seed must lie in [0, 2^64), trial must fit in 48 bits and stream_id in
    16 bits so the pair packs into the second Philox key word.
    """
    check_seed(seed)
    if not 0 <= trial < (1 << 48):
        raise ValueError("trial index out of range")
    if not 0 <= stream_id < (1 << 16):
        raise ValueError("stream id out of range")
    # numpy converts a tuple key word >= 2^63 through float64: its low bits
    # are lost (with a RuntimeWarning). Packing the key exactly would change
    # the stream of every such seed.
    key = (int(seed), (trial << 16) | stream_id)
    return np.random.Generator(np.random.Philox(key=key))


def random_pd(gen: np.random.Generator, n: int, ridge: float = 0.1) -> np.ndarray:
    """Random positive-definite matrix A @ A.T + ridge * I."""
    a = gen.standard_normal((n, n))
    return a @ a.T + ridge * np.eye(n)
