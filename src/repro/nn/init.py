"""Parameter initialisation schemes and the shared fallback seed."""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Seed used when a module is constructed without an explicit ``rng``.
#: Deriving the fallback generator from a constant keeps two bare
#: constructions bit-identical (the repo-wide determinism convention);
#: callers that want independent weights must inject their own generator.
DEFAULT_SEED = 0x5EED


def ensure_rng(rng: Optional[np.random.Generator] = None) -> np.random.Generator:
    """Return ``rng`` unchanged, or a fresh generator seeded with :data:`DEFAULT_SEED`."""
    return rng if rng is not None else np.random.default_rng(DEFAULT_SEED)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for weight matrices."""
    fan_in = shape[0] if len(shape) > 0 else 1
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """Zero initialisation, used for biases."""
    return np.zeros(shape, dtype=np.float64)
