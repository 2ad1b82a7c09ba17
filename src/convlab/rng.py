"""Deterministic random-stream derivation.

Every stochastic component draws from numpy's Philox generator. Philox is
counter-based, so its bit stream is stable across platforms and numpy
releases, and distinct keys give statistically independent streams.

Splitting rule: the child seed for index ``i`` under base seed ``s`` is the
first 64-bit word produced by ``SeedSequence(s, spawn_key=(i,))``. Sweeps,
per-trial stepwise streams, and synthetic event streams all derive their
generators through this rule, so any sub-stream can be reproduced in
isolation from ``(base_seed, index)`` alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SEED_MODULUS", "child_seed", "generator", "validate_seed"]

SEED_MODULUS = 2**64


def validate_seed(seed: int) -> int:
    """Return ``seed`` as an int; ValueError unless it is an unsigned 64-bit integer."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < SEED_MODULUS:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def child_seed(base_seed: int, index: int) -> int:
    """Derive the 64-bit seed of sub-stream ``index`` under ``base_seed``."""
    validate_seed(base_seed)
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    sequence = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(sequence.generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Philox generator for one fully specified seed."""
    validate_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
