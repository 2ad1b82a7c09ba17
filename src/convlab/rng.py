"""Deterministic random-stream derivation.

Every stochastic component draws from numpy's Philox generator. Philox is
counter-based, so its bit stream is stable across platforms and numpy
releases, and distinct keys give statistically independent streams.

Splitting rule: the child seed for index ``i`` under base seed ``s`` is the
first 64-bit word produced by ``SeedSequence(s, spawn_key=(i,))``. Sweeps,
per-trial stepwise streams, and synthetic event streams all derive their
generators through this rule, so any sub-stream can be reproduced in
isolation from ``(base_seed, index)`` alone.

``child_seed`` and ``generator`` derive one stream at a time and are the
reference. ``trial_generators`` is the fast path for many consecutive
streams: it computes the same child seeds and Philox keys for a block of
indices at once with SeedSequence's hash on numpy columns, then resets one
reused Philox to each key in turn. A Philox stream is fixed by its key
(Salmon et al., SC'11), so item ``i`` draws exactly what
``generator(child_seed(s, i))`` draws.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "SEED_MODULUS",
    "TRIAL_BLOCK",
    "child_seed",
    "generator",
    "trial_generators",
    "validate_seed",
]

SEED_MODULUS = 2**64
TRIAL_BLOCK = 2**16           # trials whose seeds and keys trial_generators derives at once

# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of four 32-bit
# words. The constants stay Python ints and every product is masked back to
# 32 bits, so uint64 columns never overflow and no numpy scalar warns.
_POOL_SIZE = 4
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def validate_seed(seed: int) -> int:
    """Return ``seed`` as an int; ValueError unless it is an unsigned 64-bit integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < SEED_MODULUS:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def _validate_count(name: str, value: int) -> int:
    """Return ``value`` as an int; ValueError unless it is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def child_seed(base_seed: int, index: int) -> int:
    """Derive the 64-bit seed of sub-stream ``index`` under ``base_seed``."""
    validate_seed(base_seed)
    index = _validate_count("stream index", index)
    sequence = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    return int(sequence.generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Philox generator for one fully specified seed."""
    validate_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def trial_generators(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield ``generator(child_seed(seed, i))``'s stream for i in range(count).

    Every item is the same Generator object, reset before it is yielded, so
    a caller must finish with one item before it asks for the next. ``count``
    is at most 2**32, the indices a one-word spawn key can hold.
    """
    seed = validate_seed(seed)
    count = _validate_count("count", count)
    if count > 2**32:
        raise ValueError(f"count must be at most 2**32, got {count}")
    return _reset_per_trial(seed, count)


def _reset_per_trial(seed: int, count: int) -> Iterator[np.random.Generator]:
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    keyed = {"counter": [0, 0, 0, 0], "key": (0, 0)}
    state = {
        "bit_generator": "Philox",
        "state": keyed,
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for start in range(0, count, TRIAL_BLOCK):
        indices = np.arange(start, min(start + TRIAL_BLOCK, count), dtype=np.uint64)
        (child,) = _generate_state(_mix_entropy(_words(seed) + [indices]), 1)
        low, high = _generate_state(_mix_entropy(_words(child)), 2)
        for keyed["key"] in zip(low.tolist(), high.tolist()):
            bit_generator.state = state
            yield rng


def _words(value) -> list:
    """A 64-bit seed (int or uint64 column) as SeedSequence's padded entropy words."""
    return [value & _MASK32, value >> 32, 0, 0]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _mix_entropy(words: list) -> list[np.ndarray]:
    """SeedSequence.mix_entropy on columns; at least one word is a uint64 array."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list, n_words: int) -> list[np.ndarray]:
    """SeedSequence.generate_state(n_words, np.uint64) on columns."""
    hash_const = _INIT_B
    halves = []
    for index in range(2 * n_words):
        value = pool[index % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> _XSHIFT))
    return [halves[2 * k] | (halves[2 * k + 1] << 32) for k in range(n_words)]
