"""Stream derivation: the bulk per-trial path against the one-stream reference."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import rng as rng_module
from convlab.rng import (
    SEED_MODULUS,
    TRIAL_BLOCK,
    child_seed,
    generator,
    trial_generators,
    validate_seed,
)

EDGE_BASES = [0, 2**32 - 1, 2**32, 2**64 - 1]
bases = st.one_of(st.sampled_from(EDGE_BASES), st.integers(0, SEED_MODULUS - 1))
# Philox buffers four doubles, so these lengths stop before, on and past a refill.
draw_lengths = st.sampled_from([1, 3, 4, 5, 9])


def assert_same_state(fast, reference):
    """Both generators sit at the same Philox key, counter and buffer."""
    ours, theirs = fast.bit_generator.state, reference.bit_generator.state
    for field in ("key", "counter"):
        assert np.array_equal(ours["state"][field], theirs["state"][field])
    assert np.array_equal(ours["buffer"], theirs["buffer"])
    for field in ("buffer_pos", "has_uint32", "uinteger"):
        assert ours[field] == theirs[field]


@settings(max_examples=60, deadline=None)
@given(
    base=bases,
    count=st.integers(1, 120),
    block=st.integers(1, 7),
    length=draw_lengths,
)
def test_trial_streams_match_reference_across_small_blocks(base, count, block, length):
    with mock.patch.object(rng_module, "TRIAL_BLOCK", block):
        items = trial_generators(base, count)
        seen = 0
        for index, fast in enumerate(items):
            reference = generator(child_seed(base, index))
            assert_same_state(fast, reference)
            assert np.array_equal(fast.random(length), reference.random(length))
            seen += 1
    assert seen == count


@settings(max_examples=40, deadline=None)
@given(base=bases, count=st.integers(1, 40), length=draw_lengths)
def test_trial_streams_match_reference_in_one_block(base, count, length):
    for index, fast in enumerate(trial_generators(base, count)):
        reference = generator(child_seed(base, index))
        assert np.array_equal(fast.random(length), reference.random(length))
        assert np.array_equal(
            fast.integers(0, 2**40, size=length), reference.integers(0, 2**40, size=length)
        )


@pytest.mark.parametrize("base", EDGE_BASES + [42])
def test_trial_streams_cross_the_real_block_boundary(base):
    count = TRIAL_BLOCK + 3
    checked = {0, 1, TRIAL_BLOCK - 1, TRIAL_BLOCK, TRIAL_BLOCK + 2}
    seen = 0
    for index, fast in enumerate(trial_generators(base, count)):
        seen += 1
        if index in checked:
            reference = generator(child_seed(base, index))
            assert_same_state(fast, reference)
            assert np.array_equal(fast.random(5), reference.random(5))
    assert seen == count


def test_half_used_uint32_does_not_leak_into_the_next_trial():
    items = trial_generators(3, 2)
    first = next(items)
    first.integers(0, 10, dtype=np.uint32)
    assert first.bit_generator.state["has_uint32"] == 1
    second = next(items)
    reference = generator(child_seed(3, 1))
    assert_same_state(second, reference)
    assert np.array_equal(
        second.integers(0, 10, size=3, dtype=np.uint32),
        reference.integers(0, 10, size=3, dtype=np.uint32),
    )


def test_zero_count_yields_nothing():
    assert list(trial_generators(7, 0)) == []


def test_largest_count_is_accepted_and_one_past_it_is_refused_at_once():
    first = next(trial_generators(9, 2**32))
    assert_same_state(first, generator(child_seed(9, 0)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2\\*\\*32"):
            trial_generators(9, 2**32 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "seed, count",
    [(True, 3), (-1, 3), (2**64, 3), (1.0, 3), (1, -1), (1, 2.0), (1, True)],
)
def test_trial_generators_validates_eagerly(seed, count):
    with pytest.raises(ValueError):
        trial_generators(seed, count)


# ---------------------------------------------------------------------------
# the one-stream reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [True, False, np.bool_(True), 1.0, "1", None])
def test_validate_seed_rejects_non_integers(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        validate_seed(seed)


def test_validate_seed_accepts_numpy_integers():
    assert validate_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    assert type(validate_seed(np.int32(5))) is int


@pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None])
def test_child_seed_rejects_a_non_integer_index(index):
    with pytest.raises(ValueError, match="stream index must be an integer"):
        child_seed(1, index)


def test_child_seed_rejects_a_negative_index():
    with pytest.raises(ValueError, match="stream index must be non-negative"):
        child_seed(1, -1)


def test_child_seed_accepts_numpy_integer_indices():
    assert child_seed(1, np.int64(3)) == child_seed(1, np.uint64(3)) == child_seed(1, 3)


def test_child_seed_rejects_a_bool_base_seed():
    with pytest.raises(ValueError, match="seed must be an integer"):
        child_seed(True, 0)
