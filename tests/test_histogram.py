"""The chunked histogram path against the per-trial reference path.

`run_histogram` and the histogram reducers in `stats` serve the CLI;
`run_batch`, `np.unique` and `nearest_rank_percentile` are the slow
references they must reproduce exactly.
"""

import sys
import threading
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from conftest import histogram_workers
from convlab import simulate
from convlab.errors import EmptyInputError, InsufficientDataError, ResourceLimitError
from convlab.simulate import (
    CHUNK_ROWS,
    DENSE_LIMIT,
    SimConfig,
    TotalsHistogram,
    _sojourn_chunk,
    count_totals,
    run_batch,
    run_histogram,
)
from convlab.rng import generator
from convlab.stats import (
    histogram_ccdf,
    histogram_mean,
    histogram_percentiles,
    nearest_rank_percentile,
    summarize,
    summarize_histogram,
)

PERCENTILES = (1, 25, 50, 75, 99, 99.9, 100)

deltas = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-10, max_value=1e-6),
    st.floats(min_value=1e-6, max_value=1.0, exclude_min=True),
)
trial_counts = st.sampled_from(
    [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3]
)


@settings(max_examples=25, deadline=None)
@given(delta=deltas, trials=trial_counts, seed=st.sampled_from([0, 2**64 - 1]))
def test_histogram_path_matches_reference(delta, trials, seed):
    config = SimConfig(delta=delta, trials=trials, seed=seed)
    totals = run_batch(config).totals
    histogram = run_histogram(config)
    values, counts = np.unique(totals, return_counts=True)
    assert histogram.values.dtype == values.dtype
    assert histogram.counts.dtype == counts.dtype
    assert np.array_equal(histogram.values, values)
    assert np.array_equal(histogram.counts, counts)

    assert histogram_percentiles(values, counts, PERCENTILES) == [
        nearest_rank_percentile(totals, p) for p in PERCENTILES
    ]

    exact = [int(total) for total in totals.tolist()]
    s1 = sum(exact)
    mean = histogram_mean(values, counts)
    assert mean == float(Fraction(s1, trials))
    if s1 < 2**53:  # the float64 sum inside totals.mean() is exact
        assert mean == totals.mean()

    probs = histogram_ccdf(histogram.values, histogram.counts)
    assert probs.dtype == np.float64
    assert np.array_equal(probs, (totals.size - np.cumsum(counts)) / totals.size)

    if trials >= 2:
        summary = summarize_histogram(histogram)
        s2 = sum(total * total for total in exact)
        assert summary.mean == mean
        assert summary.variance == float(
            Fraction(trials * s2 - s1 * s1, trials * (trials - 1))
        )


configs = st.builds(
    SimConfig,
    delta=deltas,
    trials=trial_counts,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


@settings(max_examples=30, deadline=None)
@given(config=configs, count=st.integers(2, 4))
@example(config=SimConfig(delta=1.0, trials=CHUNK_ROWS + 1), count=4)
@example(  # totals past DENSE_LIMIT, whose overflow merges across workers
    config=SimConfig(delta=1e-6, trials=2 * CHUNK_ROWS + 3, seed=7), count=4
)
def test_the_worker_count_does_not_change_the_histograms(config, count):
    threads = threading.active_count()
    with histogram_workers(1):
        serial = run_histogram(config)
    with histogram_workers(count):
        parallel = run_histogram(config)
    assert threading.active_count() == threads
    batch = run_batch(config)
    values, counts = np.unique(batch.totals, return_counts=True)
    for histogram in (serial, parallel):
        assert histogram.config == config
        assert np.array_equal(histogram.values, values)
        assert np.array_equal(histogram.counts, counts)

    # any chunk drawn alone, here last to first, holds its rows of the batch
    start = generator(config.seed).bit_generator.state
    rng = np.random.Generator(np.random.Philox(0))
    block = np.empty(CHUNK_ROWS * config.stages)
    for index in reversed(range(-(-config.trials // CHUNK_ROWS))):
        chunk = _sojourn_chunk(config, start, index, rng, block)
        rows = batch.sojourns[index * CHUNK_ROWS : (index + 1) * CHUNK_ROWS]
        assert np.array_equal(chunk, rows)


def test_workers_claim_every_chunk_exactly_once_under_frequent_switches():
    # more workers than cores, a thread switch every microsecond and many
    # chunks: a chunk claimed twice or never would change some count
    batches = [SimConfig(delta=0.5, trials=40 * CHUNK_ROWS + 1, seed=seed) for seed in range(3)]
    batches.append(SimConfig(delta=0.2, trials=3 * CHUNK_ROWS + 1, seed=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with histogram_workers(4):
            parallel = [run_histogram(config) for config in batches]
    finally:
        sys.setswitchinterval(interval)
    with histogram_workers(1):
        serial = [run_histogram(config) for config in batches]
    for one, many in zip(serial, parallel, strict=True):
        assert np.array_equal(one.values, many.values)
        assert np.array_equal(one.counts, many.counts)


@pytest.mark.parametrize(("delta", "seed"), [(0.05, 1), (0.3, 2), (0.9, 3)])
def test_moments_match_scipy(delta, seed):
    batch = run_batch(SimConfig(delta=delta, trials=20_000, seed=seed))
    summary = summarize(batch)
    described = scipy_stats.describe(batch.totals.astype(float))
    assert summary.mean == pytest.approx(described.mean, rel=1e-12)
    assert summary.variance == pytest.approx(described.variance, rel=1e-9)
    assert summary.std == pytest.approx(np.sqrt(described.variance), rel=1e-9)


def test_count_totals_merges_dense_and_overflow_ranges():
    totals = np.array([5, DENSE_LIMIT, 0, 10**12, DENSE_LIMIT - 1, 5, DENSE_LIMIT])
    values, counts = count_totals(totals)
    expected_values, expected_counts = np.unique(totals, return_counts=True)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(counts, expected_counts)


@pytest.mark.parametrize("totals", [np.array([1.0, 2.0]), np.array([3, -1])])
def test_count_totals_rejects_non_counts(totals):
    with pytest.raises(ValueError):
        count_totals(totals)


def test_reducers_reject_empty_histograms():
    empty = np.array([], dtype=np.int64)
    for reduce in (
        lambda: histogram_percentiles(empty, empty, (50,)),
        lambda: histogram_mean(empty, empty),
        lambda: histogram_ccdf(empty, empty),
    ):
        with pytest.raises(EmptyInputError):
            reduce()
    with pytest.raises(ValueError):
        histogram_percentiles(np.array([4]), np.array([1]), (0,))


def test_summarize_histogram_requires_two_trials():
    with pytest.raises(InsufficientDataError):
        summarize_histogram(run_histogram(SimConfig(delta=0.5, trials=1)))


def test_histogram_of_degenerate_delta_draws_nothing():
    histogram = run_histogram(SimConfig(delta=1.0, trials=CHUNK_ROWS + 7))
    assert histogram.values.tolist() == [4]
    assert histogram.counts.tolist() == [CHUNK_ROWS + 7]


def test_histogram_is_plain_data_with_read_only_arrays():
    histogram = run_histogram(SimConfig(delta=0.2, trials=5_000, seed=1))
    # plain data: no wall-clock or memory field rides along with the counts
    assert [field.name for field in fields(TotalsHistogram)] == ["config", "values", "counts"]
    with pytest.raises(ValueError):
        histogram.counts[0] = 0


def test_from_batch_equals_run_histogram():
    config = SimConfig(delta=0.4, trials=1_000, seed=5)
    batch = run_batch(config)
    histogram = TotalsHistogram.from_batch(batch)
    direct = run_histogram(config)
    assert histogram.config == direct.config == batch.config
    assert np.array_equal(histogram.values, direct.values)
    assert np.array_equal(histogram.counts, direct.counts)


# one refused case each: (id, values, counts) for a config of 2 trials at delta 0.5
REFUSED = [
    ("values-a-list", [4, 5], np.array([1, 1]), "values must be a 1-d int64 array"),
    ("values-float", np.array([4.0, 5.0]), np.array([1, 1]), "values must be a 1-d int64"),
    ("counts-int32", np.array([4, 5]), np.array([1, 1], dtype=np.int32),
     "counts must be a 1-d int64"),
    ("values-2-d", np.array([[4, 5]]), np.array([1, 1]), "values must be a 1-d int64"),
    ("lengths-differ", np.array([4, 5, 6]), np.array([1, 1]), "differ in length"),
    ("count-zero", np.array([4, 5, 6]), np.array([1, 0, 1]), "counts must be positive"),
    ("count-negative", np.array([4, 5, 6]), np.array([2, -1, 1]), "counts must be positive"),
    ("counts-sum-past-trials", np.array([4, 5]), np.array([1, 2]), "sum to the 2 trials"),
    ("no-values", np.array([], dtype=np.int64), np.array([], dtype=np.int64),
     "sum to the 2 trials"),
    # totals 1 and 2 once summarized to an efficiency of 2.67
    ("values-below-stages", np.array([1, 2]), np.array([1, 1]), "from at least 4"),
    ("values-repeat", np.array([4, 4]), np.array([1, 1]), "increase strictly"),
    ("values-decrease", np.array([5, 4]), np.array([1, 1]), "increase strictly"),
]


@pytest.mark.parametrize(("values", "counts", "message"), [row[1:] for row in REFUSED],
                         ids=[row[0] for row in REFUSED])
def test_histogram_refuses_what_no_batch_could_give(values, counts, message):
    with pytest.raises(ValueError, match=message):
        TotalsHistogram(SimConfig(delta=0.5, trials=2, seed=0), values, counts)


@settings(max_examples=15, deadline=None)
@given(
    delta=deltas,
    trials=st.one_of(
        st.integers(1, 3 * 2**16),
        st.sampled_from([2**12 - 1, 2**12, 2**15 - 1, 2**15, 2**15 + 1, 2**16, 2**16 + 3]),
    ),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@example(delta=0.1, trials=200_003, seed=1)
@example(delta=1e-6, trials=70_001, seed=2)  # every total passes DENSE_LIMIT
@example(delta=1.0, trials=5, seed=3)
def test_the_chunk_size_does_not_change_the_results(delta, trials, seed):
    config = SimConfig(delta=delta, trials=trials, seed=seed)
    totals = run_batch(config).totals
    values, counts = np.unique(totals, return_counts=True)
    for rows in (2**12, 2**14, 2**15, 2**16):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "CHUNK_ROWS", rows)
            histogram = run_histogram(config)
            assert np.array_equal(run_batch(config).totals, totals)
        assert np.array_equal(histogram.values, values)
        assert np.array_equal(histogram.counts, counts)


def test_histogram_cell_budget_matches_run_batch(monkeypatch):
    monkeypatch.setattr(simulate, "DEFAULT_CELL_BUDGET", 1000)
    with pytest.raises(ResourceLimitError):
        run_histogram(SimConfig(delta=0.5, trials=300, seed=0))
    monkeypatch.setattr(simulate, "DEFAULT_CELL_BUDGET", 256)
    run_histogram(SimConfig(delta=0.5, trials=64, seed=0))


def traced_peak_bytes(config):
    """Peak traced memory of one run_histogram call."""
    tracemalloc.start()
    try:
        run_histogram(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_workers_chunk_buffers_fit_in_l2():
    # per row: float sojourns (4 stages), int64 totals and an int64 column. The
    # chunk size was benchmarked against a 2 MiB L2 per core (BENCH_29.json); a
    # larger chunk streams every pass of the kernel from L3, so re-benchmark it
    config = SimConfig(delta=0.5, trials=CHUNK_ROWS + 1, seed=0)
    worker = simulate._Worker(config, generator(config.seed).bit_generator.state)
    working_set = worker.block.nbytes + worker.totals.nbytes + worker.column.nbytes
    assert working_set == CHUNK_ROWS * (4 * 8 + 8 + 8)
    assert working_set <= 3 * 2**19


def test_histogram_memory_is_bounded_by_the_chunk(monkeypatch):
    # a host with many CPUs: the worker cap alone sets the worker count
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    small = traced_peak_bytes(SimConfig(delta=0.5, trials=4 * CHUNK_ROWS, seed=0))
    large = traced_peak_bytes(SimConfig(delta=0.5, trials=32 * CHUNK_ROWS, seed=0))
    # per worker and row: float sojourns (4 stages), int64 totals and an int64 column;
    # 2 workers is the count whose peak RSS was benchmarked, so a higher cap fails here
    workers = 2
    assert large < workers * CHUNK_ROWS * (4 * 8 + 8 + 8) + 2**16
    assert large <= small + 2**16
