"""Monte Carlo engine: sampler exactness, determinism, resource guards."""

import math
import threading
import tracemalloc
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import DELTAS, geometric_chi_square, histogram_workers
from convlab import simulate
from convlab.cli import main
from convlab.errors import ResourceLimitError
from convlab.rng import child_seed, generator
from convlab.simulate import (
    CHUNK_ROWS,
    SimConfig,
    TrialBatch,
    _sojourn_chunk,
    run_batch,
    run_histogram,
    run_sweep,
    sample_geometric,
)

# chi-square critical value at 0.999 for 20 degrees of freedom
CHI_CRIT_999_DOF20 = 45.31474661812586


# ---------------------------------------------------------------------------
# geometric sampler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "delta,draw,expected",
    [
        (0.5, 0.6, 1),
        (0.5, 0.2, 3),
        (0.5, 0.5000001, 1),
        (1.0, 0.99, 1),
        (0.1, 0.0001, 88),
    ],
)
def test_sample_geometric_values(delta, draw, expected):
    assert sample_geometric(delta, draw) == expected


def test_sample_geometric_validation():
    with pytest.raises(ValueError):
        sample_geometric(0.0, 0.5)
    with pytest.raises(ValueError):
        sample_geometric(1.2, 0.5)
    with pytest.raises(ValueError):
        sample_geometric(0.5, 1.0)  # draws live strictly inside (0, 1)
    with pytest.raises(ValueError):
        sample_geometric(0.5, 0.0)


def test_vectorized_sampler_agrees_with_scalar():
    """The batch path consumes one uniform block, maps each draw u to 1-u,
    and transforms with the same log/log1p kernel as the scalar reference."""
    config = SimConfig(delta=0.3, trials=200, seed=11)
    batch = run_batch(config)
    draws = generator(11).random((200, 4))
    expected = np.array(
        [[sample_geometric(0.3, float(1.0 - draw)) for draw in row] for row in draws]
    )
    assert np.array_equal(batch.sojourns, expected)


@pytest.mark.parametrize("chunk_rows", [5, 6, 7, CHUNK_ROWS])
@pytest.mark.parametrize("delta", [1.0, 0.3, 1e-9])
def test_chunked_sojourns_equal_one_inverted_draw(delta, chunk_rows, monkeypatch):
    """Over three chunks, the last one partial, run_batch and run_histogram
    see the sojourns that inverting one (trials x 4) draw gives. A chunk
    starts `first` counter steps in, one per trial, so its size need not
    be a multiple of 4."""
    monkeypatch.setattr(simulate, "CHUNK_ROWS", chunk_rows)
    trials = 2 * chunk_rows + 3
    config = SimConfig(delta=delta, trials=trials, seed=5)
    if delta == 1.0:
        expected = np.ones((trials, 4), dtype=np.int64)
    else:
        draws = generator(5).random((trials, 4))
        expected = np.ceil(np.log(1.0 - draws) / np.log1p(-delta)).astype(np.int64)
        expected = np.maximum(expected, 1)
    assert np.array_equal(run_batch(config).sojourns, expected)
    values, counts = np.unique(expected.sum(axis=1), return_counts=True)
    histogram = run_histogram(config)
    assert np.array_equal(histogram.values, values)
    assert np.array_equal(histogram.counts, counts)


def test_zero_draw_inverts_to_one_iteration():
    """A uniform of exactly 0.0 (probability 2**-53 per draw) maps to 1 - u =
    1.0, whose inversion is ceil(-0.0) = 0; the kernel lifts it to 1."""

    class ZeroDraws:
        bit_generator = SimpleNamespace(state=None, advance=lambda steps: None)

        def random(self, out):
            out.fill(0.0)

    config = SimConfig(delta=0.3, trials=3)
    chunk = _sojourn_chunk(config, None, 0, ZeroDraws(), np.empty(12))
    assert np.array_equal(chunk, np.ones((3, 4), dtype=np.int64))


def test_degenerate_delta_one():
    batch = run_batch(SimConfig(delta=1.0, trials=50, seed=3))
    assert np.all(batch.sojourns == 1)
    assert np.all(batch.totals == 4)


# ---------------------------------------------------------------------------
# batch construction
# ---------------------------------------------------------------------------


def test_batches_are_deterministic():
    config = SimConfig(delta=0.4, trials=1000, seed=99)
    first = run_batch(config)
    second = run_batch(config)
    assert np.array_equal(first.sojourns, second.sojourns)
    assert np.array_equal(first.totals, second.totals)


def test_totals_are_the_sojourn_row_sums():
    batch = run_batch(SimConfig(delta=0.2, trials=500, seed=8))
    assert np.array_equal(batch.totals, batch.sojourns.sum(axis=1))
    assert np.all(batch.sojourns >= 1)


def test_batch_arrays_are_read_only():
    batch = run_batch(SimConfig(delta=0.5, trials=10, seed=1))
    with pytest.raises(ValueError):
        batch.sojourns[0, 0] = 5
    with pytest.raises(ValueError):
        batch.totals[0] = 5


def test_trial_batch_is_plain_data_without_self_timing():
    names = [field.name for field in fields(TrialBatch)]
    assert names == ["sojourns", "totals", "config"]


def test_trial_batch_rejects_inconsistent_fields():
    batch = run_batch(SimConfig(delta=0.5, trials=10, seed=1))
    broken_totals = batch.totals.copy()
    broken_totals[0] += 1
    with pytest.raises(ValueError):
        TrialBatch(sojourns=batch.sojourns, totals=broken_totals, config=batch.config)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 0.0},
        {"delta": 1.5},
        {"trials": 0},
        {"seed": -1},
        {"seed": 2**64},
    ],
)
def test_sim_config_validation(kwargs):
    base = {"delta": 0.5, "trials": 10, "seed": 0}
    base.update(kwargs)
    with pytest.raises(ValueError):
        SimConfig(**base)


@pytest.mark.parametrize("value", [100.0, 4.0, True, np.float64(100.0)])
def test_sim_config_trials_must_be_an_integer(value):
    with pytest.raises(ValueError, match="trials must be an integer"):
        SimConfig(delta=0.5, trials=value)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"trials": -3}, "trials must be >= 1, got -3"),
    ],
)
def test_sim_config_out_of_range_counts_keep_their_messages(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(delta=0.5, **kwargs)


def test_sim_config_takes_numpy_integers_as_ints():
    config = SimConfig(delta=0.5, trials=np.int64(70), seed=np.uint64(9))
    assert asdict(config) == {"delta": 0.5, "trials": 70, "seed": 9}
    assert all(type(value) is int for value in list(asdict(config).values())[1:])
    assert np.array_equal(
        run_batch(config).totals,
        run_batch(SimConfig(delta=0.5, trials=70, seed=9)).totals,
    )


@pytest.mark.parametrize("run", [run_batch, run_histogram])
@pytest.mark.parametrize("tracing", [False, True])
def test_a_raising_kernel_leaves_tracing_as_it_was(run, tracing, monkeypatch):
    def exhausted(config, start, index, rng, block):
        raise MemoryError("kernel out of memory")

    monkeypatch.setattr(simulate, "_sojourn_chunk", exhausted)
    threads = threading.active_count()
    if tracing:
        tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            run(SimConfig(delta=0.5, trials=100, seed=1))
        assert tracemalloc.is_tracing() is tracing
    finally:
        tracemalloc.stop()
    assert threading.active_count() == threads


def fail_on_worker_threads(monkeypatch):
    """Make the kernel raise MemoryError on every chunk a worker thread
    claims. The calling thread waits until a worker has claimed one, then
    draws its own chunk as usual."""
    kernel = simulate._sojourn_chunk
    claimed = threading.Event()

    def failing(*args):
        if threading.current_thread() is threading.main_thread():
            assert claimed.wait(timeout=60)
            return kernel(*args)
        claimed.set()
        raise MemoryError("kernel out of memory")

    monkeypatch.setattr(simulate, "_sojourn_chunk", failing)


@pytest.mark.parametrize("tracing", [False, True])
def test_a_kernel_raising_on_a_worker_thread_leaves_tracing_as_it_was(tracing, monkeypatch):
    fail_on_worker_threads(monkeypatch)
    config = SimConfig(delta=0.5, trials=3 * CHUNK_ROWS, seed=1)
    threads = threading.active_count()
    if tracing:
        tracemalloc.start()
    try:
        with histogram_workers(2), pytest.raises(MemoryError, match="kernel out of memory"):
            run_histogram(config)
        assert tracemalloc.is_tracing() is tracing
    finally:
        tracemalloc.stop()
    assert threading.active_count() == threads


def test_sweep_exits_4_when_a_worker_thread_runs_out_of_memory(monkeypatch, capsys):
    fail_on_worker_threads(monkeypatch)
    threads = threading.active_count()
    with histogram_workers(2):
        code = main(["sweep", "--deltas", "0.3,0.6", "--trials", str(2 * CHUNK_ROWS), "--seed", "1"])
    assert code == 4
    assert capsys.readouterr().err == "error: out of memory: kernel out of memory\n"
    assert not tracemalloc.is_tracing()
    assert threading.active_count() == threads


@pytest.mark.parametrize("run", [run_batch, run_histogram])
@pytest.mark.parametrize("delta", [1e-300, 1e-18, 1.5e-17])
def test_delta_whose_totals_overflow_int64_is_rejected(run, delta):
    # at u = 2**-53 a sojourn reaches ceil(53 ln 2 / -ln(1 - delta)); four of
    # them pass 2**63 below delta ~ 1.6e-17, where the int64 cast would wrap
    with pytest.raises(ValueError, match="overflow int64"):
        run(SimConfig(delta=delta, trials=5, seed=1))


def test_smallest_delta_is_where_four_stage_totals_overflow():
    SimConfig(delta=1.6e-17)
    with pytest.raises(ValueError, match="4-stage totals would overflow int64"):
        SimConfig(delta=1.5e-17)
    assert run_histogram(SimConfig(delta=1e-7, trials=5, seed=1)).values.min() > 4


def test_cell_budget_checked_before_allocation(monkeypatch):
    monkeypatch.setattr(simulate, "DEFAULT_CELL_BUDGET", 1000)
    with pytest.raises(ResourceLimitError):
        run_batch(SimConfig(delta=0.5, trials=300, seed=0))
    # a batch of exactly the budget is admissible
    monkeypatch.setattr(simulate, "DEFAULT_CELL_BUDGET", 256)
    run_batch(SimConfig(delta=0.5, trials=64, seed=0))


# ---------------------------------------------------------------------------
# distributional invariants
# ---------------------------------------------------------------------------


def test_million_trial_means_track_theory(million_totals):
    for delta, totals in million_totals.items():
        sigma = math.sqrt(4.0 * (1.0 - delta)) / delta
        bound = 4.0 * sigma / math.sqrt(totals.size)
        assert abs(totals.mean() - 4.0 / delta) < bound


@pytest.mark.parametrize("delta", [0.1, 0.2, 0.3])
def test_sojourn_column_is_geometric(delta):
    """Chi-square goodness of fit on the first stage column, 100 seeded
    replays; the 0.999 critical value may be exceeded a handful of times.

    Restricted to deltas where all 21 cells keep expected counts above ~1;
    for larger delta the bins beyond k~15 expect far less than one sample
    and the chi-square null calibration breaks down.
    """
    passes = 0
    for replay in range(100):
        batch = run_batch(
            SimConfig(delta=delta, trials=10_000, seed=child_seed(1234, replay))
        )
        statistic = geometric_chi_square(batch.sojourns[:, 0], delta)
        passes += statistic < CHI_CRIT_999_DOF20
    assert passes >= 95


# ---------------------------------------------------------------------------
# sweeps and export
# ---------------------------------------------------------------------------


def test_sweep_splits_seeds_per_batch():
    batches = run_sweep([0.2, 0.5], 100, 77)
    assert batches[0].config.seed == child_seed(77, 0)
    assert batches[1].config.seed == child_seed(77, 1)
    again = run_sweep([0.2, 0.5], 100, 77)
    for left, right in zip(batches, again):
        assert np.array_equal(left.sojourns, right.sojourns)


def test_sweep_batches_differ_across_indices():
    batches = run_sweep([0.5, 0.5], 100, 77)
    assert not np.array_equal(batches[0].sojourns, batches[1].sojourns)


def test_campaign_covers_all_deltas(campaign_batches):
    assert [batch.config.delta for batch in campaign_batches] == DELTAS
    for batch in campaign_batches:
        assert batch.config.trials == 10_000
