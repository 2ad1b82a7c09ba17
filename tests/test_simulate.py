"""Monte Carlo engine: sampler exactness, determinism, resource guards."""

import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from conftest import DELTAS, geometric_chi_square
from convlab import simulate
from convlab.errors import ResourceLimitError
from convlab.rng import child_seed, generator
from convlab.simulate import (
    CHUNK_ROWS,
    SimConfig,
    TrialBatch,
    _sojourn_chunks,
    export_batch_csv,
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


@pytest.mark.parametrize("stages", [1, 4, 6])
@pytest.mark.parametrize("delta", [1.0, 0.3, 1e-9])
def test_chunked_sojourns_equal_one_inverted_draw(delta, stages):
    """Over three chunks, the last one partial, run_batch and run_histogram
    see the sojourns that inverting one (trials x stages) draw gives."""
    trials = 2 * CHUNK_ROWS + 3
    config = SimConfig(delta=delta, stages=stages, trials=trials, seed=5)
    if delta == 1.0:
        expected = np.ones((trials, stages), dtype=np.int64)
    else:
        draws = generator(5).random((trials, stages))
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
        def random(self, out):
            out.fill(0.0)

    config = SimConfig(delta=0.3, stages=2, trials=3)
    chunks = [chunk.copy() for chunk in _sojourn_chunks(config, ZeroDraws())]
    assert np.array_equal(np.concatenate(chunks), np.ones((3, 2), dtype=np.int64))


def test_degenerate_delta_one():
    batch = run_batch(SimConfig(delta=1.0, trials=50, seed=3))
    assert np.all(batch.sojourns == 1)
    assert np.all(batch.totals == 4)
    assert batch.success_rate == 1.0


# ---------------------------------------------------------------------------
# batch construction
# ---------------------------------------------------------------------------


def test_batches_are_deterministic():
    config = SimConfig(delta=0.4, trials=1000, seed=99)
    first = run_batch(config)
    second = run_batch(config)
    assert np.array_equal(first.sojourns, second.sojourns)
    assert np.array_equal(first.totals, second.totals)


def test_totals_and_flags_are_consistent():
    batch = run_batch(SimConfig(delta=0.2, trials=500, seed=8, success_cutoff=22))
    assert np.array_equal(batch.totals, batch.sojourns.sum(axis=1))
    assert np.array_equal(batch.success_flags, batch.totals <= 22)
    assert 0.0 < batch.success_rate < 1.0  # cutoff 22 at delta=0.2 splits the sample
    assert np.all(batch.sojourns >= 1)


def test_resource_metrics_recorded():
    batch = run_batch(SimConfig(delta=0.5, trials=100, seed=1))
    assert batch.runtime_seconds > 0.0
    assert batch.throughput_trials_per_second > 0.0
    assert batch.peak_memory_bytes >= 0


def test_batch_arrays_are_read_only():
    batch = run_batch(SimConfig(delta=0.5, trials=10, seed=1))
    with pytest.raises(ValueError):
        batch.sojourns[0, 0] = 5
    with pytest.raises(ValueError):
        batch.totals[0] = 5


def test_trial_batch_rejects_inconsistent_fields():
    batch = run_batch(SimConfig(delta=0.5, trials=10, seed=1))
    broken_totals = batch.totals.copy()
    broken_totals[0] += 1
    with pytest.raises(ValueError):
        TrialBatch(
            sojourns=batch.sojourns,
            totals=broken_totals,
            success_flags=batch.success_flags,
            config=batch.config,
            runtime_seconds=batch.runtime_seconds,
            throughput_trials_per_second=batch.throughput_trials_per_second,
            peak_memory_bytes=batch.peak_memory_bytes,
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 0.0},
        {"delta": 1.5},
        {"trials": 0},
        {"success_cutoff": 3},  # cannot finish four stages in three iterations
        {"seed": -1},
        {"seed": 2**64},
        {"stages": 0},
    ],
)
def test_sim_config_validation(kwargs):
    base = {"delta": 0.5, "trials": 10, "seed": 0}
    base.update(kwargs)
    with pytest.raises(ValueError):
        SimConfig(**base)


@pytest.mark.parametrize("name", ["trials", "stages", "success_cutoff"])
@pytest.mark.parametrize("value", [100.0, 4.0, True, np.float64(100.0)])
def test_sim_config_counts_must_be_integers(name, value):
    # True is below the default four stages, so its cutoff fails the range check
    with pytest.raises(ValueError, match=f"{name} must be "):
        SimConfig(delta=0.5, **{name: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"trials": -3}, "trials must be >= 1, got -3"),
        ({"stages": -1}, "stages must be >= 1, got -1"),
        ({"success_cutoff": 3}, "success_cutoff must be >= stages, got 3"),
    ],
)
def test_sim_config_out_of_range_counts_keep_their_messages(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(delta=0.5, **kwargs)


def test_sim_config_takes_numpy_integers_as_ints():
    config = SimConfig(
        delta=0.5, stages=np.int32(3), trials=np.int64(70), seed=np.uint64(9),
        success_cutoff=np.uint16(40),
    )
    assert asdict(config) == {
        "delta": 0.5, "stages": 3, "trials": 70, "seed": 9, "success_cutoff": 40,
    }
    assert all(type(value) is int for value in list(asdict(config).values())[1:])
    assert np.array_equal(
        run_batch(config).totals,
        run_batch(SimConfig(delta=0.5, stages=3, trials=70, seed=9, success_cutoff=40)).totals,
    )


@pytest.mark.parametrize("run", [run_batch, run_histogram])
@pytest.mark.parametrize("tracing", [False, True])
def test_a_raising_kernel_leaves_tracing_as_it_was(run, tracing, monkeypatch):
    def exhausted(config, rng):
        raise MemoryError("kernel out of memory")
        yield  # a generator, like the kernel it stands in for

    monkeypatch.setattr(simulate, "_sojourn_chunks", exhausted)
    if tracing:
        tracemalloc.start()
    try:
        with pytest.raises(MemoryError):
            run(SimConfig(delta=0.5, trials=100, seed=1))
        assert tracemalloc.is_tracing() is tracing
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", [run_batch, run_histogram])
@pytest.mark.parametrize("delta", [1e-300, 1e-18, 1.5e-17])
def test_delta_whose_totals_overflow_int64_is_rejected(run, delta):
    # at u = 2**-53 a sojourn reaches ceil(53 ln 2 / -ln(1 - delta)); four of
    # them pass 2**63 below delta ~ 1.6e-17, where the int64 cast would wrap
    with pytest.raises(ValueError, match="overflow int64"):
        run(SimConfig(delta=delta, trials=5, seed=1))


def test_smallest_delta_depends_on_stage_count():
    SimConfig(delta=1.6e-17, stages=4)
    SimConfig(delta=1.5e-17, stages=1)
    with pytest.raises(ValueError):
        SimConfig(delta=1.5e-17, stages=4)
    assert run_histogram(SimConfig(delta=1e-7, trials=5, seed=1)).values.min() > 4


def test_cell_budget_checked_before_allocation():
    with pytest.raises(ResourceLimitError):
        run_batch(SimConfig(delta=0.5, trials=300, seed=0), max_cells=1000)
    # default budget: four-stage trials up to 2**26 are admissible
    run_batch(SimConfig(delta=0.5, trials=64, seed=0), max_cells=256)


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


def test_export_batch_csv(tmp_path):
    batch = run_batch(SimConfig(delta=0.5, trials=5, seed=1))
    out = tmp_path / "batch.csv"
    export_batch_csv(batch, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,stage1,stage2,stage3,stage4,total,success"
    assert len(lines) == 6
    for trial, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == trial
        assert [int(c) for c in cells[1:5]] == list(batch.sojourns[trial])
        assert int(cells[5]) == batch.totals[trial]
        assert cells[6] == "1"
    sidecar = json.loads((tmp_path / "batch.csv.meta.json").read_text())
    assert sidecar == {"config": asdict(batch.config), "seed": 1}
    # the sidecar carries no wall-clock field, so a second export is byte-identical
    again = tmp_path / "again.csv"
    export_batch_csv(run_batch(batch.config), again)
    assert again.read_bytes() == out.read_bytes()
    assert (tmp_path / "again.csv.meta.json").read_bytes() == (
        tmp_path / "batch.csv.meta.json"
    ).read_bytes()
