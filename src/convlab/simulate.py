"""Vectorized Monte Carlo engine for the retry pipeline.

A trial is one pipeline run: each stage retries until it succeeds, so the
per-stage iteration count is geometric on {1, 2, ...} and the trial total is
their sum. A batch is generated in a handful of array operations: draw a
(trials x stages) uniform block, invert the geometric CDF, row-sum.

Two paths share that recipe. `run_batch` is the per-trial reference: it keeps
every sojourn in one block. `run_histogram` is the fast path behind the CLI:
it draws CHUNK_ROWS rows at a time into one reused buffer and keeps only the
histogram of totals, so its memory does not grow with the trial count.
Consecutive Philox draws equal one big draw, so both paths see the same
totals bit for bit.

Sampling uses inversion, k = ceil(ln(u) / ln(1 - delta)) with u in (0, 1),
which reproduces the geometric law exactly rather than simulating repeated
attempts. Batches are bit-reproducible: the same config always yields the
same arrays (see rng module for the stream derivation).
"""

from __future__ import annotations

import csv
import json
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ResourceLimitError
from .rng import child_seed, generator, validate_seed

__all__ = [
    "DEFAULT_SUCCESS_CUTOFF",
    "DEFAULT_CELL_BUDGET",
    "CHUNK_ROWS",
    "DENSE_LIMIT",
    "SimConfig",
    "TrialBatch",
    "TotalsHistogram",
    "sample_geometric",
    "count_totals",
    "run_batch",
    "run_histogram",
    "sweep_configs",
    "run_sweep",
    "export_batch_csv",
]

DEFAULT_SUCCESS_CUTOFF = 1000
DEFAULT_CELL_BUDGET = 2**28   # sojourn cells; 4-stage batches cap at ~67M trials
CHUNK_ROWS = 2**16            # trials drawn per chunk by run_histogram
DENSE_LIMIT = 2**16           # totals below this are counted in a dense array

T = TypeVar("T")


@dataclass(frozen=True)
class SimConfig:
    """One batch request: pipeline shape, trial count, seed, success cutoff."""

    delta: float
    stages: int = 4
    trials: int = 10_000
    seed: int = 0
    success_cutoff: int = DEFAULT_SUCCESS_CUTOFF

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        validate_seed(self.seed)
        if self.success_cutoff < self.stages:
            raise ValueError(
                f"success_cutoff must be >= stages, got {self.success_cutoff}"
            )


@dataclass(frozen=True)
class TrialBatch:
    """Immutable results of one batch plus its resource metrics."""

    sojourns: np.ndarray            # (trials, stages) int64, iterations per stage
    totals: np.ndarray              # (trials,) int64 row sums
    success_flags: np.ndarray       # (trials,) bool, totals <= success_cutoff
    config: SimConfig
    runtime_seconds: float
    throughput_trials_per_second: float
    peak_memory_bytes: int

    def __post_init__(self) -> None:
        sojourns = np.asarray(self.sojourns)
        totals = np.asarray(self.totals)
        flags = np.asarray(self.success_flags)
        if sojourns.shape != (self.config.trials, self.config.stages):
            raise ValueError("sojourn matrix shape does not match config")
        if np.any(sojourns < 1):
            raise ValueError("sojourn counts must be >= 1")
        if not np.array_equal(totals, sojourns.sum(axis=1)):
            raise ValueError("totals must equal sojourn row sums")
        if not np.array_equal(flags, totals <= self.config.success_cutoff):
            raise ValueError("success flags must equal totals <= success_cutoff")
        if self.runtime_seconds <= 0.0:
            raise ValueError("runtime_seconds must be positive")
        for name, arr in (("sojourns", sojourns), ("totals", totals), ("success_flags", flags)):
            arr = arr.copy() if not arr.flags.owndata else arr
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def success_rate(self) -> float:
        return float(self.success_flags.mean())


@dataclass(frozen=True)
class TotalsHistogram:
    """Distinct trial totals of one config and how often each occurred.

    `values` and `counts` are exactly `np.unique(totals, return_counts=True)`
    of the totals `run_batch` draws for the same config. The resource metrics
    cover generation plus histogram accumulation.
    """

    config: SimConfig
    values: np.ndarray              # (distinct,) int64, increasing
    counts: np.ndarray              # (distinct,) int64, positive, sum = trials
    runtime_seconds: float
    throughput_trials_per_second: float
    peak_memory_bytes: int

    def __post_init__(self) -> None:
        for arr in (self.values, self.counts):
            arr.setflags(write=False)

    @classmethod
    def from_batch(cls, batch: TrialBatch) -> "TotalsHistogram":
        """The histogram of a reference batch, carrying its resource metrics."""
        values, counts = count_totals(batch.totals)
        return cls(
            config=batch.config,
            values=values,
            counts=counts,
            runtime_seconds=batch.runtime_seconds,
            throughput_trials_per_second=batch.throughput_trials_per_second,
            peak_memory_bytes=batch.peak_memory_bytes,
        )

    @property
    def success_rate(self) -> float:
        successes = int(self.counts[self.values <= self.config.success_cutoff].sum())
        return successes / int(self.counts.sum())


class _TotalsCounter:
    """Histogram of non-negative int64 totals, fed one array at a time.

    Totals below DENSE_LIMIT go to a dense bincount. Larger ones are kept raw
    and reduced once by np.unique: tiny deltas have unbounded support, and a
    dense array over it would need gigabytes.
    """

    def __init__(self) -> None:
        self._dense = np.zeros(0, dtype=np.int64)  # grows up to DENSE_LIMIT
        self._overflow: list[np.ndarray] = []

    def add(self, totals: np.ndarray) -> None:
        if totals.size == 0:
            return
        if totals.max() >= DENSE_LIMIT:
            large = totals >= DENSE_LIMIT
            self._overflow.append(totals[large])
            totals = totals[~large]
        counts = np.bincount(totals)
        if counts.size > self._dense.size:
            counts[: self._dense.size] += self._dense
            self._dense = counts
        else:
            self._dense[: counts.size] += counts

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        values = np.flatnonzero(self._dense).astype(np.int64, copy=False)
        counts = self._dense[values]
        if self._overflow:
            large, large_counts = np.unique(
                np.concatenate(self._overflow), return_counts=True
            )
            values = np.concatenate([values, large])
            counts = np.concatenate([counts, large_counts.astype(np.int64, copy=False)])
        return values, counts


def count_totals(totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and counts of non-negative integer totals, increasing."""
    arr = np.asarray(totals)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"totals must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and arr.min() < 0:
        raise ValueError("totals must be non-negative")
    counter = _TotalsCounter()
    counter.add(arr.ravel())
    return counter.result()


def sample_geometric(delta: float, uniform_draw: float) -> int:
    """Invert one uniform draw into a geometric iteration count on {1, 2, ...}."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if not 0.0 < uniform_draw < 1.0:
        raise ValueError(f"uniform draw must lie in (0, 1), got {uniform_draw}")
    if delta == 1.0:
        return 1
    # same log kernels as the batch path so scalar and vector agree bit-exactly
    count = int(np.ceil(np.log(uniform_draw) / np.log1p(-delta)))
    return max(1, count)


def _generate_sojourns(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    shape = (config.trials, config.stages)
    if config.delta == 1.0:
        return np.ones(shape, dtype=np.int64)
    draws = rng.random(shape)
    np.subtract(1.0, draws, out=draws)     # map [0, 1) to (0, 1]
    np.log(draws, out=draws)
    draws /= np.log1p(-config.delta)
    sojourns = np.ceil(draws).astype(np.int64)
    np.maximum(sojourns, 1, out=sojourns)  # guard the u == 1.0 edge
    return sojourns


def _chunk_totals(config: SimConfig, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield the batch's totals CHUNK_ROWS trials at a time, in trial order.

    Each chunk applies _generate_sojourns' operations to the next rows of the
    same Philox stream. The yielded array is a buffer reused by the next chunk.
    """
    rows_max = min(CHUNK_ROWS, config.trials)
    starts = range(0, config.trials, rows_max)
    totals = np.empty(rows_max, dtype=np.int64)
    if config.delta == 1.0:  # every sojourn is 1; nothing to draw
        totals.fill(config.stages)
        for start in starts:
            yield totals[: min(rows_max, config.trials - start)]
        return
    draws = np.empty((rows_max, config.stages))
    sojourns = np.empty((rows_max, config.stages), dtype=np.int64)
    scale = np.log1p(-config.delta)
    for start in starts:
        rows = min(rows_max, config.trials - start)
        block = draws[:rows]
        rng.random(out=block)
        np.subtract(1.0, block, out=block)
        np.log(block, out=block)
        block /= scale
        np.ceil(block, out=block)
        counts = sojourns[:rows]
        np.copyto(counts, block, casting="unsafe")
        np.maximum(counts, 1, out=counts)
        chunk = totals[:rows]
        np.copyto(chunk, counts[:, 0])
        for stage in range(1, config.stages):  # column adds beat sum(axis=1)
            chunk += counts[:, stage]
        yield chunk


def _check_budget(config: SimConfig, max_cells: int) -> None:
    cells = config.trials * config.stages
    if cells > max_cells:
        raise ResourceLimitError(
            f"batch needs {cells} cells, budget is {max_cells}"
        )


def _measured(work: Callable[[], T]) -> tuple[T, float, int]:
    """Run `work`; return its result, wall seconds and peak traced bytes."""
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    start = time.perf_counter()
    result = work()
    runtime = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    if not was_tracing:
        tracemalloc.stop()
    return result, max(runtime, 1e-9), int(peak)


def run_batch(config: SimConfig, max_cells: int = DEFAULT_CELL_BUDGET) -> TrialBatch:
    """Generate one batch; raises ResourceLimitError before allocating past budget."""
    _check_budget(config, max_cells)
    rng = generator(config.seed)

    def generate() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sojourns = _generate_sojourns(config, rng)
        totals = sojourns.sum(axis=1)
        return sojourns, totals, totals <= config.success_cutoff

    (sojourns, totals, flags), runtime, peak = _measured(generate)
    return TrialBatch(
        sojourns=sojourns,
        totals=totals,
        success_flags=flags,
        config=config,
        runtime_seconds=runtime,
        throughput_trials_per_second=config.trials / runtime,
        peak_memory_bytes=peak,
    )


def run_histogram(
    config: SimConfig, max_cells: int = DEFAULT_CELL_BUDGET
) -> TotalsHistogram:
    """Histogram of one batch's totals, generated in chunks of CHUNK_ROWS trials.

    Same totals as run_batch(config), same cell budget, but memory is bounded
    by the chunk (plus 8 bytes per trial whose total reaches DENSE_LIMIT).
    """
    _check_budget(config, max_cells)
    rng = generator(config.seed)

    def accumulate() -> tuple[np.ndarray, np.ndarray]:
        counter = _TotalsCounter()
        for chunk in _chunk_totals(config, rng):
            counter.add(chunk)
        return counter.result()

    (values, counts), runtime, peak = _measured(accumulate)
    return TotalsHistogram(
        config=config,
        values=values,
        counts=counts,
        runtime_seconds=runtime,
        throughput_trials_per_second=config.trials / runtime,
        peak_memory_bytes=peak,
    )


def sweep_configs(
    deltas: Sequence[float],
    trials: int,
    base_seed: int,
    *,
    stages: int = 4,
    success_cutoff: int = DEFAULT_SUCCESS_CUTOFF,
) -> list[SimConfig]:
    """One config per delta; config i draws from child_seed(base_seed, i)."""
    if not deltas:
        raise ValueError("sweep needs at least one delta")
    return [
        SimConfig(
            delta=delta,
            stages=stages,
            trials=trials,
            seed=child_seed(base_seed, index),
            success_cutoff=success_cutoff,
        )
        for index, delta in enumerate(deltas)
    ]


def run_sweep(
    deltas: Sequence[float],
    trials: int,
    base_seed: int,
    *,
    stages: int = 4,
    success_cutoff: int = DEFAULT_SUCCESS_CUTOFF,
    max_cells: int = DEFAULT_CELL_BUDGET,
) -> list[TrialBatch]:
    """Run one batch per config of sweep_configs(...)."""
    configs = sweep_configs(
        deltas, trials, base_seed, stages=stages, success_cutoff=success_cutoff
    )
    return [run_batch(config, max_cells=max_cells) for config in configs]


def export_batch_csv(batch: TrialBatch, path: str | Path) -> None:
    """Write per-trial rows plus a `<path>.meta.json` sidecar.

    Header: trial,stage1,...,stageN,total,success. Sojourn counts are written
    as integers so a round trip is bit-exact; success is 1/0.
    """
    path = Path(path)
    stage_names = [f"stage{j + 1}" for j in range(batch.config.stages)]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["trial", *stage_names, "total", "success"])
        rows = np.column_stack(
            [
                np.arange(batch.config.trials, dtype=np.int64),
                batch.sojourns,
                batch.totals,
                batch.success_flags.astype(np.int64),
            ]
        )
        writer.writerows(rows.tolist())
    sidecar = {
        "config": asdict(batch.config),
        "seed": batch.config.seed,
        "runtime_seconds": batch.runtime_seconds,
        "throughput_trials_per_second": batch.throughput_trials_per_second,
        "peak_memory_bytes": batch.peak_memory_bytes,
    }
    Path(f"{path}.meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")
