"""Vectorized Monte Carlo engine for the retry pipeline.

A trial is one pipeline run: each stage retries until it succeeds, so the
per-stage iteration count is geometric on {1, 2, ...} and the trial total is
their sum.

One kernel draws every batch: `_sojourn_chunks` fills a reused
(CHUNK_ROWS x stages) uniform buffer from the batch's Philox stream, inverts
the geometric CDF in place and yields the chunk's sojourns. Two folds consume
it. `run_batch`, the per-trial reference, copies each chunk into its sojourn
matrix and row-sums the matrix once. `run_histogram`, the fast path behind
the CLI, row-sums each chunk and keeps only the histogram of totals, so its
memory does not grow with the trial count. Consecutive Philox draws equal
one big draw, so both see the same totals bit for bit.

Sampling uses inversion, k = ceil(ln(u) / ln(1 - delta)) with u in (0, 1),
which reproduces the geometric law exactly rather than simulating repeated
attempts. Batches are bit-reproducible: the same config always yields the
same arrays (see rng module for the stream derivation).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from ._io import write_text_atomic
from .errors import ResourceLimitError
from .rng import _validate_count, child_seed, generator, validate_seed

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
CHUNK_ROWS = 2**16            # trials drawn per chunk of the sojourn kernel
DENSE_LIMIT = 2**16           # totals below this are counted in a dense array
INT64_MAX = int(np.iinfo(np.int64).max)

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
        # range checks keep their messages; _validate_count then refuses floats
        # and bools, which would fail inside numpy, and turns numpy ints to int
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages}")
        object.__setattr__(self, "stages", _validate_count("stages", self.stages))
        if self.delta < 1.0:
            # the longest sojourn inversion can draw, at u = 2**-53
            longest = 53 * math.log(2) / -math.log1p(-self.delta)
            if math.isinf(longest) or self.stages * math.ceil(longest) > INT64_MAX:
                raise ValueError(
                    f"delta {self.delta} is too small: {self.stages}-stage "
                    "totals would overflow int64"
                )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "trials", _validate_count("trials", self.trials))
        object.__setattr__(self, "seed", validate_seed(self.seed))
        if self.success_cutoff < self.stages:
            raise ValueError(
                f"success_cutoff must be >= stages, got {self.success_cutoff}"
            )
        cutoff = _validate_count("success_cutoff", self.success_cutoff)
        object.__setattr__(self, "success_cutoff", cutoff)


@dataclass(frozen=True)
class TrialBatch:
    """Immutable results of one batch plus its resource metrics.

    The metrics stay on the reference path only: the benchmark's tracer
    (perfbench/layers.py) reads them from traced runs, and acceptance
    criterion 10 checks them over the reference campaign.
    """

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
    of the totals `run_batch` draws for the same config. It is plain data: a
    caller that wants time or memory measures the span it reports.
    """

    config: SimConfig
    values: np.ndarray              # (distinct,) int64, increasing
    counts: np.ndarray              # (distinct,) int64, positive, sum = trials

    def __post_init__(self) -> None:
        for arr in (self.values, self.counts):
            arr.setflags(write=False)

    @classmethod
    def from_batch(cls, batch: TrialBatch) -> "TotalsHistogram":
        """The histogram of a reference batch."""
        values, counts = count_totals(batch.totals)
        return cls(batch.config, values, counts)

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


def _sojourn_chunks(config: SimConfig, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield the batch's (rows, stages) sojourns CHUNK_ROWS trials at a time.

    Chunks come in trial order and hold the rows one (trials x stages) draw
    would give, since consecutive Philox draws equal one big draw. Each yielded
    array is a buffer that the next chunk overwrites.
    """
    rows_max = min(CHUNK_ROWS, config.trials)
    sojourns = np.ones((rows_max, config.stages), dtype=np.int64)
    if config.delta == 1.0:  # every sojourn is 1; nothing to draw
        draws = None
    else:
        draws = np.empty(sojourns.shape)
        scale = np.log1p(-config.delta)
    for start in range(0, config.trials, rows_max):
        chunk = sojourns[: config.trials - start]
        if draws is not None:
            block = draws[: len(chunk)]
            rng.random(out=block)
            np.subtract(1.0, block, out=block)  # map [0, 1) to (0, 1]
            np.log(block, out=block)
            block /= scale
            np.ceil(block, out=block)
            np.copyto(chunk, block, casting="unsafe")
            np.maximum(chunk, 1, out=chunk)     # guard the u == 1.0 edge
        yield chunk


def _row_sums(sojourns: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the row sums of a (rows, stages) matrix into `out`; return it."""
    np.copyto(out, sojourns[:, 0])
    for stage in range(1, sojourns.shape[1]):  # column adds beat sum(axis=1)
        out += sojourns[:, stage]
    return out


def _check_budget(config: SimConfig, max_cells: int) -> None:
    cells = config.trials * config.stages
    if cells > max_cells:
        raise ResourceLimitError(
            f"batch needs {cells} cells, budget is {max_cells}"
        )


def _measured(work: Callable[[], T]) -> tuple[T, float, int]:
    """Run `work`; return its result, wall seconds and peak traced bytes.
    Tracing is left as it was found, also when `work` raises."""
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        start = time.perf_counter()
        result = work()
        runtime = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, max(runtime, 1e-9), int(peak)


def run_batch(config: SimConfig, max_cells: int = DEFAULT_CELL_BUDGET) -> TrialBatch:
    """Generate one batch; raises ResourceLimitError before allocating past budget."""
    _check_budget(config, max_cells)
    rng = generator(config.seed)

    def generate() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sojourns = np.empty((config.trials, config.stages), dtype=np.int64)
        starts = range(0, config.trials, CHUNK_ROWS)
        for start, chunk in zip(starts, _sojourn_chunks(config, rng)):
            sojourns[start : start + len(chunk)] = chunk
        totals = _row_sums(sojourns, np.empty(config.trials, dtype=np.int64))
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
    counter = _TotalsCounter()
    totals = np.empty(min(CHUNK_ROWS, config.trials), dtype=np.int64)
    for chunk in _sojourn_chunks(config, generator(config.seed)):
        counter.add(_row_sums(chunk, totals[: len(chunk)]))
    return TotalsHistogram(config, *counter.result())


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
    """Write per-trial rows plus a `<path>.meta.json` sidecar, each atomically.

    Header: trial,stage1,...,stageN,total,success. Sojourn counts are written
    as integers so a round trip is bit-exact; success is 1/0.
    """
    stage_names = [f"stage{j + 1}" for j in range(batch.config.stages)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
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
    write_text_atomic(Path(path), buffer.getvalue())
    sidecar = {"config": asdict(batch.config), "seed": batch.config.seed}
    sidecar_text = json.dumps(sidecar, indent=2) + "\n"
    write_text_atomic(Path(f"{path}.meta.json"), sidecar_text)
