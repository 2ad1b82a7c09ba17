"""Vectorized Monte Carlo engine for the retry pipeline.

A trial is one pipeline run: each stage retries until it succeeds, so the
per-stage iteration count is geometric on {1, 2, ...} and the trial total is
their sum.

One kernel draws every batch: `_sojourn_chunk` gives rows
[c * CHUNK_ROWS, ...) of a batch's (trials x 4) sojourns, one column per
stage of the paper's pipeline (SimConfig.stages). It sets a Philox to the
batch's start state, advances it c * CHUNK_ROWS counter steps (one step
yields four doubles, one trial's draws; Salmon et al., SC'11), draws the
chunk's uniforms into a float block and inverts the geometric CDF in place,
leaving the sojourns there as exact integers. A chunk is thus a pure
function of (config, chunk index), and its rows are the ones a single
(trials x 4) draw would give.

Two folds consume it. `run_batch`, the per-trial reference, draws chunk after
chunk on the calling thread and casts each into its int64 sojourn matrix.
`run_histogram`, the fast path behind the CLI, row-sums each chunk and
keeps only the histogram of totals. It counts a config's chunks on
min(CPUs in the affinity mask, 2, chunks) workers, each with its own buffers
and counts, and adds the counts up at the end. Memory is one chunk per worker
whatever the trial count: 32,768 rows, about 1.5 MiB, which fits in a
2 MiB per-core L2. Since integer counts add up the same in any order, the
histogram does not depend on the worker count.

Sampling uses inversion, k = ceil(ln(u) / ln(1 - delta)) with u in (0, 1),
which reproduces the geometric law exactly rather than simulating repeated
attempts. Batches are bit-reproducible: the same config always yields the
same arrays (see rng module for the stream derivation).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import ResourceLimitError
from .rng import (
    _validate_count,
    _validate_delta,
    _validate_real,
    child_seed,
    generator,
    validate_seed,
)

__all__ = [
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
]

DEFAULT_CELL_BUDGET = 2**28   # sojourn cells; 4-stage batches cap at ~67M trials
CHUNK_ROWS = 2**15            # trials drawn per chunk of the sojourn kernel
DENSE_LIMIT = 2**16           # totals below this are counted in a dense array
INT64_MAX = int(np.iinfo(np.int64).max)
_MAX_WORKERS = 2              # threads run_histogram counts on, at most: each adds a
                              # chunk's buffers (~1.5 MiB) to the peak RSS, and 2 is the
                              # count benchmarked (BENCH_29.json)


@dataclass(frozen=True)
class SimConfig:
    """One batch request: success probability, trial count, seed.

    Every batch runs the paper's four stages; `stages` is that constant, not
    a field.
    """

    stages: ClassVar[int] = 4
    delta: float
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _validate_delta(self.delta))
        if self.delta < 1.0:
            # the longest sojourn inversion can draw, at u = 2**-53
            longest = 53 * math.log(2) / -math.log1p(-self.delta)
            if math.isinf(longest) or self.stages * math.ceil(longest) > INT64_MAX:
                raise ValueError(
                    f"delta {self.delta} is too small: {self.stages}-stage "
                    "totals would overflow int64"
                )
        object.__setattr__(self, "trials", _validate_count("trials", self.trials, 1))
        object.__setattr__(self, "seed", validate_seed(self.seed))


@dataclass(frozen=True)
class TrialBatch:
    """Immutable per-trial results of one batch. Like TotalsHistogram it is
    plain data: a caller that wants time or memory measures the call."""

    sojourns: np.ndarray            # (trials, stages) int64, iterations per stage
    totals: np.ndarray              # (trials,) int64 row sums
    config: SimConfig

    def __post_init__(self) -> None:
        sojourns = np.asarray(self.sojourns)
        totals = np.asarray(self.totals)
        if sojourns.shape != (self.config.trials, self.config.stages):
            raise ValueError("sojourn matrix shape does not match config")
        if np.any(sojourns < 1):
            raise ValueError("sojourn counts must be >= 1")
        if not np.array_equal(totals, sojourns.sum(axis=1)):
            raise ValueError("totals must equal sojourn row sums")
        for name, arr in (("sojourns", sojourns), ("totals", totals)):
            arr = arr.copy() if not arr.flags.owndata else arr
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class TotalsHistogram:
    """Distinct trial totals of one config and how often each occurred.

    `values` and `counts` are exactly `np.unique(totals, return_counts=True)`
    of the totals `run_batch` draws for the same config. It is plain data: a
    caller that wants time or memory measures the span it reports.
    """

    config: SimConfig
    values: np.ndarray              # (distinct,) int64, increasing, >= stages
    counts: np.ndarray              # (distinct,) int64, positive, sum = trials

    def __post_init__(self) -> None:
        values, counts = self.values, self.counts
        for name, arr in (("values", values), ("counts", counts)):
            if not (isinstance(arr, np.ndarray) and arr.ndim == 1 and arr.dtype == np.int64):
                raise ValueError(f"histogram {name} must be a 1-d int64 array")
        if values.size != counts.size:
            raise ValueError("histogram values and counts differ in length")
        if np.any(counts <= 0):
            raise ValueError("histogram counts must be positive")
        if int(counts.sum()) != self.config.trials:
            raise ValueError(f"histogram counts must sum to the {self.config.trials} trials")
        if values[0] < self.config.stages or np.any(values[1:] <= values[:-1]):
            raise ValueError(
                f"histogram values must increase strictly from at least {self.config.stages}"
            )
        for arr in (values, counts):
            arr.setflags(write=False)

    @classmethod
    def from_batch(cls, batch: TrialBatch) -> "TotalsHistogram":
        """The histogram of a reference batch."""
        values, counts = count_totals(batch.totals)
        return cls(batch.config, values, counts)


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
        self._add_dense(np.bincount(totals))

    def merge(self, other: "_TotalsCounter") -> None:
        """Add the counts of `other`, which must not be used afterwards."""
        self._add_dense(other._dense)
        self._overflow.extend(other._overflow)

    def _add_dense(self, counts: np.ndarray) -> None:
        """Add a dense count array; takes ownership of `counts`."""
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
    delta = _validate_delta(delta)
    uniform_draw = _validate_real("uniform draw", uniform_draw)
    if not 0.0 < uniform_draw < 1.0:
        raise ValueError(f"uniform draw must lie in (0, 1), got {uniform_draw}")
    if delta == 1.0:
        return 1
    # same log kernels as the batch path so scalar and vector agree bit-exactly
    count = int(np.ceil(np.log(uniform_draw) / np.log1p(-delta)))
    return max(1, count)


def _sojourn_chunk(
    config: SimConfig, start: dict, index: int, rng: np.random.Generator, block: np.ndarray
) -> np.ndarray:
    """Rows [index * CHUNK_ROWS, ...) of the batch's sojourns, as exact integers.

    `start` is the state of the batch's Philox before its first draw. `rng`
    wraps a Philox of the caller's own, which this sets to the chunk's first
    draw, and `block` is a float buffer of at least rows * stages cells. The
    result is a (rows, stages) view of `block`.
    """
    first = index * CHUNK_ROWS
    rows = min(CHUNK_ROWS, config.trials - first)
    chunk = block[: rows * config.stages].reshape(rows, config.stages)
    if config.delta == 1.0:  # every sojourn is 1; nothing to draw
        chunk.fill(1.0)
        return chunk
    rng.bit_generator.state = start
    rng.bit_generator.advance(first)  # a counter step gives 4 doubles: one trial's draws
    rng.random(out=chunk)
    np.subtract(1.0, chunk, out=chunk)   # map [0, 1) to (0, 1]
    np.log(chunk, out=chunk)
    chunk /= np.log1p(-config.delta)
    np.ceil(chunk, out=chunk)
    np.maximum(chunk, 1.0, out=chunk)    # guard the u == 1.0 edge
    return chunk


def _row_sums(chunk: np.ndarray, out: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Write the int64 row sums of a float chunk of exact integers into `out`.

    Each column is cast into the int64 buffer `column` before it is added, so
    sums past 2**53 stay exact. Returns the first len(chunk) entries of `out`.
    """
    out, column = out[: len(chunk)], column[: len(chunk)]
    np.copyto(out, chunk[:, 0], casting="unsafe")
    for stage in range(1, chunk.shape[1]):  # column adds beat sum(axis=1)
        np.copyto(column, chunk[:, stage], casting="unsafe")
        out += column
    return out


def _check_budget(config: SimConfig) -> None:
    cells = config.trials * config.stages
    if cells > DEFAULT_CELL_BUDGET:
        raise ResourceLimitError(
            f"batch needs {cells} cells, budget is {DEFAULT_CELL_BUDGET}"
        )


def run_batch(config: SimConfig) -> TrialBatch:
    """Generate one batch; raises ResourceLimitError before allocating past budget."""
    _check_budget(config)
    rng = generator(config.seed)
    start = rng.bit_generator.state
    sojourns = np.empty((config.trials, config.stages), dtype=np.int64)
    totals = np.empty(config.trials, dtype=np.int64)
    rows = min(CHUNK_ROWS, config.trials)
    block, column = np.empty(rows * config.stages), np.empty(rows, dtype=np.int64)
    for index in range(_chunk_count(config)):
        chunk = _sojourn_chunk(config, start, index, rng, block)
        span = slice(index * CHUNK_ROWS, index * CHUNK_ROWS + len(chunk))
        sojourns[span] = chunk
        _row_sums(chunk, totals[span], column)
    return TrialBatch(sojourns, totals, config)


def _chunk_count(config: SimConfig) -> int:
    return -(-config.trials // CHUNK_ROWS)


def _worker_count(chunks: int) -> int:
    """Workers for `chunks` chunks: min(CPUs in the affinity mask, _MAX_WORKERS, chunks)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS, chunks)


class _Worker:
    """One worker's Philox, chunk buffers and counter for one config.

    Built on the calling thread: buffers allocated on a worker thread would
    come from that thread's own malloc arena and raise the peak RSS.
    """

    def __init__(self, config: SimConfig, start: dict) -> None:
        rows = min(CHUNK_ROWS, config.trials)
        self.config, self.start = config, start
        self.rng = np.random.Generator(np.random.Philox(0))
        self.block = np.empty(rows * config.stages)
        self.totals = np.empty(rows, dtype=np.int64)
        self.column = np.empty(rows, dtype=np.int64)
        self.counter = _TotalsCounter()

    def count(self, index: int) -> None:
        """Add chunk `index` to the counter."""
        chunk = _sojourn_chunk(self.config, self.start, index, self.rng, self.block)
        self.counter.add(_row_sums(chunk, self.totals, self.column))


def _run_workers(workers: list[_Worker], chunks: int) -> None:
    """Count chunks 0..chunks-1: workers[0] on the calling thread, each other
    worker on a thread of its own, each claiming the next chunk until none is
    left. An exception stops all claiming; the first one is re-raised here
    once every thread has ended."""
    claims = iter(range(chunks))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work(worker: _Worker) -> None:
        try:
            while not errors:
                with lock:
                    index = next(claims, None)
                if index is None:
                    return
                worker.count(index)
        except BaseException as exc:
            errors.append(exc)

    started = []
    try:
        for worker in workers[1:]:
            thread = threading.Thread(target=work, args=(worker,))
            thread.start()
            started.append(thread)
        work(workers[0])
    except BaseException as exc:  # a thread that would not start
        errors.append(exc)
    for thread in started:
        thread.join()
    if errors:
        raise errors[0]


def run_histogram(config: SimConfig) -> TotalsHistogram:
    """Histogram of one batch's totals, counted chunk by chunk on every core.

    Same totals as run_batch(config) and the same cell budget. Memory is one
    chunk per worker, about 1.5 MiB for CHUNK_ROWS (32,768) rows, plus 8 bytes
    per trial whose total reaches DENSE_LIMIT. The result does not depend on
    the worker count.
    """
    _check_budget(config)
    start = generator(config.seed).bit_generator.state
    chunks = _chunk_count(config)
    workers = [_Worker(config, start) for _ in range(_worker_count(chunks))]
    _run_workers(workers, chunks)
    counter = workers[0].counter
    for worker in workers[1:]:
        counter.merge(worker.counter)
    return TotalsHistogram(config, *counter.result())


def sweep_configs(deltas: Sequence[float], trials: int, base_seed: int) -> list[SimConfig]:
    """One config per delta; config i draws from child_seed(base_seed, i)."""
    if not deltas:
        raise ValueError("sweep needs at least one delta")
    return [
        SimConfig(delta=delta, trials=trials, seed=child_seed(base_seed, index))
        for index, delta in enumerate(deltas)
    ]


def run_sweep(deltas: Sequence[float], trials: int, base_seed: int) -> list[TrialBatch]:
    """Run one batch per config of sweep_configs(...)."""
    return [run_batch(config) for config in sweep_configs(deltas, trials, base_seed)]
