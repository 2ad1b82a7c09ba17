"""Stepwise pipeline harness: the literal attempt-by-attempt counterpart of simulate.

Where the vectorized engine samples stage sojourns directly, this module
walks the paper's four stages (CodeGen, Compilation, InvariantSynth,
SMTSolving) one attempt at a time: an attempt succeeds when its uniform
draw is below delta, and a success moves the walk to the next stage. The
two paths are statistically equivalent, and cross_validate checks that
on live runs of simulate.run_histogram, the engine behind every CLI report:
identical delta and trial count, independent seeds, then a two-sample mean
comparison and a variance ratio. The engine's mean and variance come from
its histogram's exact integer moments (stats.summarize_histogram).

_stepwise_totals walks the trials of a run in blocks. Each trial's first
draws fill one row of a float block, 4 * ceil(4 / delta) of them (about four
times the mean total, in whole Philox counter steps) or max_steps when that
is not fewer, and array operations find each row's fourth draw below delta.
A row with fewer than four such draws is unconverged when it holds max_steps
draws; otherwise its trial is replayed by the one per-attempt walker, _walk,
on the same stream. _walk is also the reference the block pass is tested
against. It draws its uniforms in blocks of WALK_BLOCK: a Philox block draw
gives the same doubles as the same number of scalar draws, and the draws a
walk leaves unused belong to no other trial.

Each trial draws from its own stream derived from (seed, trial index), so
any single trial can be reproduced without replaying its predecessors:
trial i of a cross-validation run is _walk(delta,
generator(child_seed(stepwise_seed, i)), MAX_STEPS). The first pass takes
those streams from rng.trial_generators, which derives their keys in bulk;
only a replayed trial builds its stream with generator(child_seed(...)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import _validate_count, _validate_delta, child_seed, generator, trial_generators
# The harness no longer calls run_batch; it stays importable here because the
# benchmark's tracer wraps it at this import site (perfbench/layers.py), and
# its test looks it up on this module with no default.
from .simulate import run_batch  # noqa: F401
from .simulate import SimConfig, run_histogram
from .stats import summarize_histogram

__all__ = [
    "CrossValidationReport",
    "cross_validate",
]

MAX_STEPS = 1000  # attempts per cross-validation trial; a longer walk is unconverged
WALK_BLOCK = 64  # uniforms a walk draws at a time
BLOCK_CELLS = 2**14  # doubles in one block of first-pass rows, 128 KiB


def _walk(delta: float, rng: np.random.Generator, max_steps: int) -> tuple[list[int], bool]:
    """The one stepwise loop: (attempts per stage, converged) of one trial."""
    stages = SimConfig.stages
    attempts = [0] * stages
    stage = steps = 0
    while steps < max_steps:
        block = rng.random(min(WALK_BLOCK, max_steps - steps)).tolist()
        steps += len(block)
        for u in block:
            attempts[stage] += 1
            if u < delta:
                stage += 1
                if stage == stages:
                    return attempts, True
    return attempts, False


# ---------------------------------------------------------------------------
# cross validation against the vectorized engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossValidationReport:
    delta: float
    trials: int
    stepwise_mean: float
    stepwise_variance: float
    vectorized_mean: float
    vectorized_variance: float
    mean_difference: float
    combined_se: float
    z_score: float
    variance_ratio: float
    all_converged: bool


def _first_pass_width(delta: float, max_steps: int) -> int:
    """Draws per trial in the first pass: 4 * ceil(4 / delta), or max_steps
    when that is not fewer."""
    mean = SimConfig.stages / delta  # inf at delta = 5e-324, which ceil refuses
    return min(max_steps, 4 * math.ceil(mean)) if mean < max_steps else max_steps


def _stepwise_totals(
    delta: float, trials: int, seed: int, max_steps: int
) -> tuple[np.ndarray, bool]:
    """Total attempts of each trial, and whether every trial converged."""
    stages = SimConfig.stages
    width = _first_pass_width(delta, max_steps)
    draws = np.empty((max(1, BLOCK_CELLS // width), width))
    totals = np.empty(trials, dtype=np.int64)
    converged = True
    streams = trial_generators(seed, trials)
    for start in range(0, trials, len(draws)):
        block = draws[:trials - start]
        # the block comes first, so zip takes no stream past its last row
        for row, rng in zip(block, streams):
            rng.random(out=row)
        hits = block < delta
        passes = np.count_nonzero(hits, axis=1)
        done = passes >= stages
        # a row's hits sit together in the flat hit list, ending at its cumsum
        fourth = np.flatnonzero(hits)[(np.cumsum(passes) - passes + stages - 1)[done]]
        out = totals[start:start + len(block)]
        out[done] = fourth % width + 1
        short = np.flatnonzero(~done)
        if width == max_steps:  # a short row has made every attempt it may
            out[short] = max_steps
            converged &= short.size == 0
        else:
            for index in short.tolist():
                rng = generator(child_seed(seed, start + index))
                attempts, walked = _walk(delta, rng, max_steps)
                out[index] = sum(attempts)
                converged &= walked
    return totals, converged


def cross_validate(delta: float, trials: int, seed: int) -> CrossValidationReport:
    """Compare stepwise runs with run_histogram's at one delta.

    Requires trials >= 1000 so the two-sample comparison has power. Each
    stepwise trial walks at most MAX_STEPS attempts; all_converged says
    whether every one passed all four stages. Stepwise and vectorized
    streams use child seeds 0 and 1 of `seed`.
    """
    delta = _validate_delta(delta)
    trials = _validate_count("trials", trials, 1000)
    stepwise_seed = child_seed(seed, 0)
    vectorized_seed = child_seed(seed, 1)

    stepwise, all_converged = _stepwise_totals(delta, trials, stepwise_seed, MAX_STEPS)
    histogram = run_histogram(SimConfig(delta=delta, trials=trials, seed=vectorized_seed))
    vectorized = summarize_histogram(histogram)

    stepwise_mean = float(stepwise.mean())
    vectorized_mean = vectorized.mean
    stepwise_var = float(stepwise.var(ddof=1))
    vectorized_var = vectorized.variance
    difference = stepwise_mean - vectorized_mean
    combined_se = math.sqrt(stepwise_var / trials + vectorized_var / trials)
    z_score = difference / combined_se if combined_se > 0.0 else 0.0
    if vectorized_var > 0.0:
        ratio = stepwise_var / vectorized_var
    else:
        ratio = 1.0 if stepwise_var == 0.0 else math.inf
    return CrossValidationReport(
        delta=delta,
        trials=trials,
        stepwise_mean=stepwise_mean,
        stepwise_variance=stepwise_var,
        vectorized_mean=vectorized_mean,
        vectorized_variance=vectorized_var,
        mean_difference=difference,
        combined_se=combined_se,
        z_score=z_score,
        variance_ratio=ratio,
        all_converged=all_converged,
    )
