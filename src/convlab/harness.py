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

One walker, _walk, runs every trial. It keeps only the attempts per stage
and whether the walk converged. It draws its uniforms in blocks of
WALK_BLOCK: a Philox block draw gives the same doubles as the same number of
scalar draws, and the draws a walk leaves unused belong to no other trial.

Each trial draws from its own stream derived from (seed, trial index), so
any single trial can be reproduced without replaying its predecessors:
trial i of a cross-validation run is _walk(delta,
generator(child_seed(stepwise_seed, i)), MAX_STEPS). The cross-validation
loop takes those streams from rng.trial_generators, which derives their keys
in bulk, instead of building each one with generator(child_seed(...)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import _validate_count, _validate_delta, child_seed, trial_generators
# The harness no longer calls generator or run_batch; both stay importable
# here because the benchmark's tracer wraps them at this import site
# (perfbench/layers.py), and its test looks them up on this module with no
# default.
from .rng import generator  # noqa: F401
from .simulate import run_batch  # noqa: F401
from .simulate import SimConfig, run_histogram
from .stats import summarize_histogram

__all__ = [
    "CrossValidationReport",
    "cross_validate",
]

MAX_STEPS = 1000  # attempts per cross-validation trial; a longer walk is unconverged
WALK_BLOCK = 64  # uniforms a walk draws at a time


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


def _stepwise_totals(
    delta: float, trials: int, seed: int, max_steps: int
) -> tuple[np.ndarray, bool]:
    totals = np.empty(trials, dtype=np.int64)
    converged = True
    for index, rng in enumerate(trial_generators(seed, trials)):
        attempts, done = _walk(delta, rng, max_steps)
        totals[index] = sum(attempts)
        converged &= done
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
