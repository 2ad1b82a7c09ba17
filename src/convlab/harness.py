"""Stepwise pipeline harness: the literal state-machine counterpart of simulate.

Where the vectorized engine samples stage sojourns directly, this module
walks the chain one attempt at a time through a pluggable stage oracle.
The two paths are statistically equivalent, and cross_validate checks that
on live runs of simulate.run_histogram, the engine behind every CLI report:
identical delta and trial count, independent seeds, then a two-sample mean
comparison and a variance ratio. The engine's mean and variance come from
its histogram's exact integer moments (stats.summarize_histogram).

One walker, _walk, runs every trial. It keeps only the attempts per stage
and the last state.

Each trial draws from its own stream derived from (seed, trial index), so
any single trial can be reproduced without replaying its predecessors:
trial i of a cross-validation run is _walk(oracle,
generator(child_seed(stepwise_seed, i)), max_steps). The cross-validation
loop takes those streams from rng.trial_generators, which derives their keys
in bulk, instead of building each one with generator(child_seed(...)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import TerminalStateError
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
    "PipelineState",
    "StageOracle",
    "BernoulliOracle",
    "CrossValidationReport",
    "step",
    "cross_validate",
]


class PipelineState(enum.IntEnum):
    """Pipeline stages in order; VERIFIED is the terminal state."""

    CODE_GEN = 1
    COMPILATION = 2
    INVARIANT_SYNTH = 3
    SMT_SOLVING = 4
    VERIFIED = 5


PIPELINE_STAGES = len(PipelineState) - 1
_SUCCESSOR = dict(zip(PipelineState, list(PipelineState)[1:]))


class StageOracle(Protocol):
    """Decides whether one attempt at a stage succeeds."""

    def attempt(self, stage: int, rng: np.random.Generator) -> bool: ...


class BernoulliOracle:
    """Memoryless oracle: every attempt succeeds with probability delta."""

    def __init__(self, delta: float) -> None:
        self.delta = _validate_delta(delta)

    def attempt(self, stage: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.delta)


def step(
    state: PipelineState, oracle: StageOracle, rng: np.random.Generator
) -> PipelineState:
    """One attempt: advance on success, stay on failure."""
    successor = _SUCCESSOR.get(state)  # a table: enum calls and member reads are slow
    if successor is None:
        raise TerminalStateError("pipeline already verified; no further steps")
    return successor if oracle.attempt(int(state), rng) else state


def _walk(oracle: StageOracle, rng: np.random.Generator, max_steps: int):
    """The one step loop: (attempts per stage, last state) of one trial."""
    state, verified = PipelineState.CODE_GEN, PipelineState.VERIFIED  # member reads are slow
    attempts = [0] * (PIPELINE_STAGES + 1)  # indexed by state; slot 0 unused
    for _ in range(max_steps):
        attempts[state] += 1
        state = step(state, oracle, rng)
        if state is verified:
            break
    return attempts[1:], state


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
    oracle = BernoulliOracle(delta)
    totals = np.empty(trials, dtype=np.int64)
    converged = True
    for index, rng in enumerate(trial_generators(seed, trials)):
        attempts, last = _walk(oracle, rng, max_steps)
        totals[index] = sum(attempts)
        converged &= last is PipelineState.VERIFIED
    return totals, converged


def cross_validate(
    delta: float, trials: int, seed: int, max_steps: int = 1000
) -> CrossValidationReport:
    """Compare stepwise runs with run_histogram's at one delta.

    Requires trials >= 1000 so the two-sample comparison has power.
    Stepwise and vectorized streams use child seeds 0 and 1 of `seed`.
    """
    delta = _validate_delta(delta)
    trials = _validate_count("trials", trials, 1000)
    max_steps = _validate_count("max_steps", max_steps, 1)
    stepwise_seed = child_seed(seed, 0)
    vectorized_seed = child_seed(seed, 1)

    stepwise, all_converged = _stepwise_totals(delta, trials, stepwise_seed, max_steps)
    histogram = run_histogram(
        SimConfig(delta=delta, stages=PIPELINE_STAGES, trials=trials, seed=vectorized_seed)
    )
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
