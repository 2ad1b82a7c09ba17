"""Stepwise pipeline harness: the literal state-machine counterpart of simulate.

Where the vectorized engine samples stage sojourns directly, this module
walks the chain one attempt at a time through a pluggable stage oracle.
The two paths are statistically equivalent, and cross_validate checks that
on live runs: identical delta and trial count, independent seeds, then a
two-sample mean comparison and a variance ratio.

Each trial draws from its own stream derived from (seed, trial index), so
any single trace can be reproduced without replaying its predecessors:
trial i of a cross-validation run is run_to_absorption(oracle, max_steps,
seed=child_seed(stepwise_seed, i)). The cross-validation loop takes those
streams from rng.trial_generators, which derives their keys in bulk, instead
of building each one with generator(child_seed(...)).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from ._io import write_text_atomic
from .calibrate import StageEvent
from .errors import TerminalStateError
from .rng import _validate_count, child_seed, generator, trial_generators
from .simulate import SimConfig, run_batch

__all__ = [
    "PipelineState",
    "StageOracle",
    "BernoulliOracle",
    "ConstantOracle",
    "TraceRecord",
    "CrossValidationReport",
    "step",
    "run_to_absorption",
    "cross_validate",
    "trace_events",
    "write_traces_jsonl",
]


class PipelineState(enum.IntEnum):
    """Pipeline stages in order; VERIFIED is the terminal state."""

    CODE_GEN = 1
    COMPILATION = 2
    INVARIANT_SYNTH = 3
    SMT_SOLVING = 4
    VERIFIED = 5

    @property
    def label(self) -> str:
        return _STATE_LABELS[self]


PIPELINE_STAGES = len(PipelineState) - 1


_STATE_LABELS = {
    PipelineState.CODE_GEN: "CodeGen",
    PipelineState.COMPILATION: "Compilation",
    PipelineState.INVARIANT_SYNTH: "InvariantSynth",
    PipelineState.SMT_SOLVING: "SMTSolving",
    PipelineState.VERIFIED: "Verified",
}


class StageOracle(Protocol):
    """Decides whether one attempt at a stage succeeds."""

    def attempt(self, stage: int, rng: np.random.Generator) -> bool: ...


class BernoulliOracle:
    """Memoryless oracle: every attempt succeeds with probability delta."""

    def __init__(self, delta: float) -> None:
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {delta}")
        self.delta = delta

    def attempt(self, stage: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.delta)


class ConstantOracle:
    """Always-succeed or always-fail oracle for exercising edge paths."""

    def __init__(self, outcome: bool) -> None:
        self.outcome = bool(outcome)

    def attempt(self, stage: int, rng: np.random.Generator) -> bool:
        return self.outcome


@dataclass(frozen=True)
class TraceRecord:
    """Full history of one run: every state visited, attempts per stage."""

    states: tuple[PipelineState, ...]
    total_iterations: int
    per_stage_attempts: tuple[int, ...]
    converged: bool


def step(
    state: PipelineState, oracle: StageOracle, rng: np.random.Generator
) -> PipelineState:
    """One attempt: advance on success, stay on failure."""
    if state is PipelineState.VERIFIED:
        raise TerminalStateError("pipeline already verified; no further steps")
    if oracle.attempt(int(state), rng):
        return PipelineState(state + 1)
    return state


def _check_max_steps(max_steps: int) -> None:
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    _validate_count("max_steps", max_steps)


def run_to_absorption(
    oracle: StageOracle, max_steps: int = 1000, seed: int = 0
) -> TraceRecord:
    """Walk one trial until VERIFIED or max_steps attempts."""
    _check_max_steps(max_steps)
    rng = generator(seed)
    state = PipelineState.CODE_GEN
    states = [state]
    attempts = [0] * PIPELINE_STAGES
    steps = 0
    while state is not PipelineState.VERIFIED and steps < max_steps:
        attempts[int(state) - 1] += 1
        state = step(state, oracle, rng)
        states.append(state)
        steps += 1
    return TraceRecord(
        states=tuple(states),
        total_iterations=steps,
        per_stage_attempts=tuple(attempts),
        converged=state is PipelineState.VERIFIED,
    )


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
        state = PipelineState.CODE_GEN
        steps = 0
        while state is not PipelineState.VERIFIED and steps < max_steps:
            state = step(state, oracle, rng)
            steps += 1
        totals[index] = steps
        converged &= state is PipelineState.VERIFIED
    return totals, converged


def cross_validate(
    delta: float, trials: int, seed: int, max_steps: int = 1000
) -> CrossValidationReport:
    """Compare stepwise and vectorized runs at one delta.

    Requires trials >= 1000 so the two-sample comparison has power.
    Stepwise and vectorized streams use child seeds 0 and 1 of `seed`.
    """
    if trials < 1000:
        raise ValueError(f"cross validation needs >= 1000 trials, got {trials}")
    trials = _validate_count("trials", trials)
    _check_max_steps(max_steps)
    stepwise_seed = child_seed(seed, 0)
    vectorized_seed = child_seed(seed, 1)

    stepwise, all_converged = _stepwise_totals(delta, trials, stepwise_seed, max_steps)
    batch = run_batch(
        SimConfig(delta=delta, stages=PIPELINE_STAGES, trials=trials, seed=vectorized_seed)
    )

    stepwise_mean = float(stepwise.mean())
    vectorized_mean = float(batch.totals.mean())
    stepwise_var = float(stepwise.var(ddof=1))
    vectorized_var = float(batch.totals.var(ddof=1))
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


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------


def trace_events(trace: TraceRecord, trial_id: int = 0, start_timestamp: int = 0):
    """Convert a trace to the monitor's event stream, losslessly.

    Each consecutive state pair becomes one attempt event: success when the
    state advanced.
    """
    events = []
    timestamp = start_timestamp
    attempt_in_stage = 0
    current = trace.states[0]
    for following in trace.states[1:]:
        attempt_in_stage += 1
        succeeded = following != current
        events.append(
            StageEvent(
                trial_id=trial_id,
                stage=int(current),
                attempt=attempt_in_stage,
                success=succeeded,
                timestamp=timestamp,
            )
        )
        timestamp += 1
        if succeeded:
            attempt_in_stage = 0
            current = following
    return events


def write_traces_jsonl(traces: Iterable[TraceRecord], path: str | Path) -> None:
    """One JSON object per trace: state labels, iterations, attempts, converged."""
    lines = []
    for trace in traces:
        lines.append(
            json.dumps(
                {
                    "states": [state.label for state in trace.states],
                    "total_iterations": trace.total_iterations,
                    "per_stage_attempts": list(trace.per_stage_attempts),
                    "converged": trace.converged,
                }
            )
        )
    write_text_atomic(Path(path), "".join(line + "\n" for line in lines))
