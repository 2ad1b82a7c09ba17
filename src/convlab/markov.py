"""Exact analysis of absorbing Markov chains.

Built around the sequential retry pipeline: a chain of stages that each
retry independently with success probability ``delta`` until they advance,
ending in a single terminal state. Arbitrary absorbing chains are accepted
too so results can be cross-checked against brute-force series summation.

The key quantities all come from the fundamental matrix of the transient
block Q: expected visit counts N = (I - Q)^-1, expected steps to absorption
t = N 1 and absorption probabilities B = N R. The worst-start runtime tail
P(still running after k steps) is ||Q^k||_inf of the stored block
(tail_bound); stats.negbin_survival is the pipeline's exact tail.

I - Q takes each state's exit mass as its diagonal (the GTH rule of Grassmann,
Taksar & Heyman, 1985), never 1 - Q[i, i], so the pipeline analysis holds for
every delta > 0 whose expected step counts fit in a double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAbsorbingError, SingularMatrixError
from .rng import _validate_count

__all__ = [
    "PipelineSpec",
    "StochasticMatrix",
    "CanonicalDecomposition",
    "ChainAnalysis",
    "build_pipeline_chain",
    "decompose",
    "analyze",
    "spectral_radius",
    "tail_bound",
    "exact_expected_steps_closed_form",
    "failure_counting_expected_steps",
]

ROW_SUM_TOLERANCE = 1e-12
CONDITION_LIMIT = 1e12


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """Retry pipeline shape: ``stages`` sequential stages, advance probability ``delta``."""

    delta: float
    stages: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.stages < 1:
            raise ValueError(f"stages must be >= 1, got {self.stages}")
        object.__setattr__(self, "stages", _validate_count("stages", self.stages))


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-stochastic transition matrix with an explicit absorbing-state set.

    Rows must sum to 1 within 1e-12, entries must lie in [0, 1], and every
    listed absorbing state must have an exact identity row.
    """

    entries: np.ndarray
    absorbing_states: frozenset[int]

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("transition matrix must be square")
        if entries.shape[0] == 0:
            raise ValueError("transition matrix must be non-empty")
        if np.any(entries < 0.0) or np.any(entries > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = entries.sum(axis=1)
        bad = np.where(np.abs(row_sums - 1.0) > ROW_SUM_TOLERANCE)[0]
        if bad.size:
            raise ValueError(f"row {bad[0]} sums to {row_sums[bad[0]]!r}, not 1")
        absorbing = frozenset(int(i) for i in self.absorbing_states)
        for i in absorbing:
            if not 0 <= i < entries.shape[0]:
                raise ValueError(f"absorbing state {i} out of range")
            expected = np.zeros(entries.shape[0])
            expected[i] = 1.0
            if not np.array_equal(entries[i], expected):
                raise ValueError(f"absorbing state {i} must have an identity row")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "absorbing_states", absorbing)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "StochasticMatrix":
        """Build a matrix, detecting absorbing states as exact identity rows."""
        arr = np.asarray(entries, dtype=float)
        absorbing = frozenset(
            int(i) for i in range(arr.shape[0]) if arr[i, i] == 1.0
        )
        return cls(arr, absorbing)


@dataclass(frozen=True)
class CanonicalDecomposition:
    """Transient/absorbing partition of a chain, original state order preserved."""

    transient_block: np.ndarray    # transitions among transient states (t x t)
    absorbing_block: np.ndarray    # transitions from transient into absorbing (t x r)
    transient_order: tuple[int, ...]
    absorbing_order: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("transient_block", "absorbing_block"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "transient_order", tuple(self.transient_order))
        object.__setattr__(self, "absorbing_order", tuple(self.absorbing_order))


@dataclass(frozen=True)
class ChainAnalysis:
    """Exact absorption quantities for one decomposed chain.

    tail_constant is the infinity norm of the fundamental matrix, the
    largest expected number of steps from any start state.
    """

    fundamental: np.ndarray        # expected visits: N[i, j] = visits to j from i
    expected_steps: np.ndarray     # steps to absorption from each transient state
    absorption_probs: np.ndarray   # rows sum to 1: eventual absorber per start state
    spectral_radius: float
    tail_constant: float
    tail_constant_norm: str = "inf"

    def __post_init__(self) -> None:
        for name in ("fundamental", "expected_steps", "absorption_probs"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# construction and decomposition
# ---------------------------------------------------------------------------


def build_pipeline_chain(spec: PipelineSpec) -> StochasticMatrix:
    """Transition matrix of the retry pipeline: stay with 1-delta, advance with delta."""
    size = spec.stages + 1
    entries = np.zeros((size, size))
    for i in range(spec.stages):
        entries[i, i] = 1.0 - spec.delta
        entries[i, i + 1] = spec.delta
    entries[spec.stages, spec.stages] = 1.0
    return StochasticMatrix(entries, frozenset({spec.stages}))


def decompose(matrix: StochasticMatrix) -> CanonicalDecomposition:
    """Partition states into transient and absorbing, preserving index order.

    Raises NotAbsorbingError if the chain has no absorbing state or some
    transient state cannot reach one.
    """
    absorbing = sorted(matrix.absorbing_states)
    if not absorbing:
        raise NotAbsorbingError("chain has no absorbing states")
    transient = [i for i in range(matrix.n) if i not in matrix.absorbing_states]

    # reverse reachability: walk incoming edges starting from the absorbing set
    reached = set(absorbing)
    frontier = list(absorbing)
    incoming = matrix.entries.T > 0.0
    while frontier:
        state = frontier.pop()
        for src in np.where(incoming[state])[0]:
            if src not in reached:
                reached.add(int(src))
                frontier.append(int(src))
    stranded = [i for i in transient if i not in reached]
    if stranded:
        raise NotAbsorbingError(
            f"transient states {stranded} cannot reach any absorbing state"
        )

    transient_block = matrix.entries[np.ix_(transient, transient)]
    absorbing_block = matrix.entries[np.ix_(transient, absorbing)]
    return CanonicalDecomposition(
        transient_block=transient_block,
        absorbing_block=absorbing_block,
        transient_order=tuple(transient),
        absorbing_order=tuple(absorbing),
    )


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------


def spectral_radius(transient_block: np.ndarray) -> float:
    """Largest absolute eigenvalue of the transient block, from the eigensolver.

    LAPACK returns a triangular block's diagonal exactly while its largest
    entry lies in [6.7e-139, 1.5e138]. The pipeline block stores fl(1 - delta),
    so its radius (like tail_bound) reads 1.0 for delta <= 2**-54 (5.6e-17).
    """
    matrix = np.asarray(transient_block, dtype=float)
    if matrix.size == 0:
        return 0.0
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def analyze(decomposition: CanonicalDecomposition) -> ChainAnalysis:
    """Invert (I - Q) once and derive everything from the fundamental matrix.

    Raises SingularMatrixError when (I - Q) is singular or its 1-norm condition
    number is not below 1e12, and ValueError when there are no transient states.
    """
    if not decomposition.transient_order:
        raise ValueError("decomposition has no transient states to analyze")
    transient = decomposition.transient_block
    # GTH diagonal: the exit mass of each state, not the cancelling 1 - Q[i, i]
    off_diagonal = transient - np.diag(np.diag(transient))
    exit_mass = off_diagonal.sum(axis=1) + decomposition.absorbing_block.sum(axis=1)
    system = np.diag(exit_mass) - off_diagonal
    try:
        fundamental = np.linalg.inv(system)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("analysis system is exactly singular") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        condition = np.linalg.norm(system, 1) * np.linalg.norm(fundamental, 1)
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularMatrixError(
            f"analysis system condition number {condition:.3e} is not below {CONDITION_LIMIT:.0e}"
        )
    expected_steps = fundamental.sum(axis=1)
    absorption_probs = fundamental @ decomposition.absorbing_block
    radius = spectral_radius(transient)
    tail_constant = float(np.abs(fundamental).sum(axis=1).max())
    return ChainAnalysis(
        fundamental=fundamental,
        expected_steps=expected_steps,
        absorption_probs=absorption_probs,
        spectral_radius=radius,
        tail_constant=tail_constant,
    )


def tail_bound(decomposition: CanonicalDecomposition, k: int) -> float:
    """Worst-start P(not yet absorbed after k steps): ||Q^k||_inf, clamped to 1.

    Repeated squaring of the stored fl(1 - delta) block: on the four-stage
    pipeline, up to k = 80/delta, it is within 2.4e-9 relative of the exact
    stats.negbin_survival for delta >= 1e-6, but 2e-6 high at 1e-9, 7e-6 low
    at 1e-11, and 0.3750 for an exact 0.4335 at 1.5e-15, k = 2666666666666667.
    For the pipeline's tail at tiny delta use stats.negbin_survival.
    """
    if k < 0:
        raise ValueError(f"step count must be non-negative, got {k}")
    power = np.linalg.matrix_power(decomposition.transient_block, k)
    return min(1.0, float(power.sum(axis=1).max(initial=0.0)))


# ---------------------------------------------------------------------------
# closed forms for the pipeline chain
# ---------------------------------------------------------------------------


def exact_expected_steps_closed_form(spec: PipelineSpec) -> float:
    """Expected total attempts across all stages: stages / delta."""
    return spec.stages / spec.delta


def failure_counting_expected_steps(spec: PipelineSpec) -> float:
    """Expected iterations when each stage's final success is not re-counted.

    Counts failed attempts plus one terminal transition:
    (stages - (stages - 1) * delta) / delta.
    """
    return (spec.stages - (spec.stages - 1) * spec.delta) / spec.delta
