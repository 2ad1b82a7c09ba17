"""Exact analysis of absorbing Markov chains.

Built around the sequential retry pipeline: a chain of stages that each
retry independently with success probability ``delta`` until they advance,
ending in a single terminal state. Arbitrary absorbing chains are accepted
too so results can be cross-checked against brute-force series summation.

The key quantities all come from the fundamental matrix of the transient
block Q: expected visit counts N = (I - Q)^-1, expected steps to absorption
t = N 1 and absorption probabilities B = N R. The pipeline's N[i, j] is 1/delta
for j >= i (Kemeny & Snell, 1960), and its runtime tail P(still running after
k steps) is exact in stats.negbin_survival.

I - Q takes each state's exit mass as its diagonal (the GTH rule of Grassmann,
Taksar & Heyman, 1985), never 1 - Q[i, i], so the pipeline analysis holds for
every delta > 0 whose expected step counts fit in a double.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotAbsorbingError, SingularMatrixError
from .rng import _validate_count, _validate_delta

__all__ = [
    "PipelineSpec",
    "StochasticMatrix",
    "CanonicalDecomposition",
    "ChainAnalysis",
    "build_pipeline_chain",
    "decompose",
    "analyze",
    "spectral_radius",
    "pipeline_expected_steps",
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
        object.__setattr__(self, "delta", _validate_delta(self.delta))
        object.__setattr__(self, "stages", _validate_count("stages", self.stages, 1))


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
    so its radius reads 1.0 for delta <= 2**-54 (5.6e-17).
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


# ---------------------------------------------------------------------------
# closed forms for the pipeline chain
# ---------------------------------------------------------------------------


def pipeline_expected_steps(spec: PipelineSpec) -> list[float]:
    """Expected steps to absorption from each stage: (stages - i) / delta.

    Correctly rounded; entry 0 is ||N||_inf. The 1-norm condition number of
    I - Q is 2 * stages (1 at one stage), inf exactly when stages / delta
    overflows, which raises SingularMatrixError as analyze does."""
    if np.isinf(spec.stages / spec.delta):
        raise SingularMatrixError(
            f"analysis system condition number inf is not below {CONDITION_LIMIT:.0e}"
        )
    return [(spec.stages - i) / spec.delta for i in range(spec.stages)]


def failure_counting_expected_steps(spec: PipelineSpec) -> float:
    """Expected iterations when each stage's final success is not re-counted.

    Counts failed attempts plus one terminal transition: stages / delta -
    (stages - 1), rounded once from the exact rational (inf past the float range).
    """
    exact = Fraction(spec.stages) / Fraction(spec.delta) - (spec.stages - 1)
    try:
        return float(exact)
    except OverflowError:
        return np.inf
