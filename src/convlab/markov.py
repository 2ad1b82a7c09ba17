"""Exact analysis of the retry pipeline's absorbing Markov chain.

The chain has a run of stages that each retry independently with success
probability ``delta`` until they advance, ending in a single terminal
state. build_pipeline_chain gives its transition matrix, and decompose
accepts no other.

The key quantities all come from the fundamental matrix of the transient
block Q: expected visit counts N = (I - Q)^-1 and expected steps to absorption
t = N 1. The pipeline's N[i, j] is 1/delta for j >= i (Kemeny & Snell, 1960),
and its runtime tail P(still running after k steps) is exact in
stats.negbin_survival.

I - Q takes each state's exit mass as its diagonal (the GTH rule of Grassmann,
Taksar & Heyman, 1985), never 1 - Q[i, i], so the pipeline analysis holds for
every delta > 0 whose expected step counts fit in a double.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SingularMatrixError
from .rng import _validate_count, _validate_delta

__all__ = [
    "PipelineSpec",
    "CanonicalDecomposition",
    "ChainAnalysis",
    "build_pipeline_chain",
    "decompose",
    "analyze",
    "spectral_radius",
    "pipeline_expected_steps",
    "failure_counting_expected_steps",
]

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
class CanonicalDecomposition:
    """Transient block Q of a chain and its transitions into the absorbing state."""

    transient_block: np.ndarray    # transitions among transient states (t x t)
    absorbing_block: np.ndarray    # transitions from transient into absorbing (t x 1)

    def __post_init__(self) -> None:
        for name in ("transient_block", "absorbing_block"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ChainAnalysis:
    """Exact absorption quantities for one decomposed chain.

    tail_constant is the infinity norm of the fundamental matrix, the
    largest expected number of steps from any start state.
    """

    fundamental: np.ndarray        # expected visits: N[i, j] = visits to j from i
    expected_steps: np.ndarray     # steps to absorption from each transient state
    spectral_radius: float
    tail_constant: float

    def __post_init__(self) -> None:
        for name in ("fundamental", "expected_steps"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


# ---------------------------------------------------------------------------
# construction and decomposition
# ---------------------------------------------------------------------------


def build_pipeline_chain(spec: PipelineSpec) -> np.ndarray:
    """Transition matrix of the retry pipeline: stay with 1-delta, advance with
    delta; the last state, Verified, is absorbing."""
    size = spec.stages + 1
    entries = np.zeros((size, size))
    for i in range(spec.stages):
        entries[i, i] = 1.0 - spec.delta
        entries[i, i + 1] = spec.delta
    entries[spec.stages, spec.stages] = 1.0
    return entries


def decompose(entries: np.ndarray) -> CanonicalDecomposition:
    """Split a pipeline chain into Q (stages x stages) and its column into Verified.

    Raises ValueError on any matrix that is not build_pipeline_chain's for its
    own delta (entry [0, 1]) and stage count (size - 1).
    """
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or min(entries.shape) < 2:
        raise ValueError(f"a pipeline chain is at least 2 x 2, got shape {entries.shape}")
    spec = PipelineSpec(float(entries[0, 1]), entries.shape[0] - 1)
    if not np.array_equal(entries, build_pipeline_chain(spec)):
        raise ValueError(
            f"matrix is not the pipeline chain for delta {spec.delta!r}, stages {spec.stages}"
        )
    return CanonicalDecomposition(entries[:-1, :-1], entries[:-1, -1:])


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
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def analyze(decomposition: CanonicalDecomposition) -> ChainAnalysis:
    """Invert (I - Q) once and derive everything from the fundamental matrix.

    Raises SingularMatrixError when (I - Q) is singular or its 1-norm condition
    number is not below 1e12.
    """
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
    if not np.isfinite(condition):
        condition = np.inf  # an inverse that overflows can hold nan entries
    if condition > CONDITION_LIMIT:
        raise SingularMatrixError(
            f"analysis system condition number {condition:.3e} is not below {CONDITION_LIMIT:.0e}"
        )
    expected_steps = fundamental.sum(axis=1)
    radius = spectral_radius(transient)
    tail_constant = float(np.abs(fundamental).sum(axis=1).max())
    return ChainAnalysis(
        fundamental=fundamental,
        expected_steps=expected_steps,
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
