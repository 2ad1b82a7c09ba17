"""Operational-region classification and timeout recommendation.

The paper's three operating zones partition the per-stage success
probability at the thresholds read off its campaign: Marginal below 0.3,
Practical from 0.3 to 0.6 inclusive, and HighPerformance above 0.6.
"""

from __future__ import annotations

import enum

from .rng import _validate_delta, _validate_real
from .stats import _survival_horizon

__all__ = [
    "RegionLabel",
    "classify",
    "recommended_timeout",
]

MARGINAL_UPPER = 0.3
PRACTICAL_UPPER = 0.6


class RegionLabel(enum.Enum):
    MARGINAL = "Marginal"
    PRACTICAL = "Practical"
    HIGH_PERFORMANCE = "HighPerformance"


def classify(delta: float) -> RegionLabel:
    """Region of one success probability; boundaries belong to Practical."""
    delta = _validate_delta(delta)
    if delta < MARGINAL_UPPER:
        return RegionLabel.MARGINAL
    if delta <= PRACTICAL_UPPER:
        return RegionLabel.PRACTICAL
    return RegionLabel.HIGH_PERFORMANCE


def recommended_timeout(delta: float, epsilon: float, stages: int = 4) -> int:
    """Smallest k whose exact miss probability stats.negbin_survival(k) is <= epsilon."""
    epsilon = _validate_real("epsilon", epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return _survival_horizon(epsilon, stages, delta)  # which checks stages and delta
