"""Operational-region classification.

The paper's three operating zones partition the per-stage success
probability at the thresholds read off its campaign: Marginal below 0.3,
Practical from 0.3 to 0.6 inclusive, and HighPerformance above 0.6.
"""

from __future__ import annotations

import enum

from .rng import _validate_delta

__all__ = [
    "RegionLabel",
    "classify",
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
