"""Operational-region classification and timeout recommendation.

Regions partition the per-stage success probability: Marginal below the
lower threshold, Practical between the thresholds inclusive, and
HighPerformance above the upper threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .rng import _validate_delta
from .stats import _survival_horizon

__all__ = [
    "RegionLabel",
    "RegionThresholds",
    "DEFAULT_THRESHOLDS",
    "classify",
    "recommended_timeout",
]


class RegionLabel(enum.Enum):
    MARGINAL = "Marginal"
    PRACTICAL = "Practical"
    HIGH_PERFORMANCE = "HighPerformance"


@dataclass(frozen=True)
class RegionThresholds:
    marginal_upper: float = 0.3
    practical_upper: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.marginal_upper < self.practical_upper < 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < marginal_upper < practical_upper < 1"
            )


DEFAULT_THRESHOLDS = RegionThresholds()


def classify(delta: float, thresholds: RegionThresholds = DEFAULT_THRESHOLDS) -> RegionLabel:
    """Region of one success probability; boundaries belong to Practical."""
    delta = _validate_delta(delta)
    if delta < thresholds.marginal_upper:
        return RegionLabel.MARGINAL
    if delta <= thresholds.practical_upper:
        return RegionLabel.PRACTICAL
    return RegionLabel.HIGH_PERFORMANCE


def recommended_timeout(delta: float, epsilon: float, stages: int = 4) -> int:
    """Smallest k whose exact miss probability stats.negbin_survival(k) is <= epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return _survival_horizon(epsilon, stages, delta)  # which checks stages and delta
