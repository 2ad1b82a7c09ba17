"""Operating regions and timeout budgeting."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import decimal_survival
from convlab.regions import (
    DEFAULT_THRESHOLDS,
    RegionLabel,
    RegionThresholds,
    classify,
    recommended_timeout,
)
from convlab.stats import negbin_cdf

# boundary semantics: 0.3 and 0.6 are both Practical
PROBES = [
    (0.1, RegionLabel.MARGINAL),
    (0.29, RegionLabel.MARGINAL),
    (0.3, RegionLabel.PRACTICAL),
    (0.45, RegionLabel.PRACTICAL),
    (0.6, RegionLabel.PRACTICAL),
    (0.61, RegionLabel.HIGH_PERFORMANCE),
    (0.9, RegionLabel.HIGH_PERFORMANCE),
]


@pytest.mark.parametrize("delta,expected", PROBES)
def test_classify_probe_set(delta, expected):
    assert classify(delta) is expected


def test_classify_extends_below_validated_range():
    assert classify(0.05) is RegionLabel.MARGINAL
    assert classify(1.0) is RegionLabel.HIGH_PERFORMANCE


def test_classify_rejects_invalid_delta():
    with pytest.raises(ValueError):
        classify(0.0)
    with pytest.raises(ValueError):
        classify(1.1)


def test_classify_with_custom_thresholds():
    thresholds = RegionThresholds(marginal_upper=0.5, practical_upper=0.8)
    assert classify(0.45, thresholds) is RegionLabel.MARGINAL
    assert classify(0.5, thresholds) is RegionLabel.PRACTICAL
    assert classify(0.81, thresholds) is RegionLabel.HIGH_PERFORMANCE


def test_threshold_validation():
    with pytest.raises(ValueError):
        RegionThresholds(marginal_upper=0.6, practical_upper=0.3)
    with pytest.raises(ValueError):
        RegionThresholds(marginal_upper=0.0, practical_upper=0.5)
    with pytest.raises(ValueError):
        RegionThresholds(marginal_upper=0.3, practical_upper=1.0)
    assert DEFAULT_THRESHOLDS.marginal_upper == 0.3
    assert DEFAULT_THRESHOLDS.practical_upper == 0.6


# ---------------------------------------------------------------------------
# recommended timeout
# ---------------------------------------------------------------------------


def test_recommended_timeout_values():
    # smallest k with P(T > k) <= 1e-6 < P(T > k - 1), checked with Fractions
    assert recommended_timeout(0.5, 1e-6) == 33
    assert recommended_timeout(0.1, 1e-6) == 205
    assert recommended_timeout(0.9, 1e-6) == 12
    assert recommended_timeout(1.0, 1e-6) == 4  # immediate convergence
    assert recommended_timeout(0.9, 0.5) == 4  # never below the stage count


def test_recommended_timeout_with_many_stages():
    """500 stages put C(k, j) past the float range; the budget is still exact."""
    def survival(k):
        return sum(math.comb(k, j) * Fraction(1, 2) ** k for j in range(500))

    budget = recommended_timeout(0.5, 1e-6, stages=500)
    assert survival(budget) <= Fraction(1e-6) < survival(budget - 1)


@pytest.mark.parametrize(
    ("delta", "stages", "expected"),
    [
        # fl(1 - delta)**k gives 21370171740337470
        (1e-15, 4, 21350456963272126),
        # an exact rational power of 1 - delta takes over 20 s here
        (1e-6, 50, 91063368),
    ],
)
def test_recommended_timeout_for_tiny_delta_matches_decimal_reference(delta, stages, expected):
    assert recommended_timeout(delta, 1e-6, stages=stages) == expected
    tail = Decimal(1e-6)
    assert decimal_survival(expected, stages, delta) <= tail
    assert tail < decimal_survival(expected - 1, stages, delta)


def test_recommended_timeout_monotonicity():
    deltas = [0.1, 0.2, 0.4, 0.6, 0.8, 0.9]
    budgets = [recommended_timeout(d, 1e-6) for d in deltas]
    assert all(a >= b for a, b in zip(budgets, budgets[1:]))

    epsilons = [1e-9, 1e-6, 1e-3, 1e-1]
    by_eps = [recommended_timeout(0.3, e) for e in epsilons]
    assert all(a >= b for a, b in zip(by_eps, by_eps[1:]))


def test_recommended_timeout_validation():
    with pytest.raises(ValueError):
        recommended_timeout(0.0, 1e-6)
    with pytest.raises(ValueError):
        recommended_timeout(0.5, 0.0)
    with pytest.raises(ValueError):
        recommended_timeout(0.5, 1.0)


def test_timeout_covers_single_stage_tail():
    """For one stage the sojourn is exactly geometric, so the budget rule
    k = ceil(ln(eps)/ln(1-delta)) genuinely guarantees (1-delta)^k <= eps."""
    for delta in (0.1, 0.3, 0.5, 0.9):
        for epsilon in (1e-3, 1e-6):
            budget = recommended_timeout(delta, epsilon, stages=1)
            assert (1.0 - delta) ** budget <= epsilon


def test_timeout_covers_four_stage_tail():
    for delta in (0.1, 0.3, 0.5, 0.9):
        for epsilon in (1e-3, 1e-6):
            budget = recommended_timeout(delta, epsilon)
            survival = 1.0 - negbin_cdf(budget, 4, delta)
            assert survival <= epsilon


def test_timeout_shrinks_order_of_magnitude_across_regions():
    # the budget collapses by ~an order of magnitude from Marginal to High
    marginal = recommended_timeout(0.1, 1e-6)
    high = recommended_timeout(0.9, 1e-6)
    assert marginal > 10 * high
    assert math.isfinite(marginal)
