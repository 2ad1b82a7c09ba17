"""Operating regions."""

import pytest

from convlab.regions import RegionLabel, classify

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

