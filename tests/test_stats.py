"""Metric suite: summary moments, percentiles, CCDF, negative binomial law."""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from conftest import DELTAS, decimal_survival, negbin_pmf
from conftest import prefactor_corrected_slope as reference_corrected_slope
from convlab.errors import EmptyInputError, InsufficientDataError, InsufficientTailError
from convlab.simulate import SimConfig, TotalsHistogram, TrialBatch, run_batch, run_histogram
from convlab.stats import (
    ccdf,
    histogram_ccdf,
    histogram_percentiles,
    nearest_rank_percentile,
    negbin_cdf,
    negbin_quantile,
    negbin_survival,
    _survival_horizon,
    prefactor_corrected_slope,
    summarize,
    summarize_histogram,
    tail_decay_fit,
)

TABLE_P99 = {
    0.1: 97, 0.2: 47, 0.3: 30, 0.4: 22, 0.5: 17, 0.6: 13, 0.7: 11, 0.8: 9, 0.9: 7,
}


def make_batch(sojourn_rows, delta=0.5):
    sojourns = np.array(sojourn_rows, dtype=np.int64)
    config = SimConfig(delta=delta, trials=sojourns.shape[0], seed=0)
    return TrialBatch(sojourns=sojourns, totals=sojourns.sum(axis=1), config=config)


# ---------------------------------------------------------------------------
# summary statistics on a hand-computed sample
# ---------------------------------------------------------------------------


def test_summarize_hand_oracle():
    # totals {4, 5, 9}: every moment below is worked out by hand
    batch = make_batch([[1, 1, 1, 1], [2, 1, 1, 1], [3, 2, 2, 2]])
    summary = summarize(batch)
    assert summary.mean == pytest.approx(6.0)
    assert summary.variance == pytest.approx(7.0)  # sample variance, n-1
    assert summary.std == pytest.approx(math.sqrt(7.0))
    assert summary.p99 == 9.0
    assert summary.conservative_factor == pytest.approx((4.0 / 0.5) / 6.0)
    assert summary.efficiency == pytest.approx(4.0 / 6.0)
    assert summary.ci_width_99 == pytest.approx(2.576 * math.sqrt(7.0) / math.sqrt(3))


def test_summary_ratios_are_the_written_out_expressions():
    """Totals 4 (x5), 7 (x2), 13 (x3) at delta 0.17: mean 7.3, variance 16.9.
    At this delta (4 / delta) / mean and 4 / (delta * mean) differ in the last
    bit, and so do 2.576 * std / sqrt(n) and 2.576 * sqrt(variance / n)."""
    config = SimConfig(delta=0.17, trials=10, seed=0)
    histogram = TotalsHistogram(config, np.array([4, 7, 13]), np.array([5, 2, 3]))
    summary = summarize_histogram(histogram)
    assert (summary.mean, summary.variance) == (7.3, 16.9)
    assert summary.conservative_factor == (4 / 0.17) / 7.3
    assert summary.efficiency == 4 / 7.3
    assert summary.ci_width_99 == 2.576 * math.sqrt(16.9) / math.sqrt(10)


RATIO_DELTAS = [0.01] + [round(0.05 * i, 2) for i in range(1, 20)] + [1.0]


def summary_of(delta, values, counts):
    """summarize_histogram of a hand-built histogram of sum(counts) trials."""
    config = SimConfig(delta=delta, trials=sum(counts), seed=0)
    return summarize_histogram(TotalsHistogram(config, np.array(values), np.array(counts)))


@pytest.mark.parametrize("delta", RATIO_DELTAS)
def test_summary_ratios_are_the_written_out_expressions_at_every_delta(delta):
    """The histogram of the test above: only conservative_factor depends on
    delta, and it divides 4 / delta by the mean, in that order."""
    summary = summary_of(delta, [4, 7, 13], [5, 2, 3])
    assert summary.conservative_factor == (4 / delta) / 7.3
    assert summary.efficiency == 4 / 7.3
    assert summary.ci_width_99 == 2.576 * math.sqrt(16.9) / math.sqrt(10)


def test_conservative_factor_values():
    # 1000 totals with means 10.058 and 19.914
    summary = summary_of(0.4, [10, 11], [942, 58])
    assert summary.mean == 10.058
    assert summary.conservative_factor == (4 / 0.4) / 10.058
    assert summary.conservative_factor == pytest.approx(10.0 / 10.058)
    summary = summary_of(0.2, [19, 20], [86, 914])
    assert summary.mean == 19.914
    assert summary.conservative_factor == (4 / 0.2) / 19.914
    assert summary.conservative_factor == pytest.approx(20.0 / 19.914)


def test_iteration_efficiency_values():
    # 10,000 totals with mean 4.4439
    summary = summary_of(0.9, [4, 5], [5561, 4439])
    assert summary.mean == 4.4439
    assert summary.efficiency == 4 / 4.4439
    assert summary.efficiency == pytest.approx(4.0 / 4.4439)
    # totals are at least the stage count, so every iteration advancing is 1.0
    assert summary_of(1.0, [4], [2]).efficiency == 1.0


def test_ci_width_values():
    # totals 4, 4, 4, 6: sample variance exactly 1
    summary = summary_of(0.5, [4, 6], [3, 1])
    assert summary.std == 1.0
    assert summary.ci_width_99 == 2.576 / 2
    assert summary.ci_width_99 == pytest.approx(1.288)
    # 10,000 totals split between 4 and 6: variance 10000 / 9999
    summary = summary_of(0.5, [4, 6], [5000, 5000])
    assert summary.variance == 10_000 / 9_999
    assert summary.ci_width_99 == 2.576 * math.sqrt(10_000 / 9_999) / 100
    assert summary.ci_width_99 == pytest.approx(0.02576, rel=1e-4)
    assert summary_of(0.5, [7], [3]).ci_width_99 == 0.0


def test_summarize_zero_variance_sample():
    batch = make_batch([[1, 1, 1, 1], [1, 1, 1, 1]], delta=1.0)
    summary = summarize(batch)
    assert summary.std == 0.0


def test_summarize_requires_two_trials():
    with pytest.raises(InsufficientDataError):
        summarize(make_batch([[1, 1, 1, 1]]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_summary_invariants_on_random_batches(seed):
    batch = run_batch(SimConfig(delta=0.35, trials=4000, seed=seed))
    summary = summarize(batch)
    assert summary.variance == pytest.approx(summary.std**2, rel=1e-9)
    assert 0.0 < summary.efficiency <= 1.0
    # pure arithmetic identity, exact up to rounding
    assert summary.conservative_factor * summary.mean * 0.35 == pytest.approx(
        4.0, rel=1e-12
    )


# ---------------------------------------------------------------------------
# percentiles and scalar metrics
# ---------------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = np.array([9, 4, 5])
    assert nearest_rank_percentile(values, 25) == 4.0
    assert nearest_rank_percentile(values, 75) == 9.0
    assert nearest_rank_percentile(values, 100) == 9.0
    assert nearest_rank_percentile(np.arange(1, 101), 1) == 1.0
    assert nearest_rank_percentile(np.arange(1, 101), 50) == 50.0


def test_nearest_rank_is_the_exact_integer_rank():
    """ceil(p * n / 100) in integers; in floating point, 290 pairs with
    integer p <= 100 and n <= 2000 land one rank high (p = 7, n = 100)."""
    assert nearest_rank_percentile(np.arange(1, 101), 7) == 7.0
    percentiles = range(1, 101)
    for n in [*range(1, 301), 700, 1400, 2000]:
        sample = np.arange(1, n + 1)
        expected = [float(-(-p * n // 100)) for p in percentiles]
        assert [nearest_rank_percentile(sample, p) for p in percentiles] == expected
        ones = np.ones(n, dtype=np.int64)
        assert histogram_percentiles(sample, ones, percentiles) == expected


@pytest.mark.parametrize("n", [10, 1000, 12345])
def test_nearest_rank_reads_a_decimal_percentile_exactly(n):
    sample = np.arange(1, n + 1)
    # 99.9 / 100.0 * 1000 is 999.0000000000001 in floating point
    assert nearest_rank_percentile(sample, 99.9) == float(-(-999 * n // 1000))
    assert nearest_rank_percentile(sample, 0.5) == float(-(-5 * n // 1000))


def test_nearest_rank_percentile_validation():
    with pytest.raises(EmptyInputError):
        nearest_rank_percentile(np.array([]), 50)
    with pytest.raises(ValueError):
        nearest_rank_percentile(np.array([1.0]), 0)
    with pytest.raises(ValueError):
        nearest_rank_percentile(np.array([1.0]), 101)


# ---------------------------------------------------------------------------
# CCDF and tail fitting
# ---------------------------------------------------------------------------


def test_ccdf_hand_example():
    values, probs = ccdf(np.array([4, 4, 5, 7]))
    assert list(zip(values.tolist(), probs.tolist())) == [(4, 0.5), (5, 0.25), (7, 0.0)]


def test_ccdf_rejects_empty():
    with pytest.raises(EmptyInputError):
        ccdf(np.array([], dtype=np.int64))


def test_tail_decay_fit_recovers_exact_geometric():
    rate = math.log(0.65)
    ks = np.arange(4, 40)
    fitted = tail_decay_fit(ks, np.exp(rate * (ks - 4)), floor_prob=1e-12)
    assert fitted == pytest.approx(rate, rel=1e-12)


def test_tail_decay_fit_needs_three_points():
    ks, probs = np.arange(4, 8), np.array([0.5, 0.25, 0.001, 0.0001])
    with pytest.raises(InsufficientTailError):
        tail_decay_fit(ks, probs, floor_prob=0.01)
    with pytest.raises(ValueError):
        tail_decay_fit(ks, probs, floor_prob=0.0)


@pytest.mark.parametrize("delta", DELTAS)
def test_ccdf_matches_negbin_law(delta, million_totals):
    """Pointwise agreement with the negative-binomial survival function at
    five standard errors, on every point above the 100/N support floor."""
    totals = million_totals[delta]
    n = totals.size
    for k, prob in zip(*ccdf(totals)):
        if prob <= 100.0 / n:
            continue
        target = 1.0 - negbin_cdf(int(k), 4, delta)
        assert abs(prob - target) < 5.0 * math.sqrt(prob / n)


# ---------------------------------------------------------------------------
# negative binomial law
# ---------------------------------------------------------------------------


def test_negbin_pmf_values():
    assert negbin_pmf(3, 4, 0.5) == 0.0  # below minimum support
    assert negbin_pmf(4, 4, 0.5) == pytest.approx(0.0625)
    assert negbin_cdf(7, 4, 0.5) == pytest.approx(0.5)
    assert negbin_quantile(0.5, 4, 0.5) == 7


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_negbin_pmf_against_scipy(delta):
    # scipy counts failures before the 4th success; shift support by 4
    for k in range(4, 60):
        reference = scipy_stats.nbinom.pmf(k - 4, 4, delta)
        assert negbin_pmf(k, 4, delta) == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("delta", DELTAS)
def test_negbin_identities(delta):
    upper = negbin_quantile(1.0 - 1e-9, 4, delta)
    ks = np.arange(4, upper + 1)
    masses = np.array([negbin_pmf(int(k), 4, delta) for k in ks])
    assert masses.sum() > 1.0 - 1e-6
    mean = float((ks * masses).sum())
    assert mean == pytest.approx(4.0 / delta, rel=1e-4)
    variance = float((ks**2 * masses).sum()) - mean**2
    assert variance == pytest.approx(4.0 * (1.0 - delta) / delta**2, rel=1e-3)


def exact_survival(k, stages, delta):
    """P(total > k) in exact rational arithmetic on the float delta."""
    delta = Fraction(delta)
    return sum(
        math.comb(k, j) * delta**j * (1 - delta) ** (k - j)
        for j in range(min(stages, k + 1))
    )


negbin_deltas = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-12, max_value=1e-3),
    st.floats(min_value=1e-3, max_value=1.0, exclude_min=True),
)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=400),
    stages=st.integers(min_value=1, max_value=6),
    delta=negbin_deltas,
)
def test_negbin_survival_and_cdf_match_exact_rationals(k, stages, delta):
    exact = exact_survival(k, stages, delta)
    survival = negbin_survival(k, stages, delta)
    if exact >= Fraction(1e-290):
        assert abs(Fraction(survival) - exact) <= Fraction(1e-12) * exact
    assert abs(Fraction(negbin_cdf(k, stages, delta)) - (1 - exact)) <= Fraction(1e-13)


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    stages=st.integers(min_value=1, max_value=6),
    delta=negbin_deltas,
)
def test_negbin_quantile_is_first_k_at_or_below_the_tail(q, stages, delta):
    k = negbin_quantile(q, stages, delta)
    assert k >= stages  # the support starts there, whatever 1 - q rounds to
    assert negbin_survival(k, stages, delta) <= 1.0 - q
    if k > stages:
        assert negbin_survival(k - 1, stages, delta) > 1.0 - q


@pytest.mark.parametrize(
    ("q", "stages", "delta", "expected"),
    [
        # a forward pmf sum loses the 1e-9 tail in rounding over 291k terms
        (1.0 - 1e-9, 4, 1e-4, 291525),
        # S(9) = 0.1**9 exceeds 1 - q, which is 9.9999997e-10 in binary
        (1.0 - 1e-9, 1, 0.9, 10),
    ],
)
def test_negbin_quantile_deep_tail(q, stages, delta, expected):
    assert negbin_quantile(q, stages, delta) == expected
    with decimal.localcontext() as context:
        context.prec = 80
        tail = 1 - Decimal(q)
        d = Decimal(delta)

        def survival(k):
            return sum(math.comb(k, j) * d**j * (1 - d) ** (k - j) for j in range(stages))

        assert survival(expected) <= tail < survival(expected - 1)


def assert_close_to_decimal(value, exact, rel=Decimal("1e-12")):
    assert abs(Decimal(value) - exact) <= rel * exact


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12, 1e-15])
def test_negbin_law_keeps_the_low_bits_of_delta(delta):
    """fl(1 - delta)**k raises the rounding of 1 - delta to the power k: at
    k = 4/delta it is 1.2e-10 off at delta = 1e-6 and 3.2e-3 off at 1e-15."""
    k = int(4 / delta)
    assert_close_to_decimal(negbin_survival(k, 4, delta), decimal_survival(k, 4, delta))
    with decimal.localcontext() as context:
        context.prec = 50
        d = Decimal(delta)
        pmf = math.comb(k - 1, 3) * d**4 * (1 - d) ** (k - 4)
    assert_close_to_decimal(negbin_pmf(k, 4, delta), pmf)


@settings(max_examples=200, deadline=None)
@given(
    stages=st.integers(min_value=1, max_value=8),
    exponent=st.floats(min_value=-17, max_value=0),
    scale=st.floats(min_value=0.2, max_value=8.0),
)
def test_negbin_survival_matches_decimal_reference(stages, exponent, scale):
    delta = 10.0**exponent
    k = max(stages, int(scale * stages / delta))
    exact = decimal_survival(k, stages, delta)
    if exact >= Decimal("1e-290"):
        assert_close_to_decimal(negbin_survival(k, stages, delta), exact)


def test_negbin_survival_with_many_stages_and_a_long_horizon():
    """C(6e7, j) passes the float range, and an exact rational power of
    1 - delta takes over 30 s here: the fallback works in logs."""
    exact = decimal_survival(60_000_000, 50, 1e-6)
    assert_close_to_decimal(negbin_survival(60_000_000, 50, 1e-6), exact)


def test_negbin_law_survives_coefficients_past_the_float_range():
    """C(1100, j) passes 1.8e308 near j = 500, where a float product overflows."""
    exact = exact_survival(1100, 500, 0.5)
    assert abs(Fraction(negbin_survival(1100, 500, 0.5)) - exact) <= Fraction(1e-12) * exact
    assert abs(Fraction(negbin_cdf(1100, 500, 0.5)) - (1 - exact)) <= Fraction(1e-13)
    pmf = math.comb(1099, 499) * Fraction(1, 2) ** 1100
    assert abs(Fraction(negbin_pmf(1100, 500, 0.5)) - pmf) <= Fraction(1e-12) * pmf


# ---------------------------------------------------------------------------
# survival horizon: the smallest k whose exact miss probability is <= epsilon
# ---------------------------------------------------------------------------


def is_horizon(k, epsilon, stages, delta):
    """survival(k) <= epsilon < survival(k - 1), on negbin_survival."""
    return negbin_survival(k, stages, delta) <= epsilon < negbin_survival(k - 1, stages, delta)


@pytest.mark.parametrize(
    ("delta", "epsilon", "expected"),
    [
        (0.5, 1e-6, 33),
        (0.1, 1e-6, 205),
        (0.9, 1e-6, 12),
        (1.0, 1e-6, 4),  # immediate convergence
        (0.9, 0.5, 4),  # never below the stage count
    ],
)
def test_survival_horizon_values(delta, epsilon, expected):
    assert _survival_horizon(epsilon, 4, delta) == expected
    assert is_horizon(expected, epsilon, 4, delta)
    # checked against the law in exact rationals
    tail = Fraction(epsilon)
    assert exact_survival(expected, 4, delta) <= tail < exact_survival(expected - 1, 4, delta)


def test_survival_horizon_with_many_stages():
    """500 stages put C(k, j) past the float range; the horizon is still exact."""
    def survival(k):
        return sum(math.comb(k, j) * Fraction(1, 2) ** k for j in range(500))

    assert _survival_horizon(1e-6, 500, 0.5) == 1161
    assert is_horizon(1161, 1e-6, 500, 0.5)
    assert survival(1161) <= Fraction(1e-6) < survival(1160)


@pytest.mark.parametrize(
    ("delta", "epsilon", "stages", "expected"),
    [
        # fl(1 - delta)**k gives 21370171740337470
        (1e-15, 1e-6, 4, 21350456963272126),
        # an exact rational power of 1 - delta takes over 20 s here
        (1e-6, 1e-6, 50, 91063368),
        # epsilon below 1e-16, where 1 - epsilon rounds to 1: no quantile level reaches it
        (0.5, 1e-20, 4, 83),
        (0.1, 1e-20, 4, 537),
        (1e-15, 1e-17, 4, 49095171617996488),
        (1e-6, 1e-30, 50, 179014666),
    ],
)
def test_survival_horizon_matches_decimal_reference(delta, epsilon, stages, expected):
    assert _survival_horizon(epsilon, stages, delta) == expected
    assert is_horizon(expected, epsilon, stages, delta)
    tail = Decimal(epsilon)
    assert decimal_survival(expected, stages, delta) <= tail
    assert tail < decimal_survival(expected - 1, stages, delta)


def test_survival_horizon_monotonicity():
    deltas = [0.1, 0.2, 0.4, 0.6, 0.8, 0.9]
    horizons = [_survival_horizon(1e-6, 4, d) for d in deltas]
    assert all(a >= b for a, b in zip(horizons, horizons[1:]))

    epsilons = [1e-9, 1e-6, 1e-3, 1e-1]
    by_eps = [_survival_horizon(e, 4, 0.3) for e in epsilons]
    assert all(a >= b for a, b in zip(by_eps, by_eps[1:]))


def test_survival_horizon_covers_single_stage_tail():
    """For one stage the sojourn is exactly geometric, so the horizon rule
    k = ceil(ln(eps)/ln(1-delta)) genuinely guarantees (1-delta)^k <= eps."""
    for delta in (0.1, 0.3, 0.5, 0.9):
        for epsilon in (1e-3, 1e-6):
            horizon = _survival_horizon(epsilon, 1, delta)
            assert (1.0 - delta) ** horizon <= epsilon


def test_survival_horizon_covers_four_stage_tail():
    for delta in (0.1, 0.3, 0.5, 0.9):
        for epsilon in (1e-3, 1e-6):
            horizon = _survival_horizon(epsilon, 4, delta)
            survival = 1.0 - negbin_cdf(horizon, 4, delta)
            assert survival <= epsilon


def test_survival_horizon_shrinks_order_of_magnitude_across_regions():
    # the horizon collapses by ~an order of magnitude from Marginal to High
    marginal = _survival_horizon(1e-6, 4, 0.1)
    high = _survival_horizon(1e-6, 4, 0.9)
    assert marginal > 10 * high
    assert math.isfinite(marginal)


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.3, 0.5, 0.9])
def test_prefactor_corrected_slope_matches_the_reference(delta):
    last = negbin_quantile(1.0 - 1e-6, 4, delta)
    ks = list(range(4, last, max(1, (last - 4) // 40)))
    for fitted in (math.log1p(-delta) / 2, -0.05):
        got = prefactor_corrected_slope(fitted, ks, delta)
        assert got == pytest.approx(reference_corrected_slope(fitted, ks, delta), abs=1e-9)


def per_k_corrected_slope(fitted_slope, ks, delta):
    """The correction fitted to ln negbin_survival, one survival call per k."""
    exact = np.log([negbin_survival(k, 4, delta) for k in ks])
    exact_slope, _ = np.polyfit(np.asarray(ks, dtype=float), exact, 1)
    return fitted_slope - (float(exact_slope) - math.log1p(-delta))


@pytest.mark.parametrize("delta", [1e-7, 1e-5, 0.001, 0.05, 0.1, 0.3, 0.5, 0.9, 0.999])
def test_prefactor_corrected_slope_matches_the_per_k_survival_fit(delta):
    last = negbin_quantile(1.0 - 1e-6, 4, delta)
    spans = [
        list(range(4, last, max(1, (last - 4) // 40))),
        list(range(-6, 12)),  # survival is 1 below four stages, at negative ks too
    ]
    for ks in spans:
        for fitted in (math.log1p(-delta) / 2, -0.05):
            got = prefactor_corrected_slope(fitted, ks, delta)
            assert got == pytest.approx(per_k_corrected_slope(fitted, ks, delta), abs=1e-9)
            assert prefactor_corrected_slope(fitted, np.array(ks, dtype=np.int64), delta) == got
    if delta == 1e-7:
        # the golden tail report's kept rows, where `tail` prints every slope as -0.000000
        histogram = run_histogram(SimConfig(delta, trials=150_000, seed=42))
        probs, floor_prob = histogram_ccdf(histogram.values, histogram.counts), 10.0 / 150_000
        kept = histogram.values[probs > floor_prob]
        fitted = tail_decay_fit(histogram.values, probs, floor_prob)
        got = prefactor_corrected_slope(fitted, kept, delta)
        assert got == prefactor_corrected_slope(fitted, kept.tolist(), delta)


def test_prefactor_corrected_slope_of_the_exact_law_is_its_rate():
    ks = list(range(10, 200))
    exact_slope, _ = np.polyfit(ks, np.log([negbin_survival(k, 4, 0.1) for k in ks]), 1)
    corrected = prefactor_corrected_slope(exact_slope, ks, 0.1)
    assert corrected == pytest.approx(math.log1p(-0.1), abs=1e-12)


def test_negbin_quantile_validation():
    with pytest.raises(ValueError):
        negbin_quantile(0.0, 4, 0.5)
    with pytest.raises(ValueError):
        negbin_quantile(1.0, 4, 0.5)
    with pytest.raises(ValueError):
        negbin_cdf(4, 4, 0.0)


def test_negbin_p99_reproduces_reference_column():
    for delta, expected in TABLE_P99.items():
        assert negbin_quantile(0.99, 4, delta) == expected


@pytest.mark.parametrize("delta", DELTAS)
def test_million_trial_p99_matches_negbin(delta, million_totals):
    empirical = nearest_rank_percentile(million_totals[delta], 99)
    assert abs(empirical - negbin_quantile(0.99, 4, delta)) <= 1
