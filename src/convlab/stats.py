"""Statistical summaries and distribution checks for trial batches.

Every summary is reduced from a histogram of totals (distinct values and
their counts, see simulate.TotalsHistogram); a per-trial array is first
counted with simulate.count_totals.

Percentiles are nearest-rank: the p-th percentile of n sorted values is the
element at 1-based rank ceil(p/100 * n), computed exactly on the decimal
form of p (so p = 7 of 100 values is rank 7, not 8). Standard deviation and
variance use the n-1 denominator. Both moments come from exact integer power
sums, so the mean and the variance are the correctly rounded values of the
exact rationals.

The analytic reference for trial totals is the negative binomial law for
`stages` successes at probability delta, pmf
C(k-1, stages-1) * delta**stages * (1-delta)**(k-stages) on k >= stages.
Its survival function, CDF and quantiles live here; the pmf is a test
reference.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import EmptyInputError, InsufficientDataError, InsufficientTailError
from .rng import _validate_count, _validate_delta, _validate_real
from .simulate import TotalsHistogram, TrialBatch, count_totals

__all__ = [
    "SummaryStats",
    "CcdfSeries",
    "summarize",
    "summarize_histogram",
    "histogram_mean",
    "histogram_percentiles",
    "histogram_ccdf",
    "nearest_rank_percentile",
    "conservative_factor",
    "iteration_efficiency",
    "ci_width_99",
    "ccdf",
    "tail_decay_fit",
    "prefactor_corrected_slope",
    "negbin_cdf",
    "negbin_survival",
    "negbin_quantile",
]

CI_99_MULTIPLIER = 2.576


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread, p99 and derived ratios for one batch of totals."""

    mean: float
    std: float
    variance: float
    p99: float
    success_rate: float
    conservative_factor: float
    efficiency: float
    ci_width_99: float


@dataclass(frozen=True)
class CcdfSeries:
    """Complementary CDF points (k, P(total > k)), one per distinct total."""

    points: tuple[tuple[int, float], ...]


def nearest_rank_percentile(values: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile of a 1-d sample (sort-based reference)."""
    arr = np.asarray(values)
    if arr.size == 0:
        raise EmptyInputError("percentile of an empty sample is undefined")
    rank = _nearest_rank(percentile, arr.size)
    return float(np.sort(arr)[rank - 1])


def _nearest_rank(percentile: float, n: int) -> int:
    """The 1-based rank ceil(p/100 * n), exact on the decimal repr of p."""
    percentile = _validate_real("percentile", percentile)
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    # in floating point, 7 / 100.0 * 100 is 7.000000000000001: rank 8, not 7
    return math.ceil(Fraction(repr(percentile)) * n / 100)


def _cumulative_counts(counts: np.ndarray, what: str) -> tuple[np.ndarray, int]:
    """Running counts and the sample size; EmptyInputError for an empty sample."""
    cumulative = np.cumsum(counts)
    if cumulative.size == 0 or cumulative[-1] == 0:
        raise EmptyInputError(f"{what} of an empty sample is undefined")
    return cumulative, int(cumulative[-1])


def histogram_percentiles(
    values: np.ndarray, counts: np.ndarray, percentiles: Sequence[float]
) -> list[float]:
    """Nearest-rank percentiles of the sample that `counts` of `values` make up."""
    cumulative, n = _cumulative_counts(counts, "percentile")
    ranks = [_nearest_rank(percentile, n) for percentile in percentiles]
    # the rank-r element is the first value whose cumulative count reaches r
    return [float(value) for value in values[np.searchsorted(cumulative, ranks)]]


def _power_sums(values: np.ndarray, counts: np.ndarray, order: int) -> list[int]:
    """Exact sums of counts * values**k for k = 0..order, as Python ints."""
    terms = counts.tolist()
    factors = values.tolist()
    sums = [sum(terms)]
    for _ in range(order):
        terms = list(map(operator.mul, terms, factors))
        sums.append(sum(terms))
    return sums


def histogram_mean(values: np.ndarray, counts: np.ndarray) -> float:
    """Correctly rounded mean of the sample that `counts` of `values` make up."""
    n, total = _power_sums(values, counts, 1)
    if n == 0:
        raise EmptyInputError("mean of an empty sample is undefined")
    return total / n


def conservative_factor(delta: float, mean: float, stages: int = 4) -> float:
    """Theory-to-observation ratio (stages / delta) / mean."""
    delta = _validate_delta(delta)
    stages = _validate_count("stages", stages, 1)
    mean = _validate_real("mean", mean)
    if mean <= 0.0:
        raise ValueError(f"mean must be positive, got {mean}")
    return (stages / delta) / mean


def iteration_efficiency(mean: float, stages: int = 4) -> float:
    """Fraction of iterations that advanced the pipeline: stages / mean."""
    stages = _validate_count("stages", stages, 1)
    mean = _validate_real("mean", mean)
    if mean < stages:
        raise ValueError(
            f"mean {mean} below stages {stages}; totals cannot average below stages"
        )
    return stages / mean


def ci_width_99(std: float, n: int) -> float:
    """Half-width of the 99% normal-approximation interval for the mean."""
    n = _validate_count("sample size", n, 1)
    std = _validate_real("std", std)
    if std < 0.0:
        raise ValueError(f"std must be non-negative, got {std}")
    return CI_99_MULTIPLIER * std / math.sqrt(n)


def summarize(batch: TrialBatch) -> SummaryStats:
    """Full summary of a batch's totals; requires at least 2 trials."""
    return summarize_histogram(TotalsHistogram.from_batch(batch))


def summarize_histogram(histogram: TotalsHistogram) -> SummaryStats:
    """Full summary of a histogram of totals; requires at least 2 trials."""
    values, counts, config = histogram.values, histogram.counts, histogram.config
    n, s1, s2 = _power_sums(values, counts, 2)
    if n < 2:
        raise InsufficientDataError(f"summary needs >= 2 trials, got {n}")
    mean = s1 / n
    variance = (n * s2 - s1 * s1) / (n * (n - 1))
    std = math.sqrt(variance)
    (p99,) = histogram_percentiles(values, counts, (99,))
    return SummaryStats(
        mean=mean,
        std=std,
        variance=variance,
        p99=p99,
        success_rate=histogram.success_rate,
        conservative_factor=conservative_factor(config.delta, mean, config.stages),
        efficiency=iteration_efficiency(mean, config.stages),
        ci_width_99=ci_width_99(std, n),
    )


def ccdf(totals: np.ndarray) -> CcdfSeries:
    """Empirical P(total > k) at every distinct k of integer totals, increasing."""
    return histogram_ccdf(*count_totals(totals))


def histogram_ccdf(values: np.ndarray, counts: np.ndarray) -> CcdfSeries:
    """Empirical P(total > k) at every distinct k of a histogram, increasing."""
    cumulative, n = _cumulative_counts(counts, "ccdf")
    probs = (n - cumulative) / n
    return CcdfSeries(
        points=tuple(
            (int(k), float(p)) for k, p in zip(values.tolist(), probs.tolist())
        )
    )


def tail_decay_fit(series: CcdfSeries, floor_prob: float) -> float:
    """OLS slope of ln(prob) against k over points with prob > floor_prob."""
    floor_prob = _validate_real("noise floor", floor_prob)
    if floor_prob <= 0.0:
        raise ValueError(f"noise floor must be positive, got {floor_prob}")
    kept = [(k, p) for k, p in series.points if p > floor_prob]
    if len(kept) < 3:
        raise InsufficientTailError(
            f"{len(kept)} points above the noise floor; need >= 3 to fit"
        )
    ks = np.array([k for k, _ in kept], dtype=float)
    logs = np.log(np.array([p for _, p in kept]))
    slope, _ = np.polyfit(ks, logs, 1)
    return float(slope)


def prefactor_corrected_slope(
    fitted_slope: float, ks: Sequence[int], delta: float, stages: int = 4
) -> float:
    """A log-linear tail slope fitted over `ks`, less its polynomial-prefactor part.

    The exact survival is (1-delta)**k times a degree-(stages-1) polynomial in
    k, so the OLS slope of ln negbin_survival over the same `ks` exceeds
    ln(1-delta) by the prefactor's share. OLS is linear in its response, so
    subtracting that share from `fitted_slope` estimates ln(1-delta). A line
    needs at least two distinct `ks`, and delta below 1: at delta = 1 the
    tail ends at k = stages and ln(1-delta) is -inf.
    """
    fitted_slope = _validate_real("fitted_slope", fitted_slope)
    ks = [_validate_count("ks", k, None) for k in ks]
    distinct = len(set(ks))
    if distinct < 2:
        raise ValueError(f"ks must hold at least two distinct integers, got {distinct} distinct")
    delta = _validate_delta(delta)
    if delta == 1.0:
        raise ValueError(f"delta must be below 1 for a finite tail slope, got {delta}")
    exact = np.log([negbin_survival(k, stages, delta) for k in ks])
    exact_slope, _ = np.polyfit(np.asarray(ks, dtype=float), exact, 1)
    return fitted_slope - (float(exact_slope) - math.log1p(-delta))


# ---------------------------------------------------------------------------
# negative binomial reference law
# ---------------------------------------------------------------------------


def _comb_term(comb: int, delta: float, successes: int, failures: int) -> float:
    """comb * delta**successes * (1-delta)**failures, keeping delta's low bits.

    1 - delta is rarely a float: with stay = fl(1 - delta) the remainder
    t = (1 - stay) - delta is exact and 1 - delta = stay + t, so the power is
    stay**failures * exp(failures * log1p(t / stay)). A binomial coefficient
    past the float range (about 1.8e308) makes the float product overflow;
    that term keeps comb * delta**successes as an exact rational and combines
    it with failures * log1p(-delta) in logs.
    """
    stay = 1.0 - delta
    t = (1.0 - stay) - delta
    try:
        power = stay**failures
        if t:
            power *= math.exp(failures * math.log1p(t / stay))
        return comb * delta**successes * power
    except OverflowError:
        head = comb * Fraction(delta) ** successes
        log_head = math.log(head.numerator) - math.log(head.denominator)
        return math.exp(log_head + failures * math.log1p(-delta))


def negbin_survival(k: int, stages: int, delta: float) -> float:
    """P(total iterations > k) = P(Binomial(k, delta) < stages), summed in `stages` terms."""
    stages, delta = _validate_count("stages", stages, 1), _validate_delta(delta)
    k = _validate_count("k", k, None)
    if k < stages:
        return 1.0
    return math.fsum(_comb_term(math.comb(k, j), delta, j, k - j) for j in range(stages))


def negbin_cdf(k: int, stages: int, delta: float) -> float:
    """P(total iterations <= k) = 1 - negbin_survival(k)."""
    return 1.0 - negbin_survival(k, stages, delta)


def _survival_horizon(tail: float, stages: int, delta: float) -> int:
    """Smallest k with negbin_survival(k) <= tail (0 < tail < 1): double, then bisect."""
    stages, delta = _validate_count("stages", stages, 1), _validate_delta(delta)
    below, above = stages - 1, stages  # survival is 1 below stages
    while negbin_survival(above, stages, delta) > tail:
        below, above = above, 2 * above
    ks = range(below + 1, above + 1)
    return ks[bisect_left(ks, True, key=lambda k: negbin_survival(k, stages, delta) <= tail)]


def negbin_quantile(q: float, stages: int, delta: float) -> int:
    """Smallest k with CDF(k) >= q, that is with negbin_survival(k) <= 1 - q."""
    q = _validate_real("quantile level", q)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    return _survival_horizon(1.0 - q, stages, delta)
