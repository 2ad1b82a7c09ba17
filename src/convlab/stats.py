"""Statistical summaries and distribution checks for trial batches.

Every summary is reduced from a histogram of totals (distinct values and
their counts, see simulate.TotalsHistogram); a per-trial array is first
counted with simulate.count_totals. The empirical CCDF is one float64
column, P(total > values[i]), beside the histogram's int64 `values`;
tail_decay_fit fits the rows of that pair above a noise floor, and
prefactor_corrected_slope takes the same rows' ks.

Percentiles are nearest-rank: the p-th percentile of n sorted values is the
element at 1-based rank ceil(p/100 * n), computed exactly on the decimal
form of p (so p = 7 of 100 values is rank 7, not 8). Standard deviation and
variance use the n-1 denominator. Both moments come from exact integer power
sums, so the mean and the variance are the correctly rounded values of the
exact rationals; the derived ratios of SummaryStats are computed from them
in summarize_histogram.

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
from .simulate import SimConfig, TotalsHistogram, TrialBatch, count_totals

__all__ = [
    "SummaryStats",
    "summarize",
    "summarize_histogram",
    "histogram_mean",
    "histogram_percentiles",
    "histogram_ccdf",
    "nearest_rank_percentile",
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
    """Mean, spread, p99 and derived ratios for one batch of totals.

    With 4 = SimConfig.stages: conservative_factor is the theory-to-observation
    ratio (4 / delta) / mean, efficiency the fraction 4 / mean of iterations
    that advanced the pipeline, and ci_width_99 the half-width of the 99%
    normal-approximation interval for the mean.
    """

    mean: float
    std: float
    variance: float
    p99: float
    conservative_factor: float
    efficiency: float
    ci_width_99: float


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
        conservative_factor=SimConfig.stages / config.delta / mean,
        efficiency=SimConfig.stages / mean,
        ci_width_99=CI_99_MULTIPLIER * std / math.sqrt(n),
    )


def ccdf(totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct integer totals, increasing, and the empirical P(total > k) at each."""
    values, counts = count_totals(totals)
    return values, histogram_ccdf(values, counts)


def histogram_ccdf(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Empirical P(total > values[i]) of a histogram, as a float64 column beside `values`."""
    cumulative, n = _cumulative_counts(counts, "ccdf")
    return (n - cumulative) / n


def tail_decay_fit(ks: np.ndarray, probs: np.ndarray, floor_prob: float) -> float:
    """OLS slope of ln(probs) against ks over the rows with probs > floor_prob."""
    floor_prob = _validate_real("noise floor", floor_prob)
    if floor_prob <= 0.0:
        raise ValueError(f"noise floor must be positive, got {floor_prob}")
    kept = probs > floor_prob
    count = np.count_nonzero(kept)
    if count < 3:
        raise InsufficientTailError(f"{count} points above the noise floor; need >= 3 to fit")
    slope, _ = np.polyfit(ks[kept], np.log(probs[kept]), 1)
    return float(slope)


def prefactor_corrected_slope(
    fitted_slope: float, ks: np.ndarray | Sequence[int], delta: float
) -> float:
    """A log-linear tail slope fitted over `ks`, less its polynomial-prefactor part.

    The exact survival of a four-stage total is (1-delta)**k times the cubic
    polynomial sum_{j<4} C(k, j) r**j with r = delta / (1-delta), so the OLS
    slope of ln negbin_survival over the same `ks` exceeds ln(1-delta) by the
    slope of the polynomial's log. OLS is linear in its response, so
    subtracting that share from `fitted_slope` estimates ln(1-delta). Below
    k = 4 the survival is 1, so there the share is -k ln(1-delta). A line
    needs at least two distinct `ks`, and delta below 1: at delta = 1 the
    tail ends at k = 4 and ln(1-delta) is -inf. A 1-d integer array is taken
    as it is; any other sequence is checked one element at a time, so a bool
    or a float among the ks is refused.
    """
    fitted_slope = _validate_real("fitted_slope", fitted_slope)
    if not (isinstance(ks, np.ndarray) and ks.ndim == 1 and np.issubdtype(ks.dtype, np.integer)):
        ks = np.array([_validate_count("ks", k, None) for k in ks])
    if ks.size == 0 or ks.min() == ks.max():  # fewer than two distinct ks
        distinct = min(ks.size, 1)
        raise ValueError(f"ks must hold at least two distinct integers, got {distinct} distinct")
    delta = _validate_delta(delta)
    if delta == 1.0:
        raise ValueError(f"delta must be below 1 for a finite tail slope, got {delta}")
    k = ks.astype(float)
    ratio = delta / (1.0 - delta)
    top = np.maximum(k, SimConfig.stages)  # the series holds from k = 4 on
    term, excess = np.ones_like(k), np.zeros_like(k)
    for j in range(1, SimConfig.stages):  # term = C(top, j) * ratio**j
        term *= (top - (j - 1)) * ratio / j
        excess += term
    share = np.where(k < SimConfig.stages, -k * math.log1p(-delta), np.log1p(excess))
    share_slope, _ = np.polyfit(k, share, 1)
    return fitted_slope - float(share_slope)


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
