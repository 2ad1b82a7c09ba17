"""Acceptance gate: ten numbered criteria, one test each, plus a guard that
shows criterion 05's check can fail.

Every criterion test prints a single `[PASS]/[FAIL] criterion NN` verdict
line so a transcript of the run doubles as the acceptance report. All tolerances are
pinned here and nowhere else.
"""

import contextlib
import io
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import CAMPAIGN_SEED, CAMPAIGN_TRIALS, DELTAS, negbin_pmf, prefactor_corrected_slope
from convlab.calibrate import MonitorConfig, replay, synthesize_drift_stream
from convlab.cli import main
from convlab.harness import cross_validate
from convlab.regions import RegionLabel, classify
from convlab.rng import child_seed
from convlab.simulate import run_sweep
from convlab.stats import (
    ccdf,
    negbin_quantile,
    nearest_rank_percentile,
    summarize,
    tail_decay_fit,
)

TABLE_THEORY = [40.000, 20.000, 13.333, 10.000, 8.000, 6.667, 5.714, 5.000, 4.444]
TABLE_P99 = [97, 47, 30, 22, 17, 13, 11, 9, 7]


def verdict(number, description, check):
    try:
        check()
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {description}")
        raise
    print(f"[PASS] criterion {number:02d}: {description}")


def run_exact_json(delta):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["exact", "--delta", str(delta), "--json"])
    assert code == 0
    return json.loads(buffer.getvalue())


def test_criterion_01_exact_theory_reproduction():
    def check():
        started = time.perf_counter()
        for delta, expected in zip(DELTAS, TABLE_THEORY):
            payload = run_exact_json(delta)
            assert abs(payload["expected_total"] - expected) < 1e-3
            fundamental = payload["expected_steps"][0]
            closed = payload["closed_form_attempts"]
            assert abs(fundamental - closed) <= 1e-10 * abs(closed)
        assert time.perf_counter() - started < 1.0

    verdict(1, "closed-form expectations match the reference column", check)


def test_criterion_02_campaign_reproduction():
    def check():
        started = time.perf_counter()
        batches = run_sweep(DELTAS, 10_000, CAMPAIGN_SEED)
        for batch in batches:
            summary = summarize(batch)
            delta = batch.config.delta
            assert (batch.totals <= 1000).all()
            assert abs(summary.mean - 4.0 / delta) <= 3.0 * summary.ci_width_99
            assert 0.985 <= summary.conservative_factor <= 1.015
        assert time.perf_counter() - started < 10.0

    verdict(2, "90,000-trial campaign: success, mean, conservative factor", check)


def test_criterion_03_variance_law(million_totals):
    def check():
        for delta in DELTAS:
            empirical = float(np.std(million_totals[delta], ddof=1))
            analytic = math.sqrt(4.0 * (1.0 - delta)) / delta
            assert abs(empirical - analytic) <= 0.05 * analytic

    verdict(3, "million-trial standard deviations track sqrt(4(1-d))/d", check)


def test_criterion_04_tail_latency_oracle(million_totals, campaign_batches):
    def check():
        for delta in DELTAS:
            oracle = negbin_quantile(0.99, 4, delta)
            empirical = nearest_rank_percentile(million_totals[delta], 99)
            assert abs(empirical - oracle) <= 1
        for batch, table_value in zip(campaign_batches, TABLE_P99):
            campaign_p99 = summarize(batch).p99
            assert abs(table_value - campaign_p99) <= 2

    verdict(4, "P99 matches the distributional oracle and reference column", check)


def corrected_tail_slope(totals, delta):
    """Criterion 05's estimate of the tail rate: the log-CCDF slope above the
    10/n noise floor, with the four-stage polynomial factor divided out."""
    floor_prob = 10.0 / totals.size
    values, probs = ccdf(totals)
    fitted = tail_decay_fit(values, probs, floor_prob=floor_prob)
    return prefactor_corrected_slope(fitted, values[probs > floor_prob], delta)


def test_criterion_05_exponential_tail_decay(million_totals):
    """The simulated tail decays at the asymptotic rate ln(1-delta), within 10%.

    The four-stage total has survival (1-delta)^k times a cubic polynomial in
    k, so a plain least-squares log-CCDF slope lands 25-34% short of
    ln(1-delta) at any feasible sample size. The slope is therefore taken
    after dividing the law's exact polynomial factor out of the empirical
    CCDF over the kept points; what is left is the exponential rate the
    criterion is about.
    """

    def check():
        for delta in DELTAS:
            corrected = corrected_tail_slope(million_totals[delta], delta)
            target = math.log1p(-delta)
            assert abs(corrected - target) <= 0.10 * abs(target)

    verdict(5, "prefactor-corrected log-CCDF slope within 10% of ln(1-delta)", check)


def test_criterion_05_rejects_a_neighbouring_delta(million_totals):
    """Criterion 05's check fails when the data come from the grid delta next
    to the one it is evaluated against, in either direction."""
    for lower, upper in zip(DELTAS, DELTAS[1:]):
        for data_delta, stated_delta in ((lower, upper), (upper, lower)):
            corrected = corrected_tail_slope(million_totals[data_delta], stated_delta)
            target = math.log1p(-stated_delta)
            assert abs(corrected - target) > 0.10 * abs(target)


def test_criterion_06_stepwise_vectorized_equivalence():
    def check():
        for index, delta in enumerate(DELTAS):
            report = cross_validate(delta, trials=10_000, seed=child_seed(42, index))
            assert abs(report.mean_difference) < 3.0 * report.combined_se
            assert 0.9 <= report.variance_ratio <= 1.1
            assert report.all_converged

    verdict(6, "stepwise and vectorized engines agree at 10,000 trials", check)


def test_criterion_07_distribution_identities():
    def check():
        for delta in DELTAS:
            upper = negbin_quantile(1.0 - 1e-9, 4, delta)
            ks = np.arange(4, upper + 1, dtype=np.int64)
            masses = np.array([negbin_pmf(int(k), 4, delta) for k in ks])
            assert masses.sum() > 1.0 - 1e-6
            mean = float((ks * masses).sum())
            assert abs(mean - 4.0 / delta) <= 1e-4 * (4.0 / delta)
            variance = float((ks.astype(float) ** 2 * masses).sum()) - mean**2
            analytic = 4.0 * (1.0 - delta) / delta**2
            assert abs(variance - analytic) <= 1e-3 * analytic

    verdict(7, "negative-binomial mass, mean, and variance identities", check)


def test_criterion_08_region_classification():
    def check():
        probes = {
            0.1: RegionLabel.MARGINAL,
            0.29: RegionLabel.MARGINAL,
            0.3: RegionLabel.PRACTICAL,
            0.45: RegionLabel.PRACTICAL,
            0.6: RegionLabel.PRACTICAL,
            0.61: RegionLabel.HIGH_PERFORMANCE,
            0.9: RegionLabel.HIGH_PERFORMANCE,
        }
        for delta, expected in probes.items():
            assert classify(delta) is expected

    verdict(8, "operating-region boundaries on the probe set", check)


def test_criterion_09_drift_detection():
    def check():
        config = MonitorConfig()
        detected = 0
        for index in range(100):
            events = synthesize_drift_stream(
                [(0.7, 500), (0.2, 500)], seed=9000 + index
            )
            fired = [
                action.timestamp
                for action in replay(events, config)
                if action.kind.value != "NoAction"
            ]
            if fired and 500 <= fired[0] <= 650:
                detected += 1
        assert detected >= 95

        quiet = 0
        for index in range(100):
            events = synthesize_drift_stream([(0.7, 1000)], seed=5000 + index)
            fired = [
                action
                for action in replay(events, config)
                if action.kind.value != "NoAction"
            ]
            quiet += not fired
        assert quiet >= 95

    verdict(9, "drift flagged within 150 attempts; quiet streams stay quiet", check)


def test_criterion_10_throughput_and_memory():
    def check():
        tracemalloc.start()
        try:
            start = time.perf_counter()
            batches = run_sweep(DELTAS, CAMPAIGN_TRIALS, CAMPAIGN_SEED)
            runtime = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trials = sum(batch.config.trials for batch in batches)
        assert trials / runtime >= 100_000
        assert peak < 128 * 2**20

    verdict(10, "generation throughput and campaign memory ceiling", check)
