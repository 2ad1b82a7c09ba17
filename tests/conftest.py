"""Shared fixtures: the reference campaign and the large calibration batches.

Both fixtures are deterministic (fixed base seed 42, batch seeds split per
index) so every statistical assertion in the suite is repeatable bit for bit.
An autouse guard fails any test that leaves tracemalloc on or off other than
it found it, or leaves a thread running, so a leak is reported where it
happens.
"""

import contextlib
import decimal
import math
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from convlab import SimConfig, run_batch, run_sweep, simulate
from convlab.rng import child_seed
from convlab.stats import _comb_term

DELTAS = [round(0.1 * i, 1) for i in range(1, 10)]
CAMPAIGN_SEED = 42
CAMPAIGN_TRIALS = 10_000
MILLION_TRIALS = 1_000_000


@pytest.fixture(autouse=True)
def tracing_is_left_as_found():
    """Fail the test that leaves tracemalloc's on/off state changed or a
    thread running.

    A leaked trace slows every later allocation and inflates the peaks that
    memory tests read, so the failure would otherwise surface in a later,
    unrelated test.
    """
    was_tracing = tracemalloc.is_tracing()
    threads = threading.active_count()
    yield
    if tracemalloc.is_tracing() != was_tracing:
        if was_tracing:
            tracemalloc.start()
        else:
            tracemalloc.stop()
        pytest.fail(f"test left tracemalloc.is_tracing() = {not was_tracing}")
    assert threading.active_count() == threads, "test left a thread running"


@contextlib.contextmanager
def histogram_workers(count):
    """Count histograms on `count` workers, or on fewer if there are fewer chunks.

    Sets simulate's private worker cap and shows it an affinity mask of
    `count` CPUs, so the worker count does not depend on the host.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_MAX_WORKERS", count)
        patch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(count)),
                      raising=False)
        yield


@pytest.fixture(scope="session")
def campaign_batches():
    """The 90,000-trial reference campaign: 10,000 trials per delta."""
    return run_sweep(DELTAS, CAMPAIGN_TRIALS, CAMPAIGN_SEED)


@pytest.fixture(scope="session")
def million_totals():
    """Per-delta totals at one million trials; sojourn matrices are dropped
    so the retained footprint stays under ~80 MB."""
    totals = {}
    for index, delta in enumerate(DELTAS):
        config = SimConfig(
            delta=delta, trials=MILLION_TRIALS, seed=child_seed(CAMPAIGN_SEED, index)
        )
        totals[delta] = run_batch(config).totals
    return totals


class ConstantOracle:
    """Always-succeed or always-fail stage oracle for exercising edge paths."""

    def __init__(self, outcome):
        self.outcome = bool(outcome)

    def attempt(self, stage, rng):
        return self.outcome


def negbin_pmf(k, stages, delta):
    """P(total = k) for `stages` successes at probability delta; 0 below k = stages.

    Built on the library's survival term, so the pmf keeps delta's low bits
    and survives binomial coefficients past the float range as it does.
    """
    if k < stages:
        return 0.0
    return _comb_term(math.comb(k - 1, stages - 1), delta, stages, k - stages)


def decimal_survival(k, stages, delta):
    """P(total > k) to 50 significant digits on the float delta."""
    with decimal.localcontext() as context:
        context.prec = 50
        d = Decimal(delta)
        return sum(math.comb(k, j) * d**j * (1 - d) ** (k - j) for j in range(min(stages, k + 1)))


def geometric_chi_square(column, delta, bins=20):
    """Chi-square statistic of integer samples against Geometric(delta),
    support {1,2,...}, with the tail beyond `bins` pooled into one cell."""
    column = np.asarray(column)
    n = column.size
    statistic = 0.0
    for k in range(1, bins + 1):
        expected = n * (1.0 - delta) ** (k - 1) * delta
        observed = int((column == k).sum())
        statistic += (observed - expected) ** 2 / expected
    tail_expected = n * (1.0 - delta) ** bins
    tail_observed = int((column > bins).sum())
    if tail_expected > 0.0:
        statistic += (tail_observed - tail_expected) ** 2 / tail_expected
    return statistic


def prefactor_corrected_slope(fitted_slope, ks, delta, stages=4):
    """Tail rate from a log-linear CCDF fit with the law's prefactor divided out.

    The stage-sum total has survival
    P(T > k) = (1-delta)^k * sum_{j<stages} C(k, j) (delta/(1-delta))^j,
    so a least-squares slope of ln P(T > k) against k is ln(1-delta) plus the
    slope of the log of that polynomial factor, which stays positive over any
    span a finite sample covers. OLS is linear in its response, so subtracting
    the factor's fitted slope over the same `ks` from `fitted_slope` equals
    fitting ln P(T > k) minus the log factor: an estimate of ln(1-delta).
    """
    ratio = delta / (1.0 - delta)
    ks = np.asarray(ks, dtype=float)
    log_factor = np.log(
        [sum(math.comb(int(k), j) * ratio**j for j in range(stages)) for k in ks]
    )
    factor_slope, _ = np.polyfit(ks, log_factor, 1)
    return fitted_slope - float(factor_slope)
