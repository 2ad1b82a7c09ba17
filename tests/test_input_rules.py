"""Library input rules: every count, delta and real goes through rng's validators.

A count must be an integer (numpy integers included, bools refused), a
delta a real number in (0, 1], a seed an unsigned 64-bit integer, and any
other real-valued argument a finite real number (bools refused) before its
own range is checked. A bad value raises ValueError naming the argument
before any work starts. The source check at the end keeps these rules in
rng.py alone.
"""

import ast
import re
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import convlab
from convlab import calibrate, harness, simulate
from convlab.calibrate import MonitorConfig, synthesize_drift_stream
from convlab.harness import cross_validate
from convlab.markov import PipelineSpec
from convlab.regions import classify
from convlab.rng import child_seed, generator, trial_generators
from convlab.simulate import SimConfig, run_sweep, sample_geometric
from convlab.stats import (
    histogram_percentiles,
    nearest_rank_percentile,
    negbin_cdf,
    negbin_quantile,
    negbin_survival,
    prefactor_corrected_slope,
    tail_decay_fit,
)

SERIES = (np.arange(4, 8), np.array([0.5, 0.25, 0.125, 0.0625]))

# (id, argument name, call with the count, a valid count, the count's minimum)
COUNTS = [
    ("SimConfig.trials", "trials", lambda v: SimConfig(0.5, trials=v), 7, 1),
    ("PipelineSpec.stages", "stages", lambda v: PipelineSpec(0.5, stages=v), 3, 1),
    ("run_sweep.trials", "trials",
     lambda v: [batch.totals.tolist() for batch in run_sweep([0.5, 0.2], v, 1)], 7, 1),
    ("cross_validate.trials", "trials", lambda v: cross_validate(0.5, v, 1), 1000, 1000),
    ("negbin_survival.stages", "stages", lambda v: negbin_survival(9, v, 0.5), 3, 1),
    ("negbin_cdf.stages", "stages", lambda v: negbin_cdf(9, v, 0.5), 3, 1),
    ("negbin_quantile.stages", "stages", lambda v: negbin_quantile(0.9, v, 0.5), 3, 1),
    ("MonitorConfig.window_size", "window_size",
     lambda v: MonitorConfig(window_size=v, min_samples=2), 40, 1),
    ("MonitorConfig.min_samples", "min_samples", lambda v: MonitorConfig(min_samples=v), 20, 0),
    ("synthesize_drift_stream.attempts", "segment attempts",
     lambda v: synthesize_drift_stream([(0.5, 10), (0.2, v)], seed=4), 12, 1),
    ("child_seed.index", "stream index", lambda v: child_seed(3, v), 5, 0),
    ("trial_generators.count", "count",
     lambda v: [rng.random() for rng in trial_generators(3, v)], 3, 0),
]

# (id, argument name, call with the delta)
DELTAS = [
    ("SimConfig", "delta", lambda d: SimConfig(d)),
    ("sample_geometric", "delta", lambda d: sample_geometric(d, 0.5)),
    ("run_sweep", "delta", lambda d: run_sweep([0.5, d], 7, 1)),
    ("PipelineSpec", "delta", lambda d: PipelineSpec(d)),
    ("cross_validate", "delta", lambda d: cross_validate(d, 1000, 1)),
    ("classify", "delta", lambda d: classify(d)),
    ("negbin_survival", "delta", lambda d: negbin_survival(9, 4, d)),
    ("negbin_cdf", "delta", lambda d: negbin_cdf(9, 4, d)),
    ("negbin_quantile", "delta", lambda d: negbin_quantile(0.9, 4, d)),
    ("prefactor_corrected_slope", "delta",
     lambda d: prefactor_corrected_slope(-0.1, [10, 20], d)),
    ("synthesize_drift_stream", "segment delta",
     lambda d: synthesize_drift_stream([(0.5, 10), (d, 10)], seed=4)),
]

# (id, argument name, call with the real) for real-valued arguments other than delta
REALS = [
    ("sample_geometric.uniform_draw", "uniform draw", lambda v: sample_geometric(0.5, v)),
    ("negbin_quantile.q", "quantile level", lambda v: negbin_quantile(v, 4, 0.5)),
    ("tail_decay_fit.floor_prob", "noise floor", lambda v: tail_decay_fit(*SERIES, v)),
    ("prefactor_corrected_slope.fitted_slope", "fitted_slope",
     lambda v: prefactor_corrected_slope(v, [10, 20], 0.5)),
    ("nearest_rank_percentile.percentile", "percentile",
     lambda v: nearest_rank_percentile(np.arange(10), v)),
    ("histogram_percentiles.percentile", "percentile",
     lambda v: histogram_percentiles(np.arange(3), np.ones(3, dtype=np.int64), [v])),
    ("MonitorConfig.trigger_threshold", "trigger_threshold",
     lambda v: MonitorConfig(trigger_threshold=v)),
    ("MonitorConfig.rearm_threshold", "rearm_threshold",
     lambda v: MonitorConfig(rearm_threshold=v)),
]

# (id, call with the seed) for every public entry point that takes a seed
SEEDS = [
    ("SimConfig.seed", lambda s: SimConfig(0.5, trials=7, seed=s)),
    ("run_sweep.base_seed",
     lambda s: [batch.totals.tolist() for batch in run_sweep([0.5, 0.2], 7, s)]),
    ("cross_validate.seed", lambda s: cross_validate(0.5, 1000, s)),
    ("synthesize_drift_stream.seed", lambda s: synthesize_drift_stream([(0.5, 10)], seed=s)),
    ("child_seed.base_seed", lambda s: child_seed(s, 3)),
    ("generator.seed", lambda s: generator(s).random(3).tolist()),
    ("trial_generators.seed", lambda s: [rng.random() for rng in trial_generators(s, 3)]),
]

NON_INTEGERS = ["5", 2.0, True, np.float64(2.0)]
NON_REALS = ["0.5", True, np.bool_(True), 0.5j, None]
NON_FINITE = [float("nan"), float("inf"), -np.inf, 10**400]


@pytest.fixture
def no_work(monkeypatch):
    """Fail any entry point that starts drawing, walking or sorting."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started on an invalid argument")

    monkeypatch.setattr(harness, "_stepwise_totals", refuse)
    monkeypatch.setattr(harness, "run_histogram", refuse)
    monkeypatch.setattr(simulate, "run_batch", refuse)
    monkeypatch.setattr(harness, "generator", refuse)
    monkeypatch.setattr(calibrate, "generator", refuse)
    monkeypatch.setattr(np, "sort", refuse)


def entry_ids(table):
    return [row[0] for row in table]


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry, name, call, valid, minimum", COUNTS, ids=entry_ids(COUNTS))
def test_a_non_integer_count_is_refused_before_any_work(
    entry, name, call, valid, minimum, value, no_work
):
    kind = type(value).__name__
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got {kind}$"):
        call(value)


@pytest.mark.parametrize("entry, name, call, valid, minimum", COUNTS, ids=entry_ids(COUNTS))
def test_a_count_below_its_minimum_is_refused_naming_the_argument(
    entry, name, call, valid, minimum, no_work
):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(minimum - 1)


@pytest.mark.parametrize("entry, name, call, valid, minimum", COUNTS, ids=entry_ids(COUNTS))
def test_numpy_integer_counts_run_like_ints(entry, name, call, valid, minimum):
    assert call(np.int64(valid)) == call(valid)


@pytest.mark.parametrize("value", NON_REALS, ids=repr)
@pytest.mark.parametrize("entry, name, call", DELTAS, ids=entry_ids(DELTAS))
def test_a_non_real_delta_is_refused_before_any_work(entry, name, call, value, no_work):
    kind = type(value).__name__
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number, got {kind}$"):
        call(value)


@pytest.mark.parametrize("value", [0.0, -0.5, 1.5, float("nan"), Fraction(1, 10**400)])
@pytest.mark.parametrize("entry, name, call", DELTAS, ids=entry_ids(DELTAS))
def test_a_delta_outside_the_unit_interval_is_refused(entry, name, call, value, no_work):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be in (0, 1], got {value}")):
        call(value)


@pytest.mark.parametrize("value", NON_REALS, ids=repr)
@pytest.mark.parametrize("entry, name, call", REALS, ids=entry_ids(REALS))
def test_a_non_real_argument_is_refused_before_any_work(entry, name, call, value, no_work):
    kind = type(value).__name__
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number, got {kind}$"):
        call(value)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("entry, name, call", REALS, ids=entry_ids(REALS))
def test_a_non_finite_argument_is_refused_before_any_work(entry, name, call, value, no_work):
    message = f"^{re.escape(name)} must be finite, got {re.escape(str(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry, call", SEEDS, ids=entry_ids(SEEDS))
def test_a_non_integer_seed_is_refused(entry, call, value):
    kind = type(value).__name__
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {kind}$"):
        call(value)


@pytest.mark.parametrize("value", [-1, 2**64], ids=repr)
@pytest.mark.parametrize("entry, call", SEEDS, ids=entry_ids(SEEDS))
def test_a_seed_outside_64_bits_is_refused(entry, call, value):
    with pytest.raises(ValueError, match=f"^seed must be an unsigned 64-bit integer, got {value}$"):
        call(value)


@pytest.mark.parametrize("entry, call", SEEDS, ids=entry_ids(SEEDS))
def test_numpy_integer_seeds_run_like_ints(entry, call):
    assert call(np.uint64(2**64 - 1)) == call(2**64 - 1)


@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("function", [negbin_survival, negbin_cdf],
                         ids=lambda function: function.__name__)
def test_a_non_integer_negbin_k_is_refused(function, value):
    kind = type(value).__name__
    with pytest.raises(ValueError, match=f"^k must be an integer, got {kind}$"):
        function(value, 4, 0.5)


@pytest.mark.parametrize("ks", [
    *(pytest.param([10, value, 30], id=repr(value)) for value in NON_INTEGERS),
    # an array whose dtype is not an integer one is checked element by element
    pytest.param(np.array([10, 20, 30], dtype=bool), id="bool array"),
    pytest.param(np.array([10.0, 20.0, 30.0]), id="float array"),
])
def test_a_non_integer_k_of_a_slope_correction_is_refused(ks, no_work):
    kind = type(ks[1]).__name__
    with pytest.raises(ValueError, match=f"^ks must be an integer, got {kind}$"):
        prefactor_corrected_slope(-0.1, ks, 0.5)


@pytest.mark.parametrize(("ks", "distinct"), [
    ([], 0), ([5], 1), ([7, 7, 7], 1),
    (np.array([], dtype=np.int64), 0), (np.array([7, 7, 7]), 1),
])
def test_a_slope_correction_needs_two_distinct_ks(ks, distinct, no_work):
    message = f"^ks must hold at least two distinct integers, got {distinct} distinct$"
    with pytest.raises(ValueError, match=message):
        prefactor_corrected_slope(-0.1, ks, 0.5)


def test_a_slope_correction_refuses_delta_1(no_work):
    """At delta = 1 the tail ends at k = stages, so it has no finite slope."""
    message = "^delta must be below 1 for a finite tail slope, got 1.0$"
    with pytest.raises(ValueError, match=message):
        prefactor_corrected_slope(-1.0, [4, 5, 6], 1)


def test_a_negative_negbin_k_keeps_its_answer():
    assert negbin_survival(-3, 4, 0.5) == 1.0
    assert negbin_cdf(-3, 4, 0.5) == 0.0


def test_monitor_thresholds_are_stored_as_floats():
    config = MonitorConfig(trigger_threshold=np.float32(0.25), rearm_threshold=1)
    assert type(config.trigger_threshold) is float and config.trigger_threshold == 0.25
    assert type(config.rearm_threshold) is float and config.rearm_threshold == 1.0


def test_delta_is_stored_as_a_float():
    assert type(asdict(SimConfig(delta=1, trials=2))["delta"]) is float
    assert type(PipelineSpec(np.float32(0.5)).delta) is float
    assert type(cross_validate(1, 1000, 1).delta) is float


@pytest.mark.parametrize("kwargs", [{"window_size": 100.0}, {"min_samples": 1.5}])
def test_monitor_config_refuses_float_counts_at_construction(kwargs):
    with pytest.raises(ValueError, match="must be an integer, got float"):
        MonitorConfig(**kwargs)


# ---------------------------------------------------------------------------
# one copy of each rule
# ---------------------------------------------------------------------------

RULE_MESSAGE = re.compile(r"must be (in \(0, 1\]|>= 1(?![\d.]))")

# Messages outside rng.py allowed to spell a rule. StageEvent checks its
# fields inline because it runs once per event; TrialBatch checks arrays.
ALLOWED = {
    ("calibrate.py", "stage must be >= 1, got "),
    ("calibrate.py", "attempt must be >= 1, got "),
    ("simulate.py", "sojourn counts must be >= 1"),
}


def rule_messages(path):
    """(file name, string) for every string literal in `path` that spells a rule."""
    tree = ast.parse(path.read_text())
    return {
        (path.name, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and RULE_MESSAGE.search(node.value)
    }


def test_only_rng_spells_the_delta_and_count_rules():
    package = Path(convlab.__file__).parent
    found = set().union(
        *(rule_messages(path) for path in sorted(package.glob("*.py")) if path.name != "rng.py")
    )
    assert found - ALLOWED == set()
    assert rule_messages(package / "rng.py")  # the validators themselves
