"""Stepwise state machine and its agreement with the vectorized engine."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ConstantOracle, geometric_chi_square
import convlab
from convlab import harness
from convlab.errors import TerminalStateError
from convlab.harness import (
    BernoulliOracle,
    CrossValidationReport,
    PipelineState,
    _walk,
    cross_validate,
    step,
)
from convlab.rng import SEED_MODULUS, child_seed, generator
from convlab.simulate import SimConfig, run_histogram

# chi-square critical value at 0.999 for 15 degrees of freedom
CHI_CRIT_999_DOF15 = 37.69729822451265


# ---------------------------------------------------------------------------
# single steps and whole walks
# ---------------------------------------------------------------------------


def test_step_advances_on_success():
    rng = generator(0)
    assert step(PipelineState.CODE_GEN, ConstantOracle(True), rng) is (
        PipelineState.COMPILATION
    )
    assert step(PipelineState.SMT_SOLVING, ConstantOracle(True), rng) is (
        PipelineState.VERIFIED
    )


def test_step_stays_on_failure():
    rng = generator(0)
    assert step(PipelineState.CODE_GEN, ConstantOracle(False), rng) is (
        PipelineState.CODE_GEN
    )


def test_step_rejects_terminal_state():
    with pytest.raises(TerminalStateError):
        step(PipelineState.VERIFIED, ConstantOracle(True), generator(0))


def test_always_succeeding_oracle_gives_minimal_walk():
    attempts, last = _walk(ConstantOracle(True), generator(0), 1000)
    assert attempts == [1, 1, 1, 1]
    assert last is PipelineState.VERIFIED


def test_never_succeeding_oracle_hits_step_limit():
    attempts, last = _walk(ConstantOracle(False), generator(0), 50)
    assert attempts == [50, 0, 0, 0]
    assert last is PipelineState.CODE_GEN


@pytest.mark.parametrize("seed", range(8))
def test_converged_walks_attempt_every_stage(seed):
    attempts, last = _walk(BernoulliOracle(0.4), generator(seed), 1000)
    assert last is PipelineState.VERIFIED
    assert all(count >= 1 for count in attempts)


def test_runs_are_reproducible():
    first = _walk(BernoulliOracle(0.5), generator(123), 1000)
    second = _walk(BernoulliOracle(0.5), generator(123), 1000)
    assert first == second


def test_bernoulli_oracle_validation():
    with pytest.raises(ValueError):
        BernoulliOracle(0.0)
    with pytest.raises(ValueError):
        BernoulliOracle(1.5)


def test_stage_attempts_are_geometric():
    """Marginal distribution check shared with the vectorized engine's
    goodness-of-fit machinery; one pinned seed batch per stage column."""
    trials = 4000
    delta = 0.3
    attempts = [
        _walk(BernoulliOracle(delta), generator(2_000_000 + i), 1000)[0] for i in range(trials)
    ]
    for stage_index in (0, 3):
        column = [row[stage_index] for row in attempts]
        assert geometric_chi_square(column, delta, bins=15) < CHI_CRIT_999_DOF15


# ---------------------------------------------------------------------------
# cross validation against the vectorized engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [0.3, 0.7])
def test_cross_validate_consistency(delta):
    report = cross_validate(delta, trials=2000, seed=1)
    assert report.all_converged
    assert abs(report.mean_difference) < 3.0 * report.combined_se
    assert 0.9 <= report.variance_ratio <= 1.1
    assert report.stepwise_mean == pytest.approx(4.0 / delta, rel=0.1)


def test_cross_validate_degenerate_delta():
    report = cross_validate(1.0, trials=1000, seed=5)
    assert report.mean_difference == 0.0
    assert report.variance_ratio == 1.0  # both samples are constant
    assert report.z_score == 0.0
    assert report.all_converged


def test_cross_validate_requires_enough_trials():
    with pytest.raises(ValueError):
        cross_validate(0.5, trials=999, seed=0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 1000.0}, "trials must be an integer, got float"),
        ({"trials": np.float64(2000.0)}, "trials must be an integer, got float64"),
        ({"max_steps": 2.5}, "max_steps must be an integer, got float"),
        ({"max_steps": True}, "max_steps must be an integer, got bool"),
    ],
)
def test_cross_validate_counts_are_checked_before_any_work(kwargs, message, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("cross_validate started work on an invalid count")

    monkeypatch.setattr(harness, "_stepwise_totals", no_work)
    monkeypatch.setattr(harness, "run_histogram", no_work)
    with pytest.raises(ValueError, match=message):
        cross_validate(0.5, **{"trials": 1000, "seed": 1, **kwargs})


def test_numpy_integer_counts_run_like_ints():
    assert cross_validate(0.5, np.int64(1000), 1, max_steps=np.int32(1000)) == (
        cross_validate(0.5, 1000, 1)
    )


@pytest.mark.parametrize("max_steps", [0, -1])
def test_cross_validate_rejects_max_steps_below_one_before_any_work(max_steps, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("cross_validate started work on an invalid max_steps")

    monkeypatch.setattr(harness, "_stepwise_totals", no_work)
    monkeypatch.setattr(harness, "run_histogram", no_work)
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        cross_validate(0.5, trials=1000, seed=1, max_steps=max_steps)


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    trials=st.integers(1, 50),
    seed=st.integers(0, SEED_MODULUS - 1),
    max_steps=st.integers(1, 120),
)
def test_every_stepwise_total_replays_alone(delta, trials, seed, max_steps):
    totals, all_converged = harness._stepwise_totals(delta, trials, seed, max_steps)
    walks = [
        _walk(BernoulliOracle(delta), generator(child_seed(seed, index)), max_steps)
        for index in range(trials)
    ]
    assert totals.tolist() == [sum(attempts) for attempts, _ in walks]
    assert all_converged == all(last is PipelineState.VERIFIED for _, last in walks)


# cross_validate(delta, 10_000, child_seed(42, i)) for the i-th of 0.1/0.5/0.9,
# as computed by the one-stream-per-trial loop before trial_generators existed.
# The vectorized moments are the correctly rounded exact ones, 1 ulp off
# numpy's float64 variance at 0.9.
PINNED_REPORTS = [
    CrossValidationReport(
        0.1, 10000, 39.7459, 355.3202652165216, 40.0177, 348.90167687768775,
        -0.27179999999999893, 0.2653718037196509, -1.0242233582854154,
        1.0183965534252333, True,
    ),
    CrossValidationReport(
        0.5, 10000, 7.9829, 7.922799869986998, 8.0188, 7.9648430443044305,
        -0.03590000000000071, 0.03985930620857747, -0.9006679597517745,
        0.994721405797507, True,
    ),
    CrossValidationReport(
        0.9, 10000, 4.4414, 0.492615301530153, 4.4394, 0.4951771577157716,
        0.0019999999999997797, 0.009938774870404926, 0.20123204580830753,
        0.99482638456621, True,
    ),
]


@pytest.mark.parametrize("index", range(len(PINNED_REPORTS)))
def test_cross_validate_reports_are_pinned(index):
    pinned = PINNED_REPORTS[index]
    assert cross_validate(pinned.delta, 10_000, child_seed(42, index)) == pinned


@pytest.mark.parametrize("index", range(len(PINNED_REPORTS)))
def test_vectorized_moments_are_the_engines_exact_moments(index):
    """The vectorized side is run_histogram, the engine behind the CLI, on
    child seed 1; its mean and variance are the exact rationals, rounded once."""
    delta, seed = PINNED_REPORTS[index].delta, child_seed(42, index)
    report = cross_validate(delta, 10_000, seed)
    histogram = run_histogram(SimConfig(delta=delta, trials=10_000, seed=child_seed(seed, 1)))
    values, counts = histogram.values.tolist(), histogram.counts.tolist()
    n = sum(counts)
    s1 = sum(v * c for v, c in zip(values, counts))
    s2 = sum(v * v * c for v, c in zip(values, counts))
    assert report.vectorized_mean == float(Fraction(s1, n))
    assert report.vectorized_variance == float(Fraction(n * s2 - s1 * s1, n * (n - 1)))


# ---------------------------------------------------------------------------
# reference: the per-step loop that the walker replaced
# ---------------------------------------------------------------------------


def reference_walk(oracle, max_steps, seed):
    """_walk as a loop that counts each attempt by stage until VERIFIED or max_steps."""
    rng = generator(seed)
    state = PipelineState.CODE_GEN
    attempts = [0] * 4
    steps = 0
    while state is not PipelineState.VERIFIED and steps < max_steps:
        attempts[int(state) - 1] += 1
        state = step(state, oracle, rng)
        steps += 1
    return attempts, state


ORACLES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(BernoulliOracle),
    st.sampled_from([BernoulliOracle(1.0), ConstantOracle(True), ConstantOracle(False)]),
)


@settings(max_examples=300, deadline=None)
@given(
    oracle=ORACLES,
    seed=st.integers(0, SEED_MODULUS - 1),
    max_steps=st.integers(1, 120),
)
# cut off right after a success, and in the middle of a stage
@example(oracle=ConstantOracle(True), seed=0, max_steps=2)
@example(oracle=BernoulliOracle(0.05), seed=3, max_steps=30)
def test_walks_match_the_per_step_reference(oracle, seed, max_steps):
    walked = _walk(oracle, generator(seed), max_steps)
    # repr also tells an int state from a PipelineState
    assert repr(walked) == repr(reference_walk(oracle, max_steps, seed))


class StepCalls(ast.NodeVisitor):
    """(file name, enclosing function) of every call to a function named `step`."""

    def __init__(self, name):
        self.name, self.scope, self.found = name, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")) == "step":
            self.found.append((self.name, self.scope[-1]))
        self.generic_visit(node)


def test_only_the_walker_calls_step():
    calls = []
    for path in sorted(Path(convlab.__file__).parent.glob("*.py")):
        visitor = StepCalls(path.name)
        visitor.visit(ast.parse(path.read_text()))
        calls += visitor.found
    assert calls == [("harness.py", "_walk")]
