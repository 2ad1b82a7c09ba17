"""Stepwise state machine and its agreement with the vectorized engine."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import geometric_chi_square
from convlab import harness
from convlab.calibrate import MonitorConfig, replay
from convlab.errors import TerminalStateError
from convlab.harness import (
    BernoulliOracle,
    ConstantOracle,
    CrossValidationReport,
    PipelineState,
    cross_validate,
    run_to_absorption,
    step,
    trace_events,
    write_traces_jsonl,
)
from convlab.rng import SEED_MODULUS, child_seed, generator

# chi-square critical value at 0.999 for 15 degrees of freedom
CHI_CRIT_999_DOF15 = 37.69729822451265


# ---------------------------------------------------------------------------
# single steps and whole traces
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


def test_state_labels():
    assert [s.label for s in PipelineState] == [
        "CodeGen",
        "Compilation",
        "InvariantSynth",
        "SMTSolving",
        "Verified",
    ]


def test_always_succeeding_oracle_gives_minimal_trace():
    record = run_to_absorption(ConstantOracle(True), seed=0)
    assert record.converged
    assert record.total_iterations == 4
    assert record.per_stage_attempts == (1, 1, 1, 1)
    assert record.states == (
        PipelineState.CODE_GEN,
        PipelineState.COMPILATION,
        PipelineState.INVARIANT_SYNTH,
        PipelineState.SMT_SOLVING,
        PipelineState.VERIFIED,
    )


def test_never_succeeding_oracle_hits_step_limit():
    record = run_to_absorption(ConstantOracle(False), max_steps=50, seed=0)
    assert not record.converged
    assert record.total_iterations == 50
    assert record.states[-1] is PipelineState.CODE_GEN


@pytest.mark.parametrize("seed", range(8))
def test_traces_are_legal_paths(seed):
    record = run_to_absorption(BernoulliOracle(0.4), seed=seed)
    assert record.converged
    for current, following in zip(record.states, record.states[1:]):
        assert following.value in (current.value, current.value + 1)
    assert sum(record.per_stage_attempts) == record.total_iterations
    assert all(count >= 1 for count in record.per_stage_attempts)


def test_runs_are_reproducible():
    first = run_to_absorption(BernoulliOracle(0.5), seed=123)
    second = run_to_absorption(BernoulliOracle(0.5), seed=123)
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
        run_to_absorption(BernoulliOracle(delta), seed=2_000_000 + i).per_stage_attempts
        for i in range(trials)
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
    monkeypatch.setattr(harness, "run_batch", no_work)
    with pytest.raises(ValueError, match=message):
        cross_validate(0.5, **{"trials": 1000, "seed": 1, **kwargs})


@pytest.mark.parametrize("max_steps", [2.5, 3.0, True])
def test_run_to_absorption_max_steps_must_be_an_integer(max_steps):
    with pytest.raises(ValueError, match="max_steps must be an integer"):
        run_to_absorption(BernoulliOracle(0.5), max_steps=max_steps)


def test_numpy_integer_counts_run_like_ints():
    oracle = BernoulliOracle(0.5)
    assert run_to_absorption(oracle, max_steps=np.int64(7), seed=3) == run_to_absorption(
        oracle, max_steps=7, seed=3
    )
    assert cross_validate(0.5, np.int64(1000), 1, max_steps=np.int32(1000)) == (
        cross_validate(0.5, 1000, 1)
    )


@pytest.mark.parametrize("max_steps", [0, -1])
def test_cross_validate_rejects_max_steps_below_one_before_any_work(max_steps, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("cross_validate started work on an invalid max_steps")

    monkeypatch.setattr(harness, "_stepwise_totals", no_work)
    monkeypatch.setattr(harness, "run_batch", no_work)
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
    traces = [
        run_to_absorption(BernoulliOracle(delta), max_steps, seed=child_seed(seed, index))
        for index in range(trials)
    ]
    assert totals.tolist() == [trace.total_iterations for trace in traces]
    assert all_converged == all(trace.converged for trace in traces)


# cross_validate(delta, 10_000, child_seed(42, i)) for the i-th of 0.1/0.5/0.9,
# as computed by the one-stream-per-trial loop before trial_generators existed.
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
        0.9, 10000, 4.4414, 0.492615301530153, 4.4394, 0.49517715771577164,
        0.0019999999999997797, 0.009938774870404926, 0.20123204580830753,
        0.9948263845662099, True,
    ),
]


@pytest.mark.parametrize("index", range(len(PINNED_REPORTS)))
def test_cross_validate_reports_are_pinned(index):
    pinned = PINNED_REPORTS[index]
    assert cross_validate(pinned.delta, 10_000, child_seed(42, index)) == pinned


# ---------------------------------------------------------------------------
# trace conversion and export
# ---------------------------------------------------------------------------


def test_trace_converts_to_event_stream():
    record = run_to_absorption(BernoulliOracle(0.5), seed=11)
    events = trace_events(record, trial_id=7, start_timestamp=100)
    assert len(events) == record.total_iterations
    assert [e.timestamp for e in events] == list(
        range(100, 100 + record.total_iterations)
    )
    assert all(e.trial_id == 7 for e in events)
    # attempts restart at 1 whenever a stage is cleared
    for previous, current in zip(events, events[1:]):
        if previous.success:
            assert current.stage == previous.stage + 1
            assert current.attempt == 1
        else:
            assert current.stage == previous.stage
            assert current.attempt == previous.attempt + 1
    assert events[-1].success  # a converged trace ends by clearing stage four
    per_stage = {stage: 0 for stage in (1, 2, 3, 4)}
    for event in events:
        per_stage[event.stage] += 1
    assert tuple(per_stage.values()) == record.per_stage_attempts


def test_trace_events_feed_the_monitor():
    records = [run_to_absorption(BernoulliOracle(0.6), seed=s) for s in range(40)]
    stream = []
    cursor = 0
    for trial, record in enumerate(records):
        events = trace_events(record, trial_id=trial, start_timestamp=cursor)
        stream.extend(events)
        cursor += len(events)
    trace = replay(stream, MonitorConfig(window_size=50, min_samples=20))
    estimates = [t.delta_hat for t in trace if t.delta_hat is not None]
    assert estimates, "monitor never warmed up"
    assert 0.4 <= estimates[-1] <= 0.8  # consistent with the true rate 0.6


def test_write_traces_jsonl(tmp_path):
    records = [run_to_absorption(BernoulliOracle(0.5), seed=s) for s in (1, 2)]
    path = tmp_path / "traces.jsonl"
    write_traces_jsonl(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    payload = json.loads(lines[0])
    assert payload["states"][0] == "CodeGen"
    assert payload["states"][-1] == "Verified"
    assert payload["total_iterations"] == records[0].total_iterations
    assert payload["converged"] is True
    assert len(payload["per_stage_attempts"]) == 4
