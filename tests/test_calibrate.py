"""Drift monitor: window estimates, hysteresis, stream parsing, synthesis."""

import numpy as np
import pytest

from convlab.calibrate import (
    TRACE_CSV_HEADER,
    ActionKind,
    CalibrationState,
    MonitorConfig,
    StageEvent,
    observe,
    parse_event_line,
    read_events_jsonl,
    replay,
    synthesize_drift_stream,
    trace_entry_csv_row,
    write_events_jsonl,
)
from convlab.errors import OutOfOrderError
from convlab.regions import RegionLabel, classify


def events_from_outcomes(outcomes, stage=1):
    return [
        StageEvent(trial_id=0, stage=stage, attempt=1, success=bool(s), timestamp=i)
        for i, s in enumerate(outcomes)
    ]


# ---------------------------------------------------------------------------
# event and config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trial_id": -1},
        {"stage": 0},
        {"attempt": 0},
        {"timestamp": -1},
    ],
)
def test_stage_event_validation(kwargs):
    base = {"trial_id": 0, "stage": 1, "attempt": 1, "success": True, "timestamp": 0}
    base.update(kwargs)
    with pytest.raises(ValueError):
        StageEvent(**base)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_size": 0},
        {"min_samples": 0},
        {"min_samples": 101},
        {"trigger_threshold": 0.4, "rearm_threshold": 0.4},  # need a strict gap
        {"trigger_threshold": 0.0},
        {"rearm_threshold": 1.5},
        {"action_policy": ()},
        {"action_policy": (ActionKind.NO_ACTION,)},
    ],
)
def test_monitor_config_validation(kwargs):
    with pytest.raises(ValueError):
        MonitorConfig(**kwargs)


# ---------------------------------------------------------------------------
# window estimation
# ---------------------------------------------------------------------------


def test_delta_hat_undefined_below_min_samples():
    config = MonitorConfig(window_size=10, min_samples=5)
    state = CalibrationState(config=config)
    for event in events_from_outcomes([True, False, True, True]):
        action = observe(state, event)
        assert action.kind is ActionKind.NO_ACTION
        assert state.delta_hat is None
        assert state.region is None


def test_delta_hat_matches_brute_force_recount():
    config = MonitorConfig(window_size=25, min_samples=5)
    state = CalibrationState(config=config)
    rng = np.random.default_rng(314)
    outcomes = list(rng.random(400) < 0.4)
    for index, event in enumerate(events_from_outcomes(outcomes)):
        observe(state, event)
        seen = index + 1
        if seen < 5:
            continue
        recount = outcomes[max(0, seen - 25):seen]
        assert state.delta_hat == pytest.approx(sum(recount) / len(recount))


def test_window_never_exceeds_capacity():
    config = MonitorConfig(window_size=8, min_samples=1)
    state = CalibrationState(config=config)
    for event in events_from_outcomes([True] * 50):
        observe(state, event)
        assert len(state.window) <= 8


def test_region_tracks_classification():
    config = MonitorConfig(window_size=10, min_samples=4)
    state = CalibrationState(config=config)
    for event in events_from_outcomes([True, True, False, False]):
        observe(state, event)
    assert state.delta_hat == 0.5
    assert state.region is classify(0.5)


def test_zero_estimate_reports_marginal():
    # delta_hat = 0 falls outside classify's domain but is still Marginal
    config = MonitorConfig(window_size=10, min_samples=3)
    state = CalibrationState(config=config)
    for event in events_from_outcomes([False, False, False]):
        observe(state, event)
    assert state.delta_hat == 0.0
    assert state.region is RegionLabel.MARGINAL


# ---------------------------------------------------------------------------
# triggering, hysteresis, action policy
# ---------------------------------------------------------------------------


def test_policy_cycle_and_cursor_clamp():
    """Four trigger episodes walk the policy list and then stay on its last
    entry: Alert, ContextReset, TemperatureAdjust, TemperatureAdjust."""
    config = MonitorConfig(
        window_size=4, min_samples=2, trigger_threshold=0.3, rearm_threshold=0.35
    )
    outcomes = ([True] * 4 + [False] * 4) * 4
    trace = replay(events_from_outcomes(outcomes), config)
    fired = [(t.timestamp, t.action) for t in trace if t.action is not ActionKind.NO_ACTION]
    assert fired == [
        (6, ActionKind.ALERT),
        (14, ActionKind.CONTEXT_RESET),
        (22, ActionKind.TEMPERATURE_ADJUST),
        (30, ActionKind.TEMPERATURE_ADJUST),
    ]


def test_no_actions_between_trigger_and_rearm():
    config = MonitorConfig(window_size=10, min_samples=3)
    outcomes = [True] * 10 + [False] * 40  # estimate decays to 0 and stays there
    trace = replay(events_from_outcomes(outcomes), config)
    fired = [t for t in trace if t.action is not ActionKind.NO_ACTION]
    assert len(fired) == 1  # disarmed after the first trigger, never rearmed


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_hysteresis_property_on_random_streams(seed):
    """Between any two consecutive actions the estimate must have visited
    the rearm band; scanned on noisy streams hovering near the boundary."""
    config = MonitorConfig(window_size=20, min_samples=5)
    rng = np.random.default_rng(seed)
    outcomes = list(rng.random(600) < 0.32)
    trace = replay(events_from_outcomes(outcomes), config)
    fire_indices = [
        i for i, t in enumerate(trace) if t.action is not ActionKind.NO_ACTION
    ]
    for first, second in zip(fire_indices, fire_indices[1:]):
        between = [t.delta_hat for t in trace[first + 1 : second]]
        assert any(v is not None and v >= 0.35 for v in between)


def test_replay_is_deterministic_and_total():
    events = synthesize_drift_stream([(0.5, 200)], seed=5)
    config = MonitorConfig()
    first = replay(events, config)
    second = replay(events, config)
    assert first == second
    assert len(first) == len(events)


def test_stage_filter_restricts_window():
    config = MonitorConfig(window_size=10, min_samples=2, stage_filter=2)
    events = [
        StageEvent(0, 1, 1, False, 0),
        StageEvent(0, 2, 1, True, 1),
        StageEvent(0, 2, 2, True, 2),
        StageEvent(0, 3, 1, False, 3),
    ]
    trace = replay(events, config)
    # only the two stage-2 successes enter the window
    assert [t.delta_hat for t in trace] == [None, None, 1.0, 1.0]


def test_out_of_order_timestamps_rejected():
    config = MonitorConfig(window_size=10, min_samples=2)
    state = CalibrationState(config=config)
    observe(state, StageEvent(0, 1, 1, True, 5))
    observe(state, StageEvent(0, 1, 2, True, 5))  # equal timestamps are fine
    with pytest.raises(OutOfOrderError):
        observe(state, StageEvent(0, 1, 3, True, 3))


# ---------------------------------------------------------------------------
# drift stream synthesis
# ---------------------------------------------------------------------------


def test_synthetic_stream_is_deterministic():
    first = synthesize_drift_stream([(0.7, 100), (0.2, 100)], seed=9001)
    second = synthesize_drift_stream([(0.7, 100), (0.2, 100)], seed=9001)
    assert first == second
    assert [e.timestamp for e in first] == list(range(200))


def test_synthetic_stream_event_structure():
    events = synthesize_drift_stream([(0.6, 300)], seed=12)
    for previous, current in zip(events, events[1:]):
        if previous.success:
            advanced = (current.trial_id, current.stage) != (
                previous.trial_id,
                previous.stage,
            )
            assert advanced
            assert current.attempt == 1
        else:
            assert (current.trial_id, current.stage) == (
                previous.trial_id,
                previous.stage,
            )
            assert current.attempt == previous.attempt + 1
        if previous.stage == 4 and previous.success:
            assert current.trial_id == previous.trial_id + 1
            assert current.stage == 1


def test_synthetic_stream_validation():
    with pytest.raises(ValueError):
        synthesize_drift_stream([], seed=0)
    with pytest.raises(ValueError):
        synthesize_drift_stream([(0.0, 10)], seed=0)
    with pytest.raises(ValueError):
        synthesize_drift_stream([(0.5, 0)], seed=0)


def test_drift_stream_triggers_once_near_change_point():
    events = synthesize_drift_stream([(0.7, 500), (0.2, 500)], seed=9001)
    trace = replay(events, MonitorConfig())
    fired = [t for t in trace if t.action is not ActionKind.NO_ACTION]
    assert [(t.timestamp, t.action) for t in fired] == [(573, ActionKind.ALERT)]


# ---------------------------------------------------------------------------
# stream serialization
# ---------------------------------------------------------------------------


def test_event_jsonl_roundtrip(tmp_path):
    events = synthesize_drift_stream([(0.5, 50)], seed=2)
    path = tmp_path / "events.jsonl"
    write_events_jsonl(events, path)
    parsed = read_events_jsonl(path.read_text().splitlines())
    assert parsed == events


def test_read_events_skips_blank_lines():
    line = '{"trial": 0, "stage": 1, "attempt": 1, "success": true, "ts": 0}'
    events = read_events_jsonl([line, "", "   ", line.replace('"ts": 0', '"ts": 1')])
    assert len(events) == 2


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "[1, 2, 3]",  # a JSON value but not an object
        '{"trial": 0, "stage": 1, "attempt": 1, "success": true}',  # missing ts
        '{"trial": 0, "stage": 1, "attempt": 1, "success": 1, "ts": 0}',
        '{"trial": true, "stage": 1, "attempt": 1, "success": true, "ts": 0}',
        '{"trial": 0, "stage": 1.5, "attempt": 1, "success": true, "ts": 0}',
        '{"trial": 0, "stage": 0, "attempt": 1, "success": true, "ts": 0}',
    ],
)
def test_parse_event_line_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_event_line(line)


def test_read_events_reports_line_number():
    good = '{"trial": 0, "stage": 1, "attempt": 1, "success": true, "ts": 0}'
    with pytest.raises(ValueError, match="line 3"):
        read_events_jsonl([good, good, "garbage"])


def test_trace_csv_rows():
    config = MonitorConfig(window_size=4, min_samples=2)
    trace = replay(events_from_outcomes([True, False, False, False, False]), config)
    assert TRACE_CSV_HEADER == "ts,delta_hat,region,action"
    rows = [trace_entry_csv_row(t) for t in trace]
    assert rows[0] == "0,,,NoAction"  # below min_samples: empty estimate fields
    assert rows[1] == "1,0.500000,Practical,NoAction"
    assert rows[4] == "4,0.000000,Marginal,NoAction"


def test_trace_csv_row_with_action():
    config = MonitorConfig(window_size=4, min_samples=4)
    trace = replay(events_from_outcomes([False, False, False, False]), config)
    assert trace_entry_csv_row(trace[-1]) == "3,0.000000,Marginal,Alert"
