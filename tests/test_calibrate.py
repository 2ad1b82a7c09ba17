"""Drift monitor: window estimates, hysteresis, stream parsing, synthesis."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab import calibrate
from convlab.calibrate import (
    TRACE_CSV_HEADER,
    ActionKind,
    CalibrationState,
    EventColumns,
    MonitorConfig,
    StageEvent,
    event_to_json,
    monitor_columns,
    observe,
    parse_event_columns,
    parse_event_line,
    read_events_jsonl,
    replay,
    synthesize_drift_stream,
    _region,
    trace_entry_csv_row,
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
        assert _region(state.delta_hat) is None


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
    assert _region(state.delta_hat) is classify(0.5)


def test_zero_estimate_reports_marginal():
    # delta_hat = 0 falls outside classify's domain but is still Marginal
    config = MonitorConfig(window_size=10, min_samples=3)
    state = CalibrationState(config=config)
    for event in events_from_outcomes([False, False, False]):
        observe(state, event)
    assert state.delta_hat == 0.0
    assert _region(state.delta_hat) is RegionLabel.MARGINAL


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
    fired = [(t.timestamp, t.kind) for t in trace if t.kind is not ActionKind.NO_ACTION]
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
    fired = [t for t in trace if t.kind is not ActionKind.NO_ACTION]
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
        i for i, t in enumerate(trace) if t.kind is not ActionKind.NO_ACTION
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
    fired = [t for t in trace if t.kind is not ActionKind.NO_ACTION]
    assert [(t.timestamp, t.kind) for t in fired] == [(573, ActionKind.ALERT)]


# ---------------------------------------------------------------------------
# stream serialization
# ---------------------------------------------------------------------------


def test_event_jsonl_roundtrip(tmp_path):
    events = synthesize_drift_stream([(0.5, 50)], seed=2)
    path = tmp_path / "events.jsonl"
    path.write_text("".join(event_to_json(event) + "\n" for event in events))
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


# ---------------------------------------------------------------------------
# columnar monitor against the streaming reference
# ---------------------------------------------------------------------------


def reference_trace(events, config):
    """The event-by-event trace: one observe() call per event."""
    state = CalibrationState(config=config)
    return [observe(state, event) for event in events]


@st.composite
def monitor_cases(draw):
    window = draw(st.integers(1, 12))
    min_samples = draw(st.integers(1, window))
    # thresholds on a grid of window fractions, so estimates land on them
    trigger = draw(st.integers(1, 2 * window - 1))
    rearm = draw(st.integers(trigger + 1, 2 * window))
    config = MonitorConfig(window, min_samples, trigger / (2 * window), rearm / (2 * window))
    length = draw(st.integers(0, 80))
    rate = draw(st.sampled_from([0.0, 0.2, 0.4, 0.6, 1.0]))
    flips = draw(st.lists(st.floats(0, 1), min_size=length, max_size=length))
    stages = draw(st.lists(st.integers(1, 3), min_size=length, max_size=length))
    steps = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))  # ties
    events = []
    stamp = 0
    for index, (flip, stage, step) in enumerate(zip(flips, stages, steps)):
        stamp += step
        # long runs of one outcome cross the thresholds often
        success = flip < rate if index % 20 < 10 else flip >= rate
        events.append(StageEvent(index, stage, 1, success, stamp))
    return events, config


@settings(max_examples=300, deadline=None)
@given(monitor_cases())
def test_columnar_trace_equals_event_by_event_trace(case):
    events, config = case
    expected = reference_trace(events, config)
    trace = monitor_columns(EventColumns.from_events(events), config)
    assert trace.entries() == expected
    assert replay(events, config) == expected
    rows = [TRACE_CSV_HEADER] + [trace_entry_csv_row(action) for action in expected]
    assert trace.csv() == "\n".join(rows) + "\n"


def test_columnar_monitor_rejects_the_first_decrease_like_observe():
    events = [StageEvent(0, 1, 1, True, ts) for ts in (4, 4, 7, 5, 2)]
    with pytest.raises(OutOfOrderError) as expected:
        reference_trace(events, MonitorConfig())
    with pytest.raises(OutOfOrderError) as got:
        replay(events, MonitorConfig())
    assert str(got.value) == str(expected.value) == "timestamp 5 arrived after 7"


# ---------------------------------------------------------------------------
# whole-stream parser against the per-line parser
# ---------------------------------------------------------------------------

CANONICAL = '{{"trial": {}, "stage": {}, "attempt": {}, "success": {}, "ts": {}}}'
BIG = st.integers(0, 10**18 - 1)  # every canonical integer has at most 18 digits


def canonical_line(draw):
    """A line in event_to_json's exact format; stage or attempt may be 0."""
    values = [draw(BIG), draw(st.integers(0, 5)), draw(st.integers(0, 5))]
    return CANONICAL.format(*values, draw(st.sampled_from(["true", "false"])), draw(BIG))


def valid_line(draw):
    """A valid line that is not canonical: key order, spacing, extra keys, -0, big ints."""
    payload = {
        "trial": draw(st.integers(0, 3)),
        "stage": draw(st.integers(1, 3)),
        "attempt": draw(st.integers(1, 3)),
        "success": draw(st.booleans()),
        "ts": draw(st.sampled_from([0, 1, 2**63, 10**18, 10**19])),
    }
    style = draw(st.sampled_from(["reorder", "compact", "extra", "minus-zero", "spaces"]))
    if style == "reorder":
        return json.dumps(dict(reversed(list(payload.items()))))
    if style == "compact":
        return json.dumps(payload, separators=(",", ":"))
    if style == "extra":
        return json.dumps({**payload, "note": "x"})
    if style == "minus-zero":
        return json.dumps({**payload, "ts": 0}).replace('"ts": 0', '"ts": -0')
    return "  " + json.dumps(payload) + "\t"


MALFORMED = [
    "garbage",
    "{",
    '{"trial": 0, "stage": 1, "attempt": 1, "success": true}',
    '{"trial": 0, "stage": 1.0, "attempt": 1, "success": true, "ts": 0}',
    '{"trial": 0, "stage": 1, "attempt": 1, "success": 1, "ts": 0}',
    '{"trial": 0, "stage": 1, "attempt": 1, "success": true, "ts": -3}',
    '{"trial": 01, "stage": 1, "attempt": 1, "success": true, "ts": 0}',
]
BLANK = [
    "", " ", "\t", "  \t ", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"
]


@st.composite
def event_streams(draw):
    canonical_only = draw(st.booleans())
    kinds = ["canonical", "blank"] if canonical_only else ["canonical", "blank", "valid", "bad"]
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "canonical":
            # a CR or a space after the object makes the line valid but not canonical
            lines.append(canonical_line(draw) + draw(st.sampled_from(["", "\r", " "])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(BLANK)))
        elif kind == "valid":
            lines.append(valid_line(draw))
        else:
            lines.append(draw(st.sampled_from(MALFORMED)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def column_lists(columns):
    return [column.tolist() for column in (
        columns.trial, columns.stage, columns.attempt, columns.success, columns.ts
    )]


@settings(max_examples=400, deadline=None)
@given(event_streams())
def test_stream_parser_agrees_with_the_per_line_parser(text):
    try:
        expected = column_lists(EventColumns.from_events(read_events_jsonl(text.split("\n"))))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_event_columns(text)
        assert str(got.value) == str(exc)
        return
    assert column_lists(parse_event_columns(text)) == expected


def test_canonical_stream_takes_the_fast_path(monkeypatch):
    events = synthesize_drift_stream([(0.5, 40)], seed=3)
    text = "".join(event_to_json(event) + "\n" for event in events) + "\n  \n"

    def per_line(lines):
        raise AssertionError("the per-line parser ran")

    monkeypatch.setattr(calibrate, "read_events_jsonl", per_line)
    columns = parse_event_columns(text)
    assert columns.ts.dtype == np.int64
    assert column_lists(columns) == column_lists(EventColumns.from_events(events))


# every ASCII character that str.strip removes, other than LF
ASCII_BLANK = st.text(alphabet=" \t\r\x0b\x0c\x1c\x1d\x1e\x1f", max_size=4)


@st.composite
def fast_streams(draw):
    """Canonical lines with stage and attempt at least 1, and ASCII blank lines."""
    lines = []
    for blank in draw(st.lists(st.booleans(), max_size=12)):
        if blank:
            lines.append(draw(ASCII_BLANK))
        else:
            values = [draw(BIG), draw(st.integers(1, 5)), draw(st.integers(1, 5))]
            lines.append(
                CANONICAL.format(*values, draw(st.sampled_from(["true", "false"])), draw(BIG))
            )
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(fast_streams())
def test_canonical_streams_with_ascii_blank_lines_take_the_fast_path(text):
    expected = column_lists(EventColumns.from_events(read_events_jsonl(text.split("\n"))))

    def per_line(lines):
        raise AssertionError("the per-line parser ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibrate, "read_events_jsonl", per_line)
        columns = parse_event_columns(text)
    assert column_lists(columns) == expected


def test_stream_parser_reports_canonical_range_violations_per_line():
    good = CANONICAL.format(0, 1, 1, "true", 0)
    for bad, message in [
        (CANONICAL.format(0, 0, 1, "true", 1), "line 3: stage must be >= 1, got 0"),
        (CANONICAL.format(0, 1, 0, "true", 1), "line 3: attempt must be >= 1, got 0"),
    ]:
        with pytest.raises(ValueError) as got:
            parse_event_columns("\n".join([good, "", bad, good]))
        assert str(got.value) == message


def test_stream_parser_keeps_timestamps_beyond_int64():
    text = CANONICAL.format(0, 1, 1, "true", 2**63) + "\n"
    columns = parse_event_columns(text)
    assert columns.ts.tolist() == [2**63]
    assert parse_event_columns(CANONICAL.format(0, 1, 1, "true", 10**18 - 1)).ts.tolist() == [
        10**18 - 1
    ]


@settings(max_examples=300)
@given(
    st.integers(0, 2**80), st.integers(0, 2**80), st.integers(0, 2**80),
    st.booleans(), st.integers(0, 2**80),
)
def test_event_to_json_matches_json_dumps(trial, stage, attempt, success, stamp):
    event = StageEvent(trial, stage + 1, attempt + 1, success, stamp)
    assert event_to_json(event) == json.dumps({
        "trial": trial, "stage": stage + 1, "attempt": attempt + 1,
        "success": success, "ts": stamp,
    })
