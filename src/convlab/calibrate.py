"""Sliding-window drift calibration over stage-attempt event streams.

The monitor keeps the last `window_size` attempt outcomes, estimates the
live success probability as successes/window, and emits an action the first
time the estimate drops below the trigger threshold. Hysteresis: after a
trigger it stays disarmed until the estimate recovers to at least the re-arm
threshold, so a stream hovering near the trigger line cannot fire
repeatedly. Every event enters the window. Actions escalate in the fixed
order of ACTION_POLICY: Alert, then ContextReset, then TemperatureAdjust for
every later trigger.

State is a single-writer machine: one owner feeds observe() events with
non-decreasing timestamps. Streams serialize as JSON lines
{"trial": .., "stage": .., "attempt": .., "success": .., "ts": ..}.
synthesize_drift_stream() draws a synthetic stream's outcomes one array per
segment and derives every event's coordinates from them as numpy columns;
StageEvent's hand-written __init__ keeps building one object per event cheap.

observe() is the streaming monitor and the reference for the columnar one:
parse_event_columns() reads a whole stream into numpy columns, and
monitor_columns() computes every window estimate from one cumulative sum and
the hysteresis from a walk over threshold crossings, one step per action.
replay() and `convlab monitor` run the columnar monitor; replay() returns
the CalibrationAction that observe() would return for each event, and the
trace CSV adds the region of its estimate.
"""

from __future__ import annotations

import enum
import json
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from typing import Iterable, Sequence

import numpy as np

from ._io import csv_text
from .errors import OutOfOrderError
from .regions import RegionLabel, classify
from .rng import _validate_count, _validate_delta, _validate_real, generator

__all__ = [
    "ActionKind",
    "StageEvent",
    "CalibrationAction",
    "MonitorConfig",
    "CalibrationState",
    "EventColumns",
    "MonitorTrace",
    "observe",
    "monitor_columns",
    "replay",
    "synthesize_drift_stream",
    "event_to_json",
    "parse_event_line",
    "read_events_jsonl",
    "parse_event_columns",
    "TRACE_CSV_HEADER",
    "trace_entry_csv_row",
]


class ActionKind(enum.Enum):
    NO_ACTION = "NoAction"
    CONTEXT_RESET = "ContextReset"
    TEMPERATURE_ADJUST = "TemperatureAdjust"
    ALERT = "Alert"


# the action of the i-th trigger; its last entry repeats
ACTION_POLICY = (
    ActionKind.ALERT,
    ActionKind.CONTEXT_RESET,
    ActionKind.TEMPERATURE_ADJUST,
)


@dataclass(frozen=True, slots=True, init=False)
class StageEvent:
    """One stage attempt: trial/stage/attempt coordinates plus outcome and time.

    `__init__` is written by hand: it runs the four range checks, then stores
    each field through its slot's member descriptor. The generated frozen
    `__init__` stores each one through `object.__setattr__`, a lookup and a
    call per field that took half of building a 200k-event stream. The class
    stays frozen, comparable, hashable and picklable, and
    `dataclasses.replace` goes through the same checks.
    """

    trial_id: int
    stage: int
    attempt: int
    success: bool
    timestamp: int

    def __init__(
        self, trial_id: int, stage: int, attempt: int, success: bool, timestamp: int
    ) -> None:
        if trial_id < 0:
            raise ValueError(f"trial_id must be >= 0, got {trial_id}")
        if stage < 1:
            raise ValueError(f"stage must be >= 1, got {stage}")
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {timestamp}")
        _set_trial_id(self, trial_id)
        _set_stage(self, stage)
        _set_attempt(self, attempt)
        _set_success(self, success)
        _set_timestamp(self, timestamp)


# the slots' setters, which the frozen __setattr__ does not guard
_set_trial_id, _set_stage, _set_attempt, _set_success, _set_timestamp = (
    StageEvent.__dict__[name].__set__
    for name in ("trial_id", "stage", "attempt", "success", "timestamp")
)


@dataclass(frozen=True)
class CalibrationAction:
    kind: ActionKind
    delta_hat: float | None
    timestamp: int


@dataclass(frozen=True)
class MonitorConfig:
    window_size: int = 100
    min_samples: int = 30
    trigger_threshold: float = 0.3
    rearm_threshold: float = 0.35

    def __post_init__(self) -> None:
        window = _validate_count("window_size", self.window_size, 1)
        object.__setattr__(self, "window_size", window)
        object.__setattr__(self, "min_samples", _validate_count("min_samples", self.min_samples))
        if not 1 <= self.min_samples <= window:
            raise ValueError(
                f"min_samples must be in [1, window_size], got {self.min_samples}"
            )
        trigger = _validate_real("trigger_threshold", self.trigger_threshold)
        rearm = _validate_real("rearm_threshold", self.rearm_threshold)
        object.__setattr__(self, "trigger_threshold", trigger)
        object.__setattr__(self, "rearm_threshold", rearm)
        if not 0.0 < trigger < rearm <= 1.0:
            raise ValueError(
                f"thresholds must satisfy 0 < trigger < rearm <= 1, got {trigger} / {rearm}"
            )


def _region(estimate: float | None) -> RegionLabel | None:
    """Region of a window estimate; 0 is Marginal though classify rejects it."""
    if estimate is None:
        return None
    if estimate == 0.0:
        return RegionLabel.MARGINAL
    return classify(estimate)


@dataclass
class CalibrationState:
    """Mutable monitor state; single logical owner, no concurrent writers."""

    config: MonitorConfig
    window: deque[bool] = field(default_factory=deque)
    successes: int = 0
    armed: bool = True
    policy_cursor: int = 0
    last_timestamp: int | None = None

    @property
    def delta_hat(self) -> float | None:
        """Window success fraction; undefined below min_samples."""
        if len(self.window) < self.config.min_samples:
            return None
        return self.successes / len(self.window)


def observe(state: CalibrationState, event: StageEvent) -> CalibrationAction:
    """Feed one event; returns the action taken (usually NoAction).

    Raises OutOfOrderError when the event timestamp decreases.
    """
    if state.last_timestamp is not None and event.timestamp < state.last_timestamp:
        raise OutOfOrderError(
            f"timestamp {event.timestamp} arrived after {state.last_timestamp}"
        )
    state.last_timestamp = event.timestamp

    config = state.config
    if len(state.window) == config.window_size:
        state.successes -= state.window.popleft()
    state.window.append(event.success)
    state.successes += event.success

    estimate = state.delta_hat
    if estimate is None:
        return CalibrationAction(ActionKind.NO_ACTION, None, event.timestamp)
    if not state.armed and estimate >= config.rearm_threshold:
        state.armed = True
    if state.armed and estimate < config.trigger_threshold:
        kind = ACTION_POLICY[min(state.policy_cursor, len(ACTION_POLICY) - 1)]
        state.policy_cursor += 1
        state.armed = False
        return CalibrationAction(kind, estimate, event.timestamp)
    return CalibrationAction(ActionKind.NO_ACTION, estimate, event.timestamp)


def replay(events: Iterable[StageEvent], config: MonitorConfig) -> list[CalibrationAction]:
    """Run a fresh monitor over an event stream; observe()'s action per event."""
    return monitor_columns(EventColumns.from_events(events), config).entries()


# ---------------------------------------------------------------------------
# columnar monitor
# ---------------------------------------------------------------------------


def _int_column(values: list[int]) -> np.ndarray:
    """int64 column, or an object column of Python ints once a value leaves int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True)
class EventColumns:
    """An event stream as columns, one entry per event. Integer columns are
    int64, or object columns of Python ints when a value leaves int64."""

    trial: np.ndarray
    stage: np.ndarray
    attempt: np.ndarray
    success: np.ndarray     # bool
    ts: np.ndarray

    @classmethod
    def from_events(cls, events: Iterable[StageEvent]) -> EventColumns:
        events = list(events)
        return cls(
            trial=_int_column([event.trial_id for event in events]),
            stage=_int_column([event.stage for event in events]),
            attempt=_int_column([event.attempt for event in events]),
            success=np.array([event.success for event in events], dtype=bool),
            ts=_int_column([event.timestamp for event in events]),
        )


@dataclass(frozen=True)
class MonitorTrace:
    """A monitor run as columns: after event i the window holds `fill[i]`
    outcomes, `successes[i]` of them successes, and the estimate is defined
    where `defined[i]`. Event `fired[j]` fired action `kinds[j]`."""

    ts: np.ndarray
    successes: np.ndarray
    fill: np.ndarray
    defined: np.ndarray
    fired: np.ndarray
    kinds: tuple[ActionKind, ...]

    def entries(self) -> list[CalibrationAction]:
        """The trace as replay() returns it, one CalibrationAction per event."""
        kinds = [ActionKind.NO_ACTION] * self.ts.size
        for index, kind in zip(self.fired.tolist(), self.kinds):
            kinds[index] = kind
        return [
            CalibrationAction(kind, successes / fill if defined else None, stamp)
            for stamp, successes, fill, defined, kind in zip(
                self.ts.tolist(), self.successes.tolist(), self.fill.tolist(),
                self.defined.tolist(), kinds,
            )
        ]

    def csv(self) -> str:
        """The trace CSV, byte for byte what trace_entry_csv_row writes per action.

        Each row is the timestamp plus a suffix looked up, through a plain
        list, in a table over the distinct (fill, successes) pairs, fewer than
        (W+1)(W+2)/2 of them for a window of W, and one entry for an undefined
        estimate. One %-format over the interleaved timestamps and suffixes
        builds the rows.
        """
        base = self.ts.size + 1
        pairs = np.where(self.defined, self.fill * base + self.successes, -1)
        distinct, inverse = np.unique(pairs, return_inverse=True)
        table = []
        for pair in distinct.tolist():
            if pair < 0:
                table.append(",,,NoAction")
                continue
            fill, successes = divmod(pair, base)
            estimate = successes / fill
            table.append(f",{estimate:.6f},{_region(estimate).value},NoAction")
        suffixes = [table[index] for index in inverse.tolist()]
        for index, kind in zip(self.fired.tolist(), self.kinds):
            suffixes[index] = suffixes[index].removesuffix("NoAction") + kind.value
        return csv_text(TRACE_CSV_HEADER, "%s%s\n", self.ts.tolist(), suffixes)


def monitor_columns(columns: EventColumns, config: MonitorConfig) -> MonitorTrace:
    """What a fresh CalibrationState gives when observe() is fed every event.

    Raises OutOfOrderError, with observe()'s message, at the first decrease
    of the timestamps.
    """
    ts = columns.ts
    later = np.flatnonzero(np.diff(ts) < 0)
    if later.size:
        index = int(later[0])
        raise OutOfOrderError(f"timestamp {ts[index + 1]} arrived after {ts[index]}")

    n = ts.size
    # after event i the window holds the last min(i + 1, W) outcomes
    seen = np.arange(1, n + 1)
    running = np.concatenate(([0], np.cumsum(columns.success, dtype=np.int64)))
    fill = np.minimum(seen, min(config.window_size, n))
    successes = running[seen] - running[seen - fill]
    defined = fill >= min(config.min_samples, n + 1)

    # Only events with an estimate move the hysteresis. Disarmed after an
    # action, the monitor fires again at the first estimate below the
    # trigger that follows an estimate at or above the re-arm threshold.
    estimate = successes / np.maximum(fill, 1)
    below = np.flatnonzero(defined & (estimate < config.trigger_threshold))
    rearm = np.flatnonzero(defined & (estimate >= config.rearm_threshold))
    fired: list[int] = []
    start = 0
    while (at := int(np.searchsorted(below, start))) < below.size:
        fired.append(int(below[at]))
        if (at := int(np.searchsorted(rearm, fired[-1]))) == rearm.size:
            break
        start = int(rearm[at])
    last = len(ACTION_POLICY) - 1
    kinds = tuple(ACTION_POLICY[min(count, last)] for count in range(len(fired)))
    return MonitorTrace(ts, successes, fill, defined, np.array(fired, dtype=np.int64), kinds)


def synthesize_drift_stream(
    segments: Sequence[tuple[float, int]], seed: int
) -> list[StageEvent]:
    """Concatenate Bernoulli attempt outcomes, one segment per (delta, attempts).

    Events model a single-stage pipeline: the trial id advances on success
    and the attempt counter restarts. Timestamps are sequential from 0.
    Deterministic for a given seed.

    Each segment draws `rng.random(attempts) < delta` from one generator, in
    segment order. The coordinates come from the concatenated outcomes as
    columns: an event's attempt is its distance from the last success before
    it, and each trial's id repeats over as many events as its last attempt.
    One map builds the events from the columns.
    """
    if not segments:
        raise ValueError("need at least one (delta, attempts) segment")
    segments = [
        (_validate_delta(delta, "segment delta"), _validate_count("segment attempts", attempts, 1))
        for delta, attempts in segments
    ]
    rng = generator(seed)
    success = np.concatenate([rng.random(attempts) < delta for delta, attempts in segments])
    index = np.arange(success.size)
    # the index of the last success at or before each event, -1 before the first
    last = np.maximum.accumulate(np.where(success, index, -1))
    attempt = index - np.concatenate(([-1], last[:-1]))
    # a trial ends at its success or at the stream's end, and its length is
    # the attempt there; its id repeats over its events, so they share one int
    ends = success.copy()
    ends[-1] = True
    trials = chain.from_iterable(map(repeat, count(), attempt[ends].tolist()))
    columns = trials, repeat(1), attempt.tolist(), success.tolist(), range(success.size)
    # the arrays go before the events are built, so their memory is reused
    del success, index, last, attempt, ends
    return list(map(StageEvent, *columns))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def event_to_json(event: StageEvent) -> str:
    """One JSON line, byte for byte what json.dumps gives for the five fields."""
    success = "true" if event.success else "false"
    return (
        f'{{"trial": {event.trial_id}, "stage": {event.stage}, '
        f'"attempt": {event.attempt}, "success": {success}, "ts": {event.timestamp}}}'
    )


def parse_event_line(line: str) -> StageEvent:
    """Parse one JSON event line; raises ValueError on any malformation."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ValueError("event line must be a JSON object")
    required = {"trial", "stage", "attempt", "success", "ts"}
    missing = required - payload.keys()
    if missing:
        raise ValueError(f"missing fields: {sorted(missing)}")
    for name in ("trial", "stage", "attempt", "ts"):
        if isinstance(payload[name], bool) or not isinstance(payload[name], int):
            raise ValueError(f"field {name!r} must be an integer")
    if not isinstance(payload["success"], bool):
        raise ValueError("field 'success' must be a boolean")
    return StageEvent(
        trial_id=payload["trial"],
        stage=payload["stage"],
        attempt=payload["attempt"],
        success=payload["success"],
        timestamp=payload["ts"],
    )


def read_events_jsonl(lines: Iterable[str]) -> list[StageEvent]:
    """Parse an event stream, skipping blank lines."""
    events = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            events.append(parse_event_line(stripped))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from exc
    return events


# One line exactly as event_to_json writes it; at most 18 digits keep every
# integer inside int64.
_CANONICAL_INT = "(?:0|[1-9][0-9]{0,17})"
_CANONICAL_LINE = (
    r'\{"trial": %s, "stage": %s, "attempt": %s, "success": (?:true|false), "ts": %s\}'
    % ((_CANONICAL_INT,) * 4)
)
# A line that str.strip empties and that holds only ASCII: the ASCII
# whitespace other than LF.
_BLANK_LINE = r"[ \t\r\x0b\x0c\x1c-\x1f]*"
# A whole stream of such lines split on LF. The possessive *+ keeps no
# backtrack point per line: no line holds an LF, so giving one back could
# never let the last line match. The pattern holds only ASCII, so a stream
# it matches is ASCII, which _CANONICAL_NUMBERS covers.
_CANONICAL_STREAM = re.compile(
    r"(?:(?:{0}|{1})\n)*+(?:{0}|{1})".format(_CANONICAL_LINE, _BLANK_LINE)
)
# Over canonical lines, this map leaves six integers per line: trial, stage,
# attempt, 1 for the "u" of "success", 1 for the "u" of "true" or 0 for the
# "f" of "false" (no other key holds either letter), ts. Every other ASCII
# character becomes a space.
_CANONICAL_NUMBERS = str.maketrans(
    {chr(code): " " for code in range(128) if not chr(code).isdigit()} | {"u": "1", "f": "0"}
)


def parse_event_columns(text: str) -> EventColumns:
    """Parse a whole event stream: lines split on LF only, blank lines skipped.

    When every line is either exactly what event_to_json writes or made only
    of ASCII whitespace, one possessive regex match checks the whole stream
    and one numpy call reads its columns. Every other stream (one with a line
    of Unicode whitespace such as U+3000 included), and a canonical one with a
    stage or attempt below 1, goes through read_events_jsonl line by line, so
    an error names the same line with the same message.
    """
    if _CANONICAL_STREAM.fullmatch(text):
        # each canonical line holds exactly one "{" and a blank line none; a
        # known count lets fromstring allocate once instead of growing, and it
        # reads a blank stream as no numbers instead of one 0
        numbers = np.fromstring(
            text.translate(_CANONICAL_NUMBERS), dtype=np.int64, count=6 * text.count("{"), sep=" "
        )
        trial, stage, attempt, _, success, ts = numbers.reshape(-1, 6).T
        if (stage >= 1).all() and (attempt >= 1).all():
            return EventColumns(trial, stage, attempt, success == 1, ts)
    return EventColumns.from_events(read_events_jsonl(text.split("\n")))


TRACE_CSV_HEADER = "ts,delta_hat,region,action"


def trace_entry_csv_row(action: CalibrationAction) -> str:
    """Fixed-format trace row; undefined estimate and region are empty fields."""
    estimate = action.delta_hat
    if estimate is None:
        return f"{action.timestamp},,,{action.kind.value}"
    return f"{action.timestamp},{estimate:.6f},{_region(estimate).value},{action.kind.value}"
