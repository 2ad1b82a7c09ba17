"""Sliding-window drift calibration over stage-attempt event streams.

The monitor keeps the last `window_size` attempt outcomes, estimates the
live success probability as successes/window, and emits an action from the
configured policy the first time the estimate drops below the trigger
threshold. Hysteresis: after a trigger it stays disarmed until the estimate
recovers to the re-arm threshold, so a stream hovering near the trigger
line cannot fire repeatedly.

State is a single-writer machine: one owner feeds observe() events with
non-decreasing timestamps. Streams serialize as JSON lines
{"trial": .., "stage": .., "attempt": .., "success": .., "ts": ..}.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ._io import write_text_atomic
from .errors import OutOfOrderError
from .regions import RegionLabel, classify
from .rng import generator

__all__ = [
    "ActionKind",
    "StageEvent",
    "CalibrationAction",
    "MonitorConfig",
    "CalibrationState",
    "TraceEntry",
    "observe",
    "replay",
    "synthesize_drift_stream",
    "event_to_json",
    "parse_event_line",
    "read_events_jsonl",
    "write_events_jsonl",
    "TRACE_CSV_HEADER",
    "trace_entry_csv_row",
]


class ActionKind(enum.Enum):
    NO_ACTION = "NoAction"
    CONTEXT_RESET = "ContextReset"
    TEMPERATURE_ADJUST = "TemperatureAdjust"
    ALERT = "Alert"


DEFAULT_ACTION_POLICY = (
    ActionKind.ALERT,
    ActionKind.CONTEXT_RESET,
    ActionKind.TEMPERATURE_ADJUST,
)


@dataclass(frozen=True, slots=True)
class StageEvent:
    """One stage attempt: trial/stage/attempt coordinates plus outcome and time."""

    trial_id: int
    stage: int
    attempt: int
    success: bool
    timestamp: int

    def __post_init__(self) -> None:
        if self.trial_id < 0:
            raise ValueError(f"trial_id must be >= 0, got {self.trial_id}")
        if self.stage < 1:
            raise ValueError(f"stage must be >= 1, got {self.stage}")
        if self.attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {self.attempt}")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")


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
    action_policy: tuple[ActionKind, ...] = DEFAULT_ACTION_POLICY
    stage_filter: int | None = None    # restrict estimation to one stage's events

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not 1 <= self.min_samples <= self.window_size:
            raise ValueError(
                f"min_samples must be in [1, window_size], got {self.min_samples}"
            )
        if not 0.0 < self.trigger_threshold < self.rearm_threshold <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < trigger < rearm <= 1, got "
                f"{self.trigger_threshold} / {self.rearm_threshold}"
            )
        if not self.action_policy:
            raise ValueError("action_policy must list at least one action")
        if any(kind is ActionKind.NO_ACTION for kind in self.action_policy):
            raise ValueError("action_policy entries must be real actions")
        object.__setattr__(self, "action_policy", tuple(self.action_policy))
        if self.stage_filter is not None and self.stage_filter < 1:
            raise ValueError(f"stage_filter must be >= 1, got {self.stage_filter}")


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

    @property
    def region(self) -> RegionLabel | None:
        estimate = self.delta_hat
        if estimate is None:
            return None
        if estimate == 0.0:
            return RegionLabel.MARGINAL
        return classify(estimate)


def observe(state: CalibrationState, event: StageEvent) -> CalibrationAction:
    """Feed one event; returns the action taken (usually NoAction).

    Raises OutOfOrderError when the event timestamp decreases. Events not
    matching the configured stage_filter leave the window untouched.
    """
    if state.last_timestamp is not None and event.timestamp < state.last_timestamp:
        raise OutOfOrderError(
            f"timestamp {event.timestamp} arrived after {state.last_timestamp}"
        )
    state.last_timestamp = event.timestamp

    config = state.config
    if config.stage_filter is not None and event.stage != config.stage_filter:
        return CalibrationAction(ActionKind.NO_ACTION, state.delta_hat, event.timestamp)

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
        cursor = min(state.policy_cursor, len(config.action_policy) - 1)
        kind = config.action_policy[cursor]
        state.policy_cursor += 1
        state.armed = False
        return CalibrationAction(kind, estimate, event.timestamp)
    return CalibrationAction(ActionKind.NO_ACTION, estimate, event.timestamp)


@dataclass(frozen=True)
class TraceEntry:
    timestamp: int
    delta_hat: float | None
    region: RegionLabel | None
    action: ActionKind


def replay(events: Iterable[StageEvent], config: MonitorConfig) -> list[TraceEntry]:
    """Run a fresh monitor over an event stream; one trace entry per event."""
    state = CalibrationState(config=config)
    trace = []
    for event in events:
        action = observe(state, event)
        trace.append(
            TraceEntry(
                timestamp=event.timestamp,
                delta_hat=state.delta_hat,
                region=state.region,
                action=action.kind,
            )
        )
    return trace


def synthesize_drift_stream(
    segments: Sequence[tuple[float, int]], seed: int
) -> list[StageEvent]:
    """Concatenate Bernoulli attempt outcomes, one segment per (delta, attempts).

    Events model a single-stage pipeline: the trial id advances on success
    and the attempt counter restarts. Timestamps are sequential from 0.
    Deterministic for a given seed.
    """
    if not segments:
        raise ValueError("need at least one (delta, attempts) segment")
    rng = generator(seed)
    events: list[StageEvent] = []
    timestamp = 0
    trial = 0
    attempt = 1
    for delta, attempts in segments:
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"segment delta must be in (0, 1], got {delta}")
        if attempts < 1:
            raise ValueError(f"segment attempts must be >= 1, got {attempts}")
        outcomes = rng.random(attempts) < delta
        for success in outcomes.tolist():
            events.append(
                StageEvent(
                    trial_id=trial,
                    stage=1,
                    attempt=attempt,
                    success=success,
                    timestamp=timestamp,
                )
            )
            timestamp += 1
            if success:
                trial += 1
                attempt = 1
            else:
                attempt += 1
    return events


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def event_to_json(event: StageEvent) -> str:
    return json.dumps(
        {
            "trial": event.trial_id,
            "stage": event.stage,
            "attempt": event.attempt,
            "success": event.success,
            "ts": event.timestamp,
        }
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


def write_events_jsonl(events: Iterable[StageEvent], path: str | Path) -> None:
    """Write one JSON line per event, atomically."""
    text = "".join(event_to_json(event) + "\n" for event in events)
    write_text_atomic(Path(path), text)


TRACE_CSV_HEADER = "ts,delta_hat,region,action"


def trace_entry_csv_row(entry: TraceEntry) -> str:
    """Fixed-format trace row; undefined estimate and region are empty fields."""
    estimate = "" if entry.delta_hat is None else f"{entry.delta_hat:.6f}"
    region = "" if entry.region is None else entry.region.value
    return f"{entry.timestamp},{estimate},{region},{entry.action.value}"
