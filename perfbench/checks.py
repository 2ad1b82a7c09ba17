"""Output checks. Each returns (problems, facts): a list of what is wrong
(empty when the output is correct) and counts read from the output.

The statistical checks use wide margins (about six standard errors), so a
correct program fails one with probability far below one in a million.
The tail ``fitted_slope`` and ``tail_bound`` are deliberately not checked:
their known bias is tracked by acceptance criterion 05, not here.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from convlab.stats import negbin_cdf, negbin_quantile

STAGES = 4
SWEEP_HEADER = (
    "delta,theory,mean,std,conservative_factor,p99,success_rate_percent,"
    "efficiency,ci_width_99,region"
)
SWEEP_CI_MULTIPLE = 3.0      # |mean - theory| <= 3 * ci_width_99, about 7.7 sigma
Z_LIMIT = 6.0
TRACE_HEADER = "ts,delta_hat,region,action"
POLICY = ("Alert", "ContextReset", "TemperatureAdjust")
EVENT_PATTERN = re.compile(r'"success": (true|false), "ts": (\d+)\}')


def region_of(delta: float) -> str:
    """Region label by the documented thresholds; boundaries are Practical."""
    if delta < 0.3:
        return "Marginal"
    if delta <= 0.6:
        return "Practical"
    return "HighPerformance"


def _read_rows(path: Path, header: str, problems: list[str]) -> list[list[str]]:
    try:
        lines = path.read_text().split("\n")
    except OSError as exc:
        problems.append(f"{path.name}: cannot read ({exc})")
        return []
    if lines[-1] != "":
        problems.append(f"{path.name}: does not end with a newline")
    lines = lines[:-1] if lines[-1] == "" else lines
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header is not {header!r}")
        return []
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        problems.append(f"{path.name}: a row does not have {width} fields")
        return []
    return rows


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable JSON ({exc})")
        return None


def check_sweep(report: Path, deltas: list[float], trials: int) -> tuple[list[str], dict]:
    problems: list[str] = []
    rows = _read_rows(report, SWEEP_HEADER, problems)
    if rows and len(rows) != len(deltas):
        problems.append(f"sweep: {len(rows)} rows for {len(deltas)} deltas")
        rows = []
    for row, delta in zip(rows, deltas):
        try:
            values = [float(cell) for cell in row[:-1]]
        except ValueError:
            problems.append(f"sweep: non-numeric cell in row {row}")
            continue
        got_delta, theory, mean, std, factor, p99, success, efficiency, ci = values
        if abs(got_delta - delta) > 1e-6 or abs(theory - STAGES / delta) > 1e-5:
            problems.append(f"sweep: delta/theory {got_delta}/{theory} for delta {delta}")
        if not (ci > 0.0 and abs(mean - theory) <= SWEEP_CI_MULTIPLE * ci):
            problems.append(f"sweep: mean {mean} vs theory {theory}, ci_width_99 {ci}")
        if abs(factor - theory / mean) > 1e-5 or abs(efficiency - STAGES / mean) > 1e-5:
            problems.append(f"sweep: ratios disagree with mean {mean} at delta {delta}")
        if std <= 0.0 or p99 < mean or not 0.0 <= success <= 100.0:
            problems.append(f"sweep: std/p99/success {std}/{p99}/{success} at delta {delta}")
        if row[-1] != region_of(delta):
            problems.append(f"sweep: region {row[-1]} at delta {delta}")
    return problems, {}


def _ccdf_at(ks: np.ndarray, probs: np.ndarray, k: int) -> float:
    """Empirical P(T > k) from the step series: last point at or below k."""
    index = int(np.searchsorted(ks, k, side="right")) - 1
    return 1.0 if index < 0 else float(probs[index])


def check_tail(
    series: Path, sidecar: Path, delta: float, trials: int, seed: int
) -> tuple[list[str], dict]:
    problems: list[str] = []
    rows = _read_rows(series, "k,ccdf", problems)
    if not rows:
        problems.append("tail: empty CCDF")
        return problems, {}
    ks = np.array([int(k) for k, _ in rows])
    probs = np.array([float(p) for _, p in rows])
    if ks[0] < STAGES or np.any(np.diff(ks) <= 0):
        problems.append("tail: k is not strictly increasing from the stage count")
    if np.any(np.diff(probs) > 0.0) or probs[0] > 1.0 or probs[-1] != 0.0:
        problems.append("tail: CCDF is not non-increasing from <= 1 down to 0")
    for level in (0.25, 0.5, 0.9, 0.99):
        k = negbin_quantile(level, STAGES, delta)
        expected = 1.0 - negbin_cdf(k, STAGES, delta)
        got = _ccdf_at(ks, probs, k)
        margin = Z_LIMIT * math.sqrt(expected * (1.0 - expected) / trials) + 1e-6
        if abs(got - expected) > margin:
            problems.append(f"tail: P(T>{k}) = {got}, theory {expected:.6f}")
    meta = _read_json(sidecar, problems)
    if meta is not None:
        wanted = {"delta": delta, "trials": trials, "seed": seed, "floor_prob": 10.0 / trials}
        for key, value in wanted.items():
            if meta.get(key) != value:
                problems.append(f"tail sidecar: {key} = {meta.get(key)!r}, want {value!r}")
        if "fitted_slope" not in meta:
            problems.append("tail sidecar: fitted_slope missing")
        if delta < 1.0 and meta.get("theoretical_slope") != math.log1p(-delta):
            problems.append("tail sidecar: theoretical_slope is not ln(1 - delta)")
    return problems, {}


def _nearest_rank(ks: np.ndarray, cumulative: np.ndarray, percentile: float) -> float:
    rank = max(math.ceil(percentile / 100.0 * cumulative[-1]), 1)
    return float(ks[int(np.searchsorted(cumulative, rank))])


def check_distribution(
    histogram: Path, sidecar: Path, delta: float, trials: int, seed: int, tail_series: Path
) -> tuple[list[str], dict]:
    """Histogram and sidecar; the tail CCDF of the same seed must match it exactly."""
    problems: list[str] = []
    rows = _read_rows(histogram, "k,count", problems)
    if not rows:
        problems.append("distribution: empty histogram")
        return problems, {}
    ks = np.array([int(k) for k, _ in rows])
    counts = np.array([int(c) for _, c in rows])
    if ks[0] < STAGES or np.any(np.diff(ks) <= 0) or np.any(counts < 1):
        problems.append("distribution: k not increasing or a count below 1")
    if int(counts.sum()) != trials:
        problems.append(f"distribution: counts sum to {int(counts.sum())}, not {trials}")
        return problems, {}
    cumulative = np.cumsum(counts)
    meta = _read_json(sidecar, problems)
    if meta is not None:
        wanted = {
            "delta": delta,
            "stages": STAGES,
            "trials": trials,
            "seed": seed,
            "min": int(ks[0]),
            "max": int(ks[-1]),
            **{f"p{p}": _nearest_rank(ks, cumulative, p) for p in (25, 50, 75, 99)},
        }
        for key, value in wanted.items():
            if meta.get(key) != value:
                problems.append(f"distribution sidecar: {key} = {meta.get(key)!r}, want {value!r}")
        mean = float((ks * counts).sum()) / trials
        if not isinstance(meta.get("mean"), float) or abs(meta["mean"] - mean) > 1e-9 * mean:
            problems.append(f"distribution sidecar: mean {meta.get('mean')!r}, want {mean}")
    tail_rows = _read_rows(tail_series, "k,ccdf", [])
    expected_tail = [
        [str(k), f"{(trials - c) / trials:.6f}"] for k, c in zip(ks.tolist(), cumulative.tolist())
    ]
    if tail_rows != expected_tail:
        problems.append("distribution: histogram and tail CCDF of the same seed disagree")
    return problems, {}


def read_event_outcomes(events: Path) -> tuple[np.ndarray, np.ndarray]:
    """(success, ts) columns of a stream written by ``event_to_json``."""
    text = events.read_text()
    pairs = EVENT_PATTERN.findall(text)
    if len(pairs) != text.count("\n"):
        raise ValueError(f"{events.name}: {len(pairs)} events for {text.count(chr(10))} lines")
    success = np.array([flag == "true" for flag, _ in pairs], dtype=np.int64)
    ts = np.array([int(stamp) for _, stamp in pairs], dtype=np.int64)
    return success, ts


def window_estimates(success: np.ndarray, window: int, min_samples: int) -> list[float | None]:
    """Sliding-window success fraction per event, recomputed independently."""
    prefix = np.concatenate(([0], np.cumsum(success)))
    index = np.arange(1, success.size + 1)
    low = np.maximum(index - window, 0)
    hits = (prefix[index] - prefix[low]).tolist()
    sizes = (index - low).tolist()
    return [h / n if n >= min_samples else None for h, n in zip(hits, sizes)]


def check_monitor(
    trace: Path,
    events: Path,
    window: int,
    min_samples: int,
    trigger: float,
    rearm: float,
) -> tuple[list[str], dict]:
    """One row per event, and every cell matches an independent recomputation.

    Actions may appear only where the estimate is below the trigger and the
    monitor is armed; they follow the default policy order, the last kind
    repeating.
    """
    problems: list[str] = []
    rows = _read_rows(trace, TRACE_HEADER, problems)
    success, ts = read_event_outcomes(events)
    if len(rows) != success.size:
        problems.append(f"monitor: {len(rows)} trace rows for {success.size} events")
        return problems, {}
    armed = True
    actions = 0
    for index, (row, stamp, estimate) in enumerate(
        zip(rows, ts.tolist(), window_estimates(success, window, min_samples))
    ):
        action = "NoAction"
        if estimate is not None:
            armed = armed or estimate >= rearm
            if armed and estimate < trigger:
                action = POLICY[min(actions, len(POLICY) - 1)]
                armed = False
                actions += 1
        want = [str(stamp), "", "", action]
        if estimate is not None:
            want[1:3] = [f"{estimate:.6f}", region_of(estimate)]
        if row != want:
            problems.append(f"monitor: row {index + 1} is {row}, want {want}")
            break
    if not problems and not actions:
        problems.append("monitor: the drift stream never triggered an action")
    return problems, {"events": len(rows), "actions": actions}


def check_crossval(
    report: Path, deltas: list[float], trials: int
) -> tuple[list[str], dict]:
    """Stepwise and vectorized means agree with markov.analyze's expected steps."""
    problems: list[str] = []
    entries = _read_json(report, problems)
    if not isinstance(entries, list) or len(entries) != len(deltas):
        problems.append("crossval: report does not hold one entry per delta")
        return problems, {}
    steps = 0
    for entry, delta in zip(entries, deltas):
        expected = entry["expected_steps"][0]
        if abs(expected - STAGES / delta) > 1e-9 * STAGES / delta:
            problems.append(f"crossval: analyze gives {expected} steps at delta {delta}")
        se = math.sqrt(STAGES * (1.0 - delta) / delta**2 / trials)
        for key in ("stepwise_mean", "vectorized_mean"):
            if abs(entry[key] - expected) > Z_LIMIT * se + 1e-12:
                problems.append(f"crossval: {key} {entry[key]} vs {expected} at delta {delta}")
        if entry["trials"] != trials or not entry["all_converged"] or abs(entry["z_score"]) > Z_LIMIT:
            problems.append(f"crossval: trials/convergence/z wrong at delta {delta}: {entry}")
        steps += round(entry["stepwise_mean"] * trials)
    return problems, {"stepwise_steps": steps}
