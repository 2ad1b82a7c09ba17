"""Command-line front end.

Subcommand catalog:
  exact         closed-form chain analysis for one delta
  sweep         Monte Carlo campaign over a delta grid, report per delta
  tail          CCDF export plus log-linear decay fit for one delta
  monitor       drift monitor over a JSON-lines event stream (file or stdin)
  distribution  iteration-count histogram and percentiles for one delta

Exit codes: 0 success, 2 invalid flags (including an exact delta below about
stages * 5.6e-309, where the expected step counts overflow a double, and a
sweep with fewer than 2 trials per delta), 3 I/O failure, 4 resource budget
exceeded or out of memory, 5 malformed event line, 6 out-of-order event
stream.

Every command is deterministic for a fixed flag set: reports are written
atomically (temp file then rename) and contain no wall-clock fields. Time and
memory go to stderr only: sweep prints the wall time, rate and peak traced
memory of generating all its histograms. The seed comes from --seed, then the
CONVLAB_SEED environment variable, then the built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

from ._io import write_text_atomic
from .calibrate import MonitorConfig, monitor_columns, parse_event_columns
from .errors import (
    InsufficientDataError,
    InsufficientTailError,
    OutOfOrderError,
    ResourceLimitError,
    SingularMatrixError,
)
from .markov import (
    PipelineSpec,
    analyze,
    build_pipeline_chain,
    decompose,
    exact_expected_steps_closed_form,
    failure_counting_expected_steps,
)
from .regions import classify
from .rng import validate_seed
from .simulate import DEFAULT_SUCCESS_CUTOFF, SimConfig, _measured, run_histogram, sweep_configs
from .stats import (
    histogram_ccdf,
    histogram_mean,
    histogram_percentiles,
    prefactor_corrected_slope,
    summarize_histogram,
    tail_decay_fit,
)

# The CLI no longer calls these; they stay importable here because the
# benchmark's tracer wraps them at this import site (perfbench/layers.py), and
# its test looks run_sweep up on this module with no default.
from .calibrate import read_events_jsonl, replay, trace_entry_csv_row  # noqa: F401
from .simulate import run_batch, run_sweep  # noqa: F401
from .stats import ccdf, nearest_rank_percentile, summarize  # noqa: F401

__all__ = ["main", "parse_deltas"]

DEFAULT_SEED = 42
DEFAULT_DELTAS = "0.1:0.9:0.1"
RANGE_TOLERANCE = Decimal("1e-9")  # in steps

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4
EXIT_MALFORMED = 5
EXIT_OUT_OF_ORDER = 6


class UsageError(Exception):
    """Semantically invalid flag values; maps to exit code 2."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def parse_deltas(text: str) -> list[float]:
    """Parse `start:end:step` (in decimal, end inclusive within 1e-9 step) or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:end:step, got {text!r}")
        bounds = [float(part) for part in parts]
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"range bounds must be finite, got {text!r}")
        # decimal steps keep 0.1:0.9:0.1 on 0.1, 0.2, ..., 0.9 exactly
        start, end, step = (Decimal(repr(bound)) for bound in bounds)
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        last = end + step * RANGE_TOLERANCE
        if last < start:
            raise ValueError(f"range end {end} is below start {start}")
        values = []
        index = 0
        while (value := start + index * step) <= last:
            values.append(float(value))
            index += 1
        return values
    pieces = [piece for piece in text.split(",") if piece.strip()]
    if not pieces:
        raise ValueError("no deltas given")
    return [float(piece) for piece in pieces]


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        seed = flag_value
    elif "CONVLAB_SEED" in os.environ:
        raw = os.environ["CONVLAB_SEED"]
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"CONVLAB_SEED must be an integer, got {raw!r}") from None
    else:
        seed = DEFAULT_SEED
    try:
        return validate_seed(seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        write_text_atomic(Path(out), text)


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _read_input(name: str) -> str:
    """A file, or stdin for "-", as text with universal newlines: CR LF and a
    lone CR read as LF, as reading a file in text mode already gives."""
    if name == "-":
        return sys.stdin.read().replace("\r\n", "\n").replace("\r", "\n")
    return Path(name).read_text()


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def cmd_exact(args: argparse.Namespace) -> int:
    try:
        spec = PipelineSpec(delta=args.delta, stages=args.stages)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    analysis = analyze(decompose(build_pipeline_chain(spec)))
    attempts_form = exact_expected_steps_closed_form(spec)
    failures_form = failure_counting_expected_steps(spec)
    headline = attempts_form if args.counting_convention == "attempts" else failures_form
    payload = {
        "delta": spec.delta,
        "stages": spec.stages,
        "counting_convention": args.counting_convention,
        "expected_steps": analysis.expected_steps.tolist(),
        "expected_total": headline,
        "closed_form_attempts": attempts_form,
        "closed_form_failures": failures_form,
        "spectral_radius": analysis.spectral_radius,
        "tail_constant": analysis.tail_constant,
        "tail_constant_norm": analysis.tail_constant_norm,
    }
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    steps = " ".join(f"{value:.6f}" for value in analysis.expected_steps)
    print(f"delta                   {spec.delta:.6f}")
    print(f"stages                  {spec.stages}")
    print(f"expected steps by stage {steps}")
    print(f"expected total ({args.counting_convention}) {headline:.6f}")
    print(f"closed form, attempts   {attempts_form:.6f}")
    print(f"closed form, failures   {failures_form:.6f}")
    print(f"spectral radius         {analysis.spectral_radius:.6f}")
    print(f"tail constant (inf)     {analysis.tail_constant:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _report_row(histogram) -> dict[str, float | str]:
    """One sweep report row, its columns in report order."""
    summary = summarize_histogram(histogram)
    config = histogram.config
    return {
        "delta": config.delta,
        "theory": config.stages / config.delta,
        "mean": summary.mean,
        "std": summary.std,
        "conservative_factor": summary.conservative_factor,
        "p99": summary.p99,
        "success_rate_percent": summary.success_rate * 100.0,
        "efficiency": summary.efficiency,
        "ci_width_99": summary.ci_width_99,
        "region": classify(config.delta).value,
    }


def _report_text(rows: list[dict[str, float | str]], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(rows[0])]
    for row in rows:
        cells = (v if isinstance(v, str) else f"{v:.6f}" for v in row.values())
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    try:
        deltas = parse_deltas(args.deltas)
        configs = sweep_configs(deltas, args.trials, seed, success_cutoff=args.cutoff)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    histograms, runtime, peak = _measured(
        lambda: [run_histogram(config) for config in configs]
    )
    _emit(_report_text([_report_row(h) for h in histograms], args.format), args.out)

    trials = sum(config.trials for config in configs)
    _info(
        f"sweep: {trials} trials over {len(configs)} deltas generated in "
        f"{runtime:.4f}s ({trials / runtime:.0f} trials/s), "
        f"peak memory {peak} bytes"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------


def cmd_tail(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    try:
        config = SimConfig(delta=args.delta, trials=args.trials, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    histogram = run_histogram(config)
    series = histogram_ccdf(histogram.values, histogram.counts)
    floor_prob = 10.0 / config.trials
    theoretical = math.log1p(-config.delta) if config.delta < 1.0 else None
    try:
        fitted = tail_decay_fit(series, floor_prob)
    except InsufficientTailError as exc:
        fitted = None
        _info(f"tail: no fit ({exc})")

    lines = ["k,ccdf"]
    lines.extend(f"{k},{prob:.6f}" for k, prob in series.points)
    _emit("\n".join(lines) + "\n", args.out)
    if args.out != "-":
        sidecar = {
            "delta": config.delta,
            "trials": config.trials,
            "seed": seed,
            "floor_prob": floor_prob,
            "fitted_slope": fitted,
            "theoretical_slope": theoretical,
        }
        write_text_atomic(Path(f"{args.out}.meta.json"), json.dumps(sidecar, indent=2) + "\n")
    if fitted is not None:
        kept = [k for k, prob in series.points if prob > floor_prob]
        corrected = prefactor_corrected_slope(fitted, kept, config.delta, config.stages)
        _info(
            f"tail: fitted slope {fitted:.6f}, prefactor-corrected {corrected:.6f}, "
            f"theoretical {theoretical:.6f}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


def cmd_monitor(args: argparse.Namespace) -> int:
    try:
        config = MonitorConfig(
            window_size=args.window,
            min_samples=args.min_samples,
            trigger_threshold=args.trigger,
            rearm_threshold=args.rearm,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    try:
        columns = parse_event_columns(_read_input(args.input))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED

    trace = monitor_columns(columns, config)
    _emit(trace.csv(), args.out)

    counts = Counter(kind.value for kind in trace.kinds)
    triggered = ", ".join(f"{kind}: {count}" for kind, count in sorted(counts.items()))
    _info(
        f"monitor: {trace.ts.size} events, {len(trace.kinds)} actions"
        + (f" ({triggered})" if counts else "")
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------


def cmd_distribution(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    try:
        config = SimConfig(delta=args.delta, trials=args.trials, seed=seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    histogram = run_histogram(config)
    values, counts = histogram.values, histogram.counts

    lines = ["k,count"]
    lines.extend(f"{k},{c}" for k, c in zip(values.tolist(), counts.tolist()))
    _emit("\n".join(lines) + "\n", args.out)
    if args.out != "-":
        p25, p50, p75, p99 = histogram_percentiles(values, counts, (25, 50, 75, 99))
        sidecar = {
            "delta": config.delta,
            "stages": config.stages,
            "trials": config.trials,
            "seed": seed,
            "min": int(values[0]),
            "max": int(values[-1]),
            "mean": histogram_mean(values, counts),
            "p25": p25,
            "p50": p50,
            "p75": p75,
            "p99": p99,
        }
        write_text_atomic(Path(f"{args.out}.meta.json"), json.dumps(sidecar, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convlab",
        description="Retry-pipeline convergence analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exact = sub.add_parser("exact", help="closed-form chain analysis")
    exact.add_argument("--delta", type=float, required=True)
    exact.add_argument("--stages", type=int, default=4)
    exact.add_argument(
        "--counting-convention",
        choices=("attempts", "failures"),
        default="attempts",
    )
    exact.add_argument("--json", action="store_true")
    exact.set_defaults(handler=cmd_exact)

    sweep = sub.add_parser("sweep", help="Monte Carlo campaign over a delta grid")
    sweep.add_argument("--deltas", default=DEFAULT_DELTAS)
    sweep.add_argument("--trials", type=int, default=10_000)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--cutoff", type=int, default=DEFAULT_SUCCESS_CUTOFF)
    sweep.add_argument("--out", default="-")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(handler=cmd_sweep)

    tail = sub.add_parser("tail", help="CCDF export and decay fit")
    tail.add_argument("--delta", type=float, required=True)
    tail.add_argument("--trials", type=int, default=10_000)
    tail.add_argument("--seed", type=int, default=None)
    tail.add_argument("--out", default="-")
    tail.set_defaults(handler=cmd_tail)

    monitor = sub.add_parser("monitor", help="drift monitor over an event stream")
    monitor.add_argument("--input", required=True, help="event file, or - for stdin")
    monitor.add_argument("--window", type=int, default=100)
    monitor.add_argument("--min-samples", type=int, default=30)
    monitor.add_argument("--trigger", type=float, default=0.3)
    monitor.add_argument("--rearm", type=float, default=0.35)
    monitor.add_argument("--out", default="-")
    monitor.set_defaults(handler=cmd_monitor)

    distribution = sub.add_parser("distribution", help="iteration-count histogram")
    distribution.add_argument("--delta", type=float, required=True)
    distribution.add_argument("--trials", type=int, default=10_000)
    distribution.add_argument("--seed", type=int, default=None)
    distribution.add_argument("--out", default="-")
    distribution.set_defaults(handler=cmd_distribution)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    # flag values the analysis cannot use: a delta so small that the expected
    # step counts overflow (exact), or too few trials for a summary (sweep)
    except (UsageError, SingularMatrixError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OutOfOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_ORDER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
