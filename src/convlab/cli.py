"""Command-line front end.

Subcommand catalog:
  exact         the pipeline chain's closed forms for one delta
  sweep         Monte Carlo campaign over a delta grid, report per delta
  tail          CCDF export plus log-linear decay fit for one delta
  monitor       drift monitor over a JSON-lines event stream (file or stdin)
  distribution  iteration-count histogram and percentiles for one delta

Exit codes: 0 success, 2 invalid flags (including an exact delta below about
stages * 5.6e-309, where the expected step counts overflow a double, and a
sweep with fewer than 2 trials per delta), 3 I/O failure, 4 resource budget
exceeded (including exact above 2**20 stages and a sweep range of more than
2**20 deltas) or out of memory, 5 malformed event line, 6 out-of-order event
stream.

Every command is deterministic for a fixed flag set: reports are written
atomically (temp file then rename) and contain no wall-clock fields. Time and
memory go to stderr only: sweep prints the wall time, rate and peak traced
memory, over all worker threads, of generating all its histograms. The seed
comes from --seed, then the CONVLAB_SEED environment variable, then the
built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ._io import csv_text, write_text_atomic
from .calibrate import MonitorConfig, monitor_columns, parse_event_columns
from .errors import (
    InsufficientDataError,
    InsufficientTailError,
    OutOfOrderError,
    ResourceLimitError,
    SingularMatrixError,
)
from .markov import PipelineSpec, failure_counting_expected_steps, pipeline_expected_steps
from .regions import classify
from .rng import validate_seed
from .simulate import SimConfig, run_histogram, sweep_configs
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
DEFAULT_SUCCESS_CUTOFF = 1000  # a trial succeeds if its total is at most this
RANGE_TOLERANCE = Fraction(1, 10**9)  # in steps
EXACT_STAGE_BUDGET = 2**20  # exact holds and prints one float per stage
DELTA_RANGE_BUDGET = 2**20  # values a start:end:step range may expand to

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
    """Parse `start:end:step` (exact on the decimal reprs, end inclusive within
    1e-9 step) or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:end:step, got {text!r}")
        bounds = [float(part) for part in parts]
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"range bounds must be finite, got {text!r}")
        # exact fractions of the reprs keep 0.1:0.9:0.1 on 0.1, 0.2, ..., 0.9,
        # and each value is rounded to a float once
        start, end, step = (Fraction(repr(bound)) for bound in bounds)
        # the messages show a bound as the decimal of its repr, e.g. 1E-7
        if step <= 0:
            raise ValueError(f"range step must be positive, got {Decimal(repr(bounds[2]))}")
        last = end + step * RANGE_TOLERANCE
        if last < start:
            raise ValueError(
                f"range end {Decimal(repr(bounds[1]))} is below start {Decimal(repr(bounds[0]))}"
            )
        count = math.floor((last - start) / step) + 1
        if count > DELTA_RANGE_BUDGET:
            raise ResourceLimitError(
                f"range {text!r} holds {count} deltas, budget is {DELTA_RANGE_BUDGET}"
            )
        # start + index * step over one denominator; int / int rounds it
        # once, as float(Fraction) does, without a Fraction per value
        denominator = math.lcm(start.denominator, step.denominator)
        first = start.numerator * (denominator // start.denominator)
        stride = step.numerator * (denominator // step.denominator)
        return [(first + index * stride) / denominator for index in range(count)]
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


def _emit(text: str, out: str, sidecar: dict | None = None) -> None:
    """The report on stdout for "-"; else the report at `out` and, when given,
    the sidecar at `out.meta.json`, both written before either is renamed."""
    if out == "-":
        sys.stdout.write(text)
        return
    files = {Path(out): text}
    if sidecar is not None:
        files[Path(f"{out}.meta.json")] = json.dumps(sidecar, indent=2) + "\n"
    write_text_atomic(files)


def _measured(work: Callable[[], list]) -> tuple[list, float, int]:
    """Run `work`; return its result, wall seconds and peak traced bytes.
    Tracing is left as it was found, also when `work` raises."""
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        start = time.perf_counter()
        result = work()
        runtime = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, max(runtime, 1e-9), int(peak)


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
    if spec.stages > EXACT_STAGE_BUDGET:
        raise ResourceLimitError(
            f"exact needs {spec.stages} stages, budget is {EXACT_STAGE_BUDGET}"
        )
    steps = pipeline_expected_steps(spec)
    attempts_form = steps[0]
    failures_form = failure_counting_expected_steps(spec)
    radius = 1.0 - spec.delta
    headline = attempts_form if args.counting_convention == "attempts" else failures_form
    payload = {
        "delta": spec.delta,
        "stages": spec.stages,
        "counting_convention": args.counting_convention,
        "expected_steps": steps,
        "expected_total": headline,
        "closed_form_attempts": attempts_form,
        "closed_form_failures": failures_form,
        "spectral_radius": radius,
        "tail_constant": attempts_form,
        "tail_constant_norm": "inf",
    }
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    by_stage = " ".join(f"{value:.6f}" for value in steps)
    print(f"delta                   {spec.delta:.6f}")
    print(f"stages                  {spec.stages}")
    print(f"expected steps by stage {by_stage}")
    print(f"expected total ({args.counting_convention}) {headline:.6f}")
    print(f"closed form, attempts   {attempts_form:.6f}")
    print(f"closed form, failures   {failures_form:.6f}")
    print(f"spectral radius         {radius:.6f}")
    print(f"tail constant (inf)     {attempts_form:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _report_row(histogram, cutoff: int) -> dict[str, float | str]:
    """One sweep report row, its columns in report order."""
    summary = summarize_histogram(histogram)
    config = histogram.config
    successes = int(histogram.counts[histogram.values <= cutoff].sum())
    return {
        "delta": config.delta,
        "theory": config.stages / config.delta,
        "mean": summary.mean,
        "std": summary.std,
        "conservative_factor": summary.conservative_factor,
        "p99": summary.p99,
        "success_rate_percent": successes / config.trials * 100.0,
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
        configs = sweep_configs(deltas, args.trials, seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.cutoff < 0:
        raise UsageError(f"success_cutoff must be non-negative, got {args.cutoff}")
    if args.cutoff < SimConfig.stages:
        raise UsageError(f"success_cutoff must be >= stages, got {args.cutoff}")
    histograms, runtime, peak = _measured(
        lambda: [run_histogram(config) for config in configs]
    )
    _emit(_report_text([_report_row(h, args.cutoff) for h in histograms], args.format), args.out)

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
    values = histogram.values
    probs = histogram_ccdf(values, histogram.counts)
    floor_prob = 10.0 / config.trials
    theoretical = math.log1p(-config.delta) if config.delta < 1.0 else None
    try:
        fitted = tail_decay_fit(values, probs, floor_prob)
    except InsufficientTailError as exc:
        fitted = None
        _info(f"tail: no fit ({exc})")

    sidecar = {
        "delta": config.delta,
        "trials": config.trials,
        "seed": seed,
        "floor_prob": floor_prob,
        "fitted_slope": fitted,
        "theoretical_slope": theoretical,
    }
    _emit(csv_text("k,ccdf", "%d,%.6f\n", values.tolist(), probs.tolist()), args.out, sidecar)
    if fitted is not None:
        corrected = prefactor_corrected_slope(fitted, values[probs > floor_prob], config.delta)
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
    sidecar = None
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
    _emit(csv_text("k,count", "%d,%d\n", values.tolist(), counts.tolist()), args.out, sidecar)
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
