"""Which convlab functions the traced run wraps, and the per-layer metrics.

Each target is the name under which the *calling* module imported the
function (``convlab.cli.run_sweep``, ``convlab.harness.generator``, ...), so
the wrapper sees exactly the calls the program makes. Span names are
``<layer>.<function>``; the layer is the convlab module that defines the
function. Later changes claim their gains against these names.
"""

from __future__ import annotations

from collections import defaultdict

from .tracer import Span, Target, layer_self_times

LAYERS = ("cli", "simulate", "stats", "regions", "calibrate", "harness", "rng", "markov")

TARGETS = (
    Target("convlab.cli", "main", "cli.main"),
    Target("convlab.cli", "run_sweep", "simulate.run_sweep"),
    Target("convlab.cli", "run_batch", "simulate.run_batch"),
    Target("convlab.simulate", "run_batch", "simulate.run_batch"),
    Target("convlab.harness", "run_batch", "simulate.run_batch"),
    Target("convlab.cli", "summarize", "stats.summarize"),
    Target("convlab.cli", "ccdf", "stats.ccdf"),
    Target("convlab.cli", "tail_decay_fit", "stats.tail_decay_fit"),
    Target("convlab.cli", "nearest_rank_percentile", "stats.nearest_rank_percentile"),
    Target("convlab.stats", "nearest_rank_percentile", "stats.nearest_rank_percentile"),
    Target("convlab.cli", "classify", "regions.classify"),
    Target("convlab.calibrate", "classify", "regions.classify"),
    Target("convlab.cli", "read_events_jsonl", "calibrate.read_events_jsonl"),
    Target("convlab.cli", "replay", "calibrate.replay"),
    Target("convlab.cli", "trace_entry_csv_row", "calibrate.trace_entry_csv_row"),
    Target("convlab.harness", "cross_validate", "harness.cross_validate"),
    Target("convlab.simulate", "generator", "rng.generator"),
    Target("convlab.simulate", "child_seed", "rng.child_seed"),
    Target("convlab.harness", "generator", "rng.generator"),
    Target("convlab.harness", "child_seed", "rng.child_seed"),
    Target("convlab.markov", "build_pipeline_chain", "markov.build_pipeline_chain"),
    Target("convlab.markov", "decompose", "markov.decompose"),
    Target("convlab.markov", "analyze", "markov.analyze"),
)


def _observe_batch(batch) -> dict:
    config = batch.config
    cells = config.trials * config.stages
    # computed, not measured: uniform draws and sojourns (8 B per cell),
    # totals (8 B per trial) and success flags (1 B per trial)
    return {
        "trials": config.trials,
        "cells": cells,
        "bytes": 16 * cells + 9 * config.trials,
        "kernel_s": batch.runtime_seconds,
        "peak_bytes": batch.peak_memory_bytes,
    }


OBSERVERS = {"simulate.run_batch": _observe_batch}

# Per-layer metric names and units, in report order.
PER_LAYER_UNITS = {
    "simulate.run_s": "s",
    "simulate.kernel_s": "s",
    "simulate.overhead_s": "s",
    "simulate.trials": "count",
    "simulate.cells": "count",
    "simulate.bytes_computed": "B",
    "simulate.peak_traced_mb": "MiB",
    "simulate.reported_trials_per_s": "1/s",
    "stats.summarize_s": "s",
    "stats.ccdf_s": "s",
    "stats.fit_s": "s",
    "stats.percentile_s": "s",
    "stats.percentile_calls": "count",
    "regions.classify_s": "s",
    "regions.classify_calls": "count",
    "calibrate.parse_s": "s",
    "calibrate.replay_s": "s",
    "calibrate.format_s": "s",
    "calibrate.events": "count",
    "calibrate.actions": "count",
    "calibrate.events_per_s": "1/s",
    "harness.crossval_s": "s",
    "harness.stepwise_steps": "count",
    "harness.steps_per_s": "1/s",
    "rng.generator_s": "s",
    "rng.generator_calls": "count",
    "rng.child_seed_s": "s",
    "rng.child_seed_calls": "count",
    "markov.analyze_s": "s",
    "markov.analyze_calls": "count",
    "cli.bytes_written": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def layer_metrics(spans: list[Span], observations: list[tuple], facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``facts`` holds counts read from the iteration's checked outputs:
    ``events``, ``actions``, ``stepwise_steps`` and ``bytes_written``.
    ``trace.overhead_s`` is added by the caller, which has the untraced runs.
    """
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    by_id = {span.span_id: span for span in spans}
    simulate_run = 0.0
    for span in spans:
        seconds[span.name] += span.duration
        calls[span.name] += 1
        parent = by_id.get(span.parent)
        if span.layer == "simulate" and (parent is None or parent.layer != "simulate"):
            simulate_run += span.duration

    batches = [values for _, name, values in observations if name == "simulate.run_batch"]
    kernel = sum(values["kernel_s"] for values in batches)
    trials = sum(values["trials"] for values in batches)
    parse = seconds["calibrate.read_events_jsonl"]
    replay = seconds["calibrate.replay"]
    fmt = seconds["calibrate.trace_entry_csv_row"]
    crossval = seconds["harness.cross_validate"]
    self_by_layer = layer_self_times(spans)

    metrics = {
        "simulate.run_s": simulate_run,
        "simulate.kernel_s": kernel,
        "simulate.overhead_s": simulate_run - kernel,
        "simulate.trials": trials,
        "simulate.cells": sum(values["cells"] for values in batches),
        "simulate.bytes_computed": sum(values["bytes"] for values in batches),
        "simulate.peak_traced_mb": max((values["peak_bytes"] for values in batches), default=0)
        / 2**20,
        "simulate.reported_trials_per_s": _rate(trials, kernel),
        "stats.summarize_s": seconds["stats.summarize"],
        "stats.ccdf_s": seconds["stats.ccdf"],
        "stats.fit_s": seconds["stats.tail_decay_fit"],
        "stats.percentile_s": seconds["stats.nearest_rank_percentile"],
        "stats.percentile_calls": calls["stats.nearest_rank_percentile"],
        "regions.classify_s": seconds["regions.classify"],
        "regions.classify_calls": calls["regions.classify"],
        "calibrate.parse_s": parse,
        "calibrate.replay_s": replay,
        "calibrate.format_s": fmt,
        "calibrate.events": facts.get("events", 0),
        "calibrate.actions": facts.get("actions", 0),
        "calibrate.events_per_s": _rate(facts.get("events", 0), parse + replay + fmt),
        "harness.crossval_s": crossval,
        "harness.stepwise_steps": facts.get("stepwise_steps", 0),
        "harness.steps_per_s": _rate(facts.get("stepwise_steps", 0), crossval),
        "rng.generator_s": seconds["rng.generator"],
        "rng.generator_calls": calls["rng.generator"],
        "rng.child_seed_s": seconds["rng.child_seed"],
        "rng.child_seed_calls": calls["rng.child_seed"],
        "markov.analyze_s": seconds["markov.analyze"],
        "markov.analyze_calls": calls["markov.analyze"],
        "cli.bytes_written": facts.get("bytes_written", 0),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    return metrics
