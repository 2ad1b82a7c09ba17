"""Tests of the benchmark's own logic: span arithmetic, metric names, output
checks and failure accounting. Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import io
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run  # noqa: E402
from perfbench.layers import PER_LAYER_UNITS, TARGETS  # noqa: E402
from perfbench.tracer import Span, Tracer, covered_length, layer_self_times, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    CampaignSweep,
    CampaignTail,
    CrossvalStepwise,
    DriftMonitor,
    Inputs,
    TailHistogram,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SmallSweep(CampaignSweep):
    trials = 20_000


class SmallTail(TailHistogram):
    trials = 50_000


class SmallCampaignTail(CampaignTail):
    parts = (SmallSweep(), SmallTail())


class SmallMonitor(DriftMonitor):
    segments = ((0.5, 3_000), (0.2, 3_000), (0.5, 3_000))


class SmallCrossval(CrossvalStepwise):
    trials = 1_000


class TruncatingMonitor(SmallMonitor):
    """Writes a correct trace, then cuts it off mid-file."""

    def run(self, inputs):
        outcome = super().run(inputs)
        trace = inputs.outdir / "trace.csv"
        text = trace.read_text()
        trace.write_text(text[: len(text) // 2])
        return outcome


class DriftingSweep(SmallSweep):
    """Gives a different, still valid, report on every call."""

    calls = 0

    def commands(self, inputs):
        self.calls += 1
        (argv,) = super().commands(inputs)
        argv[argv.index("--seed") + 1] = str(inputs.seed + self.calls)
        return [argv]


def span(span_id, parent, start, end, name="stats.x"):
    return Span(span_id, parent, 1, name, start, end)


def make_inputs(workload, tmp_path, seed=7):
    inputs = Inputs(seed, tmp_path)
    inputs.outdir.mkdir(parents=True, exist_ok=True)
    workload.prepare(inputs)
    return inputs


# --- span arithmetic ---------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length((0.0, 10.0), []) == 0.0
    assert covered_length((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered_length((0.0, 10.0), [(-5.0, 2.0), (9.0, 12.0), (20.0, 30.0)]) == 3.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, 0, 0.0, 10.0, "cli.main"),
        span(2, 1, 1.0, 5.0, "simulate.run_sweep"),
        span(3, 2, 2.0, 4.0, "rng.generator"),
        span(4, 1, 6.0, 8.0, "stats.summarize"),
    ]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 2.0, 3: 2.0, 4: 2.0}
    assert layer_self_times(spans) == {"cli": 4.0, "simulate": 2.0, "rng": 2.0, "stats": 2.0}
    assert sum(own.values()) == spans[0].duration


def test_tracer_records_nesting_and_restores_originals():
    import convlab.cli
    import convlab.stats

    originals = {(t.module, t.attribute): getattr(sys.modules[t.module], t.attribute) for t in TARGETS
                 if t.module in sys.modules}
    tracer = Tracer()
    with tracer.installed(TARGETS):
        assert convlab.stats.nearest_rank_percentile is not originals[("convlab.stats", "nearest_rank_percentile")]
        convlab.cli.nearest_rank_percentile([3, 1, 2], 50)
    for (module, attribute), original in originals.items():
        assert getattr(sys.modules[module], attribute) is original
    spans, _ = tracer.take()
    assert [s.name for s in spans] == ["stats.nearest_rank_percentile"]
    assert spans[0].parent == 0 and spans[0].duration >= 0.0
    assert tracer.take() == ([], [])


# --- metric names ------------------------------------------------------------


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*end_to_end.values(), *per_layer.values()]:
        assert UNIT.fullmatch(unit), unit
    for metric in spec["end_to_end"]:
        assert 0.0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# --- output checks -----------------------------------------------------------


@pytest.mark.parametrize("workload", [SmallCampaignTail(), SmallMonitor(), SmallCrossval()],
                         ids=lambda w: w.name)
def test_correct_outputs_pass_their_checks(workload, tmp_path):
    inputs = make_inputs(workload, tmp_path)
    assert workload.run(inputs).ok
    problems, _ = workload.check(inputs)
    assert problems == []


def test_monitor_facts_count_events_and_actions(tmp_path):
    workload = SmallMonitor()
    inputs = make_inputs(workload, tmp_path)
    workload.run(inputs)
    _, facts = workload.check(inputs)
    assert facts["events"] == 9_000
    assert facts["actions"] >= 1


@pytest.mark.parametrize(
    "workload, victim, corrupt",
    [
        (SmallMonitor(), "trace.csv", lambda text: text[: len(text) // 2]),
        (SmallMonitor(), "trace.csv", lambda text: text.replace(",NoAction", ",Alert", 1)),
        (SmallSweep(), "sweep.csv", lambda text: text.replace("Marginal", "Practical", 1)),
        (SmallTail(), "hist.csv", lambda text: text.rsplit("\n", 2)[0] + "\n"),
        (SmallTail(), "tail.csv", lambda text: text.replace("k,ccdf\n", "k,ccdf\n3,1.000000\n")),
        (SmallCampaignTail(), "sweep.csv", lambda text: text.replace("Marginal", "Practical", 1)),
        (SmallCampaignTail(), "hist.csv", lambda text: text.rsplit("\n", 2)[0] + "\n"),
        (SmallCrossval(), "crossval.json", lambda text: text.replace('"trials": 1000', '"trials": 999', 1)),
    ],
)
def test_corrupted_outputs_fail_their_checks(workload, victim, corrupt, tmp_path):
    inputs = make_inputs(workload, tmp_path)
    workload.run(inputs)
    path = inputs.outdir / victim
    path.write_text(corrupt(path.read_text()))
    problems, _ = workload.check(inputs)
    assert problems


# --- failure accounting ------------------------------------------------------


def test_truncated_trace_raises_error_rate(tmp_path):
    good = run.Runner(SmallMonitor())
    inputs = make_inputs(SmallMonitor(), tmp_path / "good")
    good.iteration(inputs, traced=False, main_seed=True)
    assert (good.attempted, good.failed) == (1, 0)

    bad = run.Runner(TruncatingMonitor())
    bad_inputs = make_inputs(SmallMonitor(), tmp_path / "bad")
    bad.iteration(bad_inputs, traced=False, main_seed=True)
    assert (bad.attempted, bad.failed) == (1, 1)


def test_reports_that_change_under_one_seed_are_failures(tmp_path):
    runner = run.Runner(DriftingSweep())
    inputs = make_inputs(SmallSweep(), tmp_path)
    for _ in range(2):
        runner.iteration(inputs, traced=False, main_seed=True)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_traced_iteration_matches_untraced_and_yields_layer_metrics(tmp_path):
    runner = run.Runner(SmallSweep(), Tracer(), io.StringIO())
    inputs = make_inputs(SmallSweep(), tmp_path)
    runner.iteration(inputs, traced=False, main_seed=True)
    runner.iteration(inputs, traced=True, main_seed=True)
    assert runner.failed == 0          # the traced report is byte-identical
    (metrics,) = runner.layers
    assert set(metrics) == set(PER_LAYER_UNITS) - {"trace.overhead_s"}
    assert metrics["simulate.trials"] == 9 * SmallSweep.trials
    assert metrics["simulate.cells"] == 4 * metrics["simulate.trials"]
    assert metrics["stats.percentile_calls"] == 27
    assert metrics["regions.classify_calls"] == 9
    assert metrics["rng.generator_calls"] == 9
    assert metrics["simulate.overhead_s"] == pytest.approx(
        metrics["simulate.run_s"] - metrics["simulate.kernel_s"]
    )
    assert metrics["cli.bytes_written"] == (inputs.outdir / "sweep.csv").stat().st_size
    assert metrics["cli.self_s"] > 0.0
    assert runner.span_file.getvalue().count("\n") == metrics["trace.spans"]


def test_crossval_steps_are_exact_counts(tmp_path):
    workload = SmallCrossval()
    inputs = make_inputs(workload, tmp_path)
    workload.run(inputs)
    _, facts = workload.check(inputs)
    entries = json.loads((inputs.outdir / "crossval.json").read_text())
    assert facts["stepwise_steps"] == sum(round(e["stepwise_mean"] * e["trials"]) for e in entries)
    assert all(e["expected_steps"][0] == pytest.approx(4 / e["delta"]) for e in entries)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "campaign-tail", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
