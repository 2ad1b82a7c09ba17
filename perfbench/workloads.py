"""The three workloads: their inputs, the timed call, and the output checks.

Each workload is one closed loop with one caller: the next iteration starts
only after the previous one has written its report. The program receives
only the generated inputs (argv, an event file); the benchmark seed never
reaches it directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

from convlab import calibrate, cli, harness, markov

from . import checks


def derive_seed(seed: int, label: str) -> int:
    """A 64-bit program seed derived from the benchmark seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def write_atomic(path: Path, text: str) -> None:
    temp = path.with_name(f".{path.name}.tmp")
    temp.write_text(text)
    os.replace(temp, path)


@dataclasses.dataclass(frozen=True)
class Inputs:
    """What one iteration is given: the program seed and where files live."""

    seed: int
    workdir: Path

    @property
    def outdir(self) -> Path:
        return self.workdir / "out"


@dataclasses.dataclass
class Outcome:
    """Result of one timed call: success, captured stderr, output files."""

    ok: bool
    stderr: str
    outputs: list[Path]


class Workload:
    """A workload whose timed call runs ``convlab.cli.main`` once per command."""

    name = ""
    unit = ""
    via_cli = True       # reports are written by the CLI (counted as cli.bytes_written)

    def prepare(self, inputs: Inputs) -> None:
        """Write input files; this is the timed part of set-up."""

    def commands(self, inputs: Inputs) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, inputs: Inputs) -> list[Path]:
        raise NotImplementedError

    def units(self) -> int:
        raise NotImplementedError

    def check(self, inputs: Inputs) -> tuple[list[str], dict]:
        raise NotImplementedError

    def run(self, inputs: Inputs) -> Outcome:
        err = io.StringIO()
        ok = True
        with contextlib.redirect_stderr(err):
            for argv in self.commands(inputs):
                if cli.main(argv) != 0:
                    ok = False
                    break
        return Outcome(ok, err.getvalue(), self.outputs(inputs))


class CampaignSweep(Workload):
    name = "campaign-sweep"
    unit = "trial"
    deltas = [round(0.1 * i, 1) for i in range(1, 10)]
    trials = 1_000_000

    def commands(self, inputs):
        return [[
            "sweep", "--deltas", "0.1:0.9:0.1", "--trials", str(self.trials),
            "--seed", str(inputs.seed), "--out", str(inputs.outdir / "sweep.csv"),
        ]]

    def outputs(self, inputs):
        return [inputs.outdir / "sweep.csv"]

    def units(self):
        return self.trials * len(self.deltas)

    def check(self, inputs):
        return checks.check_sweep(inputs.outdir / "sweep.csv", self.deltas, self.trials)


class TailHistogram(Workload):
    name = "tail-histogram"
    unit = "trial"
    delta = 0.1
    trials = 8_000_000

    def commands(self, inputs):
        common = ["--delta", str(self.delta), "--trials", str(self.trials), "--seed", str(inputs.seed)]
        return [
            ["tail", *common, "--out", str(inputs.outdir / "tail.csv")],
            ["distribution", *common, "--out", str(inputs.outdir / "hist.csv")],
        ]

    def outputs(self, inputs):
        names = ("tail.csv", "tail.csv.meta.json", "hist.csv", "hist.csv.meta.json")
        return [inputs.outdir / name for name in names]

    def units(self):
        return 2 * self.trials       # both commands simulate the batch

    def check(self, inputs):
        tail, tail_meta, hist, hist_meta = self.outputs(inputs)
        problems, _ = checks.check_tail(tail, tail_meta, self.delta, self.trials, inputs.seed)
        more, _ = checks.check_distribution(
            hist, hist_meta, self.delta, self.trials, inputs.seed, tail
        )
        return problems + more, {}


class CampaignTail(Workload):
    """The reference campaign, then tail and distribution on one large batch.

    Both halves exercise the simulator and the reducers with numpy and are
    steady on shared cores. Running them as one workload keeps the number
    of workloads at three, so that every run can be long enough for the
    interpreter-bound ones (see README.md, "Steadiness").
    """

    name = "campaign-tail"
    unit = "trial"
    parts = (CampaignSweep(), TailHistogram())

    def commands(self, inputs):
        return [argv for part in self.parts for argv in part.commands(inputs)]

    def outputs(self, inputs):
        return [path for part in self.parts for path in part.outputs(inputs)]

    def units(self):
        return sum(part.units() for part in self.parts)

    def check(self, inputs):
        return [problem for part in self.parts for problem in part.check(inputs)[0]], {}


class DriftMonitor(Workload):
    name = "drift-monitor"
    unit = "event"
    segments = ((0.5, 70_000), (0.2, 60_000), (0.5, 70_000))
    window, min_samples, trigger, rearm = 100, 30, 0.3, 0.35

    def events_path(self, inputs):
        return inputs.workdir / "events.jsonl"

    def prepare(self, inputs):
        events = calibrate.synthesize_drift_stream(self.segments, inputs.seed)
        text = "".join(calibrate.event_to_json(event) + "\n" for event in events)
        write_atomic(self.events_path(inputs), text)

    def commands(self, inputs):
        return [[
            "monitor", "--input", str(self.events_path(inputs)),
            "--window", str(self.window), "--min-samples", str(self.min_samples),
            "--trigger", str(self.trigger), "--rearm", str(self.rearm),
            "--out", str(inputs.outdir / "trace.csv"),
        ]]

    def outputs(self, inputs):
        return [inputs.outdir / "trace.csv"]

    def units(self):
        return sum(count for _, count in self.segments)

    def check(self, inputs):
        return checks.check_monitor(
            inputs.outdir / "trace.csv", self.events_path(inputs),
            self.window, self.min_samples, self.trigger, self.rearm,
        )


class CrossvalStepwise(Workload):
    name = "crossval-stepwise"
    unit = "stepwise trial"
    via_cli = False
    deltas = [0.1, 0.5, 0.9]
    trials = 10_000

    def outputs(self, inputs):
        return [inputs.outdir / "crossval.json"]

    def units(self):
        return self.trials * len(self.deltas)

    def run(self, inputs):
        entries = []
        for index, delta in enumerate(self.deltas):
            report = harness.cross_validate(delta, self.trials, derive_seed(inputs.seed, str(index)))
            analysis = markov.analyze(
                markov.decompose(markov.build_pipeline_chain(markov.PipelineSpec(delta=delta)))
            )
            entries.append(
                {**dataclasses.asdict(report), "expected_steps": analysis.expected_steps.tolist()}
            )
        write_atomic(inputs.outdir / "crossval.json", json.dumps(entries, indent=2) + "\n")
        return Outcome(True, "", self.outputs(inputs))

    def check(self, inputs):
        return checks.check_crossval(inputs.outdir / "crossval.json", self.deltas, self.trials)


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignTail(), DriftMonitor(), CrossvalStepwise())
}

