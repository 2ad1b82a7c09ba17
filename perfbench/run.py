"""Run one convlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; the program under test is
imported from ``src/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines above it give the same numbers for a reader.

A run: set up the inputs SETUP_REPEATS times in fresh interpreters (the
median is ``setup_s``), one warm-up iteration on a second seed derived
from ``--seed``, then timed iterations on the main seed until ``--seconds``
is spent. ``wall_s`` is the mean of the timed iterations (see
``mean_wall``). Every output is checked; every main-seed report must be
byte-identical to the first. With ``--trace 1`` untraced and traced
iterations alternate, and the traced ones record spans (see layers.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    sys.path.insert(0, str(ROOT))       # run as a script: make the package importable

from perfbench.layers import OBSERVERS, PER_LAYER_UNITS, TARGETS, layer_metrics  # noqa: E402
from perfbench.tracer import SPAN_CSV_HEADER, Tracer, write_spans  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_TIMED = 3               # timed iterations per run (and per kind with --trace 1), at least
PROBE_TIMEOUT_S = 120
REPORTED_RATE = re.compile(r"\((\d+) trials/s\)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "units_per_s": "units/s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args, start: float) -> int:
    """Child process: import convlab, write the inputs, print the time taken."""
    from perfbench.workloads import WORKLOADS, Inputs, derive_seed

    workload = WORKLOADS[args.workload]
    workload.prepare(Inputs(derive_seed(args.seed, workload.name), Path(args.setup_probe)))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def timed_setup(args, workdir: Path) -> float:
    """One fresh-interpreter set-up; returns its time as the child measured it."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(workdir),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed with exit code {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Runner:
    """Runs and checks iterations of one workload, keeping the tallies."""

    def __init__(self, workload, tracer=None, span_file=None):
        self.workload = workload
        self.tracer = tracer
        self.span_file = span_file
        self.attempted = 0
        self.failed = 0
        self.checked: dict[str, tuple[list[str], dict]] = {}
        self.reference: str | None = None
        self.walls = {False: [], True: []}
        self.layers: list[dict] = []
        self.reported_rates: list[float] = []

    def iteration(self, inputs, traced: bool, main_seed: bool) -> float:
        shutil.rmtree(inputs.outdir, ignore_errors=True)
        inputs.outdir.mkdir(parents=True)
        gc.collect()
        self.attempted += 1
        wall, outcome = 0.0, None
        try:
            if traced:
                self.tracer.run_id = self.attempted
            with self.tracer.installed(TARGETS, OBSERVERS) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                outcome = self.workload.run(inputs)
                wall = time.perf_counter() - start
            problems = [] if outcome.ok else [f"exit code not 0; stderr:\n{outcome.stderr}"]
            key = digest(outcome.outputs)
            if key not in self.checked:
                self.checked[key] = self.workload.check(inputs)
            found, facts = self.checked[key]
            problems += found
            if main_seed:
                self.reference = self.reference or key
                if key != self.reference:
                    problems.append("report differs from the first report of the same seed")
        except Exception:
            problems, facts = [traceback.format_exc()], {}
        if problems:
            self.failed += 1
            print(f"perfbench: iteration {self.attempted} failed:", *problems, sep="\n  ", file=sys.stderr)
        if not main_seed:
            return wall
        self.walls[traced].append(wall)
        match = None if problems else REPORTED_RATE.search(outcome.stderr)
        if match:
            self.reported_rates.append(float(match.group(1)))
        if traced:
            spans, observations = self.tracer.take()
            facts = dict(facts)
            if self.workload.via_cli and not problems:
                facts["bytes_written"] = sum(path.stat().st_size for path in outcome.outputs)
            self.layers.append(layer_metrics(spans, observations, facts))
            write_spans(spans, self.span_file)
        return wall


def mean_wall(walls: list[float]) -> float:
    """Mean of the iteration wall times: timed seconds per iteration.

    On shared cores the interpreter's speed drifts by up to 2x for stretches
    of seconds to minutes. Summarising the same ten-run sets as the minimum,
    lower quartile, mean of the faster half, median or mean, the mean
    repeated across runs best or close to best on every workload (see
    README.md, "Steadiness").
    """
    return statistics.fmean(walls)


def digest(paths: list[Path]) -> str:
    """SHA-256 over the names and bytes of an iteration's output files."""
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.name.encode() + b"\0")
        hasher.update(path.read_bytes() if path.exists() else b"<missing>")
    return hasher.hexdigest()


def bench(args) -> int:
    from perfbench.workloads import WORKLOADS, Inputs, derive_seed

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    main = Inputs(derive_seed(args.seed, workload.name), workdir / "main")
    second = Inputs(derive_seed(args.seed, workload.name + "/second"), workdir / "second")
    span_path = WORK / f"spans-{workload.name}-seed{args.seed}.csv.gz"
    span_file = None
    try:
        for inputs in (main, second):
            inputs.workdir.mkdir(parents=True)
        setups = [timed_setup(args, main.workdir) for _ in range(SETUP_REPEATS)]
        workload.prepare(second)

        tracer = None
        if args.trace:
            tracer = Tracer()
            span_file = gzip.open(span_path, "wt", compresslevel=1)
            span_file.write(SPAN_CSV_HEADER)
        runner = Runner(workload, tracer, span_file)
        runner.iteration(second, traced=False, main_seed=False)    # warm-up, second seed
        start = time.perf_counter()
        traced = False
        while True:
            wall = runner.iteration(main, traced=traced, main_seed=True)
            counts = [len(walls) for walls in runner.walls.values()]
            enough = min(counts if args.trace else counts[:1]) >= MIN_TIMED
            if enough and time.perf_counter() - start + wall > args.seconds:
                break
            traced = bool(args.trace) and not traced
    finally:
        if span_file is not None:
            span_file.close()
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = runner.walls[False]
    header = (
        f"perfbench {workload.name} seed={args.seed}: closed loop, 1 client; "
        f"{len(untraced) + len(runner.walls[True])} timed iterations after 1 warm-up on a second seed; "
        f"{workload.units()} {workload.unit}s per iteration"
    )
    print(header)
    wall_s = mean_wall(untraced)
    if args.trace:
        metrics = {
            name: statistics.median(layer[name] for layer in runner.layers)
            for name in PER_LAYER_UNITS
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = mean_wall(runner.walls[True]) - wall_s
        units = PER_LAYER_UNITS
        print(f"  medians over {len(runner.layers)} traced iterations; spans in {span_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "units_per_s": workload.units() / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"  wall_s: mean of {len(untraced)}, median {statistics.median(untraced):.4f} s;"
              f" each: {' '.join(f'{wall:.4f}' for wall in untraced)}")
        print(f"  setup_s: median of {len(setups)} set-ups in fresh interpreters")
        print(f"  units_per_s counts {workload.unit}s")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':32s} {runner.failed / runner.attempted:>16.6g} ratio"
          f"  ({runner.failed} failed of {runner.attempted} attempted)")
    if runner.reported_rates:
        print(f"  {'simulate.reported_trials_per_s':32s} {statistics.median(runner.reported_rates):>16.6g} 1/s"
              "  (the generation-only rate the sweep prints)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "convlab" / "__init__.py").is_file():
        print(f"perfbench: no convlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import convlab

    if not Path(convlab.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: convlab was imported from {convlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args, start)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
