"""Command-line behavior: formats, determinism, exit codes."""

import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import prefactor_corrected_slope
from convlab import cli
from convlab.calibrate import (
    TRACE_CSV_HEADER,
    ActionKind,
    CalibrationState,
    MonitorConfig,
    event_to_json,
    observe,
    synthesize_drift_stream,
    trace_entry_csv_row,
)
from convlab.cli import main, parse_deltas
from convlab.errors import ResourceLimitError
from convlab.regions import classify
from convlab.simulate import run_batch, sweep_configs


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# delta grid parsing
# ---------------------------------------------------------------------------


def test_parse_deltas_range_is_inclusive():
    assert parse_deltas("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    assert parse_deltas("0.1:0.9:0.1") == [round(0.1 * i, 1) for i in range(1, 10)]
    assert parse_deltas("0.5:0.5:0.1") == [0.5]
    # an end within 1e-9 of a step below the last value still includes it
    assert parse_deltas("0.1:0.8999999999:0.1") == [round(0.1 * i, 1) for i in range(1, 10)]
    assert len(parse_deltas("0.1:0.899999999:0.1")) == 8


def test_parse_deltas_comma_list():
    assert parse_deltas("0.2,0.5,0.8") == [0.2, 0.5, 0.8]
    assert parse_deltas(" 0.3 ") == [0.3]


@pytest.mark.parametrize(
    "text", ["0.1:0.9", "0.1:0.9:0.1:0.2", "0.5:0.1:0.1", "0.1:0.9:0", "", "a,b"]
)
def test_parse_deltas_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_deltas(text)


def test_parse_deltas_takes_values_as_given():
    assert parse_deltas("1e-13") == [1e-13]
    assert parse_deltas("1.23456789e-9,0.5") == [1.23456789e-9, 0.5]
    # decimal steps, and the end tolerance scales with the step
    assert parse_deltas("1e-13:3e-13:1e-13") == [1e-13, 2e-13, 3e-13]


@settings(max_examples=500, deadline=None)
@given(
    start=st.floats(0, 1),
    step=st.floats(1e-12, 1),
    steps=st.integers(0, 200),
    # the end sits this many steps past the grid value `steps`, so the
    # 1e-9-step tolerance falls just below, on or just above a grid value
    offset=st.sampled_from(["0", "1e-9", "-1e-9", "-1.000001e-9", "-0.999999e-9", "0.5"])
    | st.floats(-1, 1).map(repr),
)
# start + 100 * step exceeds the bound by 1.2e-38, less than 28 digits resolve
@example(start=1.175494351e-38, step=1e-12, steps=100, offset="-1e-9")
# the range 1e-40:9.9999999999e-11:1e-12, whose 101st value passes the bound by 1e-40
@example(start=1e-40, step=1e-12, steps=100, offset="-1e-9")
def test_parse_deltas_range_is_the_grid_up_to_the_tolerant_end(start, step, steps, offset):
    """In exact arithmetic on the reprs: the range is start + i * step, each
    rounded once, for i below its count; the last of them is at most
    end + step * 1e-9, and the next one would exceed it."""
    start_q, step_q = Fraction(repr(start)), Fraction(repr(step))
    end = float(start_q + (steps + Fraction(offset)) * step_q)
    bound = Fraction(repr(end)) + step_q / 10**9
    assume(bound >= start_q)
    values = parse_deltas(f"{start!r}:{end!r}:{step!r}")
    count = len(values)
    assert values == [float(start_q + i * step_q) for i in range(count)]
    assert start_q + (count - 1) * step_q <= bound < start_q + count * step_q


@pytest.mark.parametrize("text", ["0.1:inf:0.1", "nan:0.5:0.1", "0.1:0.5:nan"])
def test_parse_deltas_rejects_non_finite_range(text):
    with pytest.raises(ValueError, match="finite"):
        parse_deltas(text)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_exact_json_output(capsys):
    code, out, _ = run_cli(capsys, "exact", "--delta", "0.5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_total"] == pytest.approx(8.0)
    assert payload["expected_steps"] == pytest.approx([8.0, 6.0, 4.0, 2.0])
    assert payload["spectral_radius"] == pytest.approx(0.5)
    assert payload["closed_form_failures"] == pytest.approx(5.0)
    assert payload["tail_constant_norm"] == "inf"


def test_exact_degenerate_delta(capsys):
    code, out, _ = run_cli(capsys, "exact", "--delta", "1.0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_total"] == pytest.approx(4.0)
    assert payload["spectral_radius"] == 0.0


def test_exact_counting_convention_switch(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--delta", "0.5", "--counting-convention", "failures", "--json"
    )
    assert code == 0
    assert json.loads(out)["expected_total"] == pytest.approx(5.0)


def test_exact_text_output(capsys):
    code, out, _ = run_cli(capsys, "exact", "--delta", "0.5")
    assert code == 0
    assert "expected total (attempts) 8.000000" in out
    assert "spectral radius         0.500000" in out


def test_exact_rejects_invalid_delta(capsys):
    assert run_cli(capsys, "exact", "--delta", "0")[0] == 2
    assert run_cli(capsys, "exact", "--delta", "0.5", "--stages", "0")[0] == 2
    assert run_cli(capsys, "exact")[0] == 2  # --delta is required


@pytest.mark.parametrize("delta", ["1e-308", "5e-324"])
def test_exact_delta_too_small_to_absorb_is_usage_error(capsys, delta):
    code, out, err = run_cli(capsys, "exact", "--delta", delta)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "condition number" in err


def test_exact_keeps_the_low_bits_of_a_tiny_delta(capsys):
    # 1 - fl(1 - 1.5e-15) is 8.4% off delta: a diagonal of 1 - Q[i, i] reads 6.43e14
    # for the last stage
    code, out, _ = run_cli(capsys, "exact", "--delta", "1.5e-15", "--json")
    assert code == 0
    assert json.loads(out)["expected_steps"][0] == 2666666666666667.0


@pytest.mark.parametrize("delta", ["1e-15", "1e-300"])
def test_exact_answers_down_to_tiny_deltas(capsys, delta):
    code, out, _ = run_cli(capsys, "exact", "--delta", delta, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_total"] == 4 / float(delta)
    assert payload["expected_steps"][0] == pytest.approx(4 / float(delta), rel=2e-15)


def test_exact_out_of_memory_exits_4(capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, "pipeline_expected_steps", exhausted)
    code, out, err = run_cli(capsys, "exact", "--delta", "0.5", "--stages", "100000")
    assert code == 4
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 74.5 GiB\n"


def test_exact_answers_for_many_stages(capsys):
    stages = 100_000
    code, out, _ = run_cli(capsys, "exact", "--delta", "0.5", "--stages", str(stages), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_steps"] == [(stages - i) / 0.5 for i in range(stages)]
    assert payload["tail_constant"] == 2 * stages


def test_exact_above_the_stage_budget_exits_4_before_building(capsys, monkeypatch):
    def built(spec):
        raise AssertionError("the expected steps were computed")

    monkeypatch.setattr(cli, "pipeline_expected_steps", built)
    code, out, err = run_cli(capsys, "exact", "--delta", "0.5", "--stages", str(2**20 + 1))
    assert code == 4
    assert out == ""
    assert err == "error: exact needs 1048577 stages, budget is 1048576\n"


def run_module(*args):
    """`python -m convlab.cli` in a child process, with this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "convlab.cli", *args],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )


def test_module_entry_point_returns_the_exit_code():
    done = run_module("exact", "--delta", "0.5")
    assert done.returncode == 0
    assert "expected total (attempts) 8.000000\n" in done.stdout
    done = run_module("exact", "--delta", "0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: delta must be in (0, 1], got 0.0\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_report_shape_and_regions(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--trials", "500", "--seed", "3", "--out", str(out_path)
    )
    assert code == 0
    assert "sweep: 4500 trials" in err
    lines = out_path.read_text().splitlines()
    assert lines[0] == (
        "delta,theory,mean,std,conservative_factor,p99,success_rate_percent,"
        "efficiency,ci_width_99,region"
    )
    assert len(lines) == 10
    regions = [line.split(",")[-1] for line in lines[1:]]
    assert regions == ["Marginal"] * 2 + ["Practical"] * 4 + ["HighPerformance"] * 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[6] == "100.000000"  # success percentage at cutoff 1000
        assert float(cells[1]) == pytest.approx(4.0 / float(cells[0]), abs=1e-6)


def test_sweep_output_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    for path in (first, second):
        code, _, _ = run_cli(
            capsys,
            "sweep", "--deltas", "0.2,0.6", "--trials", "400",
            "--seed", "11", "--out", str(path),
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_resource_metrics_flag_is_refused(capsys):
    """Reports carry no wall-clock columns; the measurement is on stderr only."""
    args = ("sweep", "--deltas", "0.5,0.7", "--trials", "100", "--seed", "1")
    code, _, _ = run_cli(capsys, *args, "--resource-metrics")
    assert code == 2
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert "runtime_seconds" not in out and "throughput" not in out
    measured = re.search(
        r"sweep: 200 trials over 2 deltas generated in ([0-9.]+)s "
        r"\((\d+) trials/s\), peak memory (\d+) bytes",
        err,
    )
    assert measured is not None, err
    assert int(measured[2]) > 0
    assert int(measured[3]) > 0


def test_sweep_json_format(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--deltas", "0.5", "--trials", "200", "--seed", "1",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 1
    assert rows[0]["region"] == "Practical"
    assert "runtime_seconds" not in rows[0]  # reports carry no wall-clock fields
    assert rows[0]["theory"] == pytest.approx(8.0)


@pytest.mark.parametrize("delta", ["1e-13", "1.23456789e-9"])
def test_sweep_runs_small_deltas_unrounded(tmp_path, capsys, delta):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--deltas", delta, "--trials", "10", "--seed", "1",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out_path.read_text())[0]["delta"] == float(delta)


def test_sweep_degenerate_delta_row(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--deltas", "1.0", "--trials", "10", "--seed", "0",
        "--out", str(out_path),
    )
    assert code == 0
    cells = out_path.read_text().splitlines()[1].split(",")
    assert cells[2] == "4.000000"  # mean
    assert cells[3] == "0.000000"  # std


def test_sweep_writes_to_stdout_by_default(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--deltas", "0.5", "--trials", "50", "--seed", "1")
    assert code == 0
    assert out.startswith("delta,theory,")


def test_sweep_seed_resolution(tmp_path, capsys, monkeypatch):
    flagged = tmp_path / "flagged.csv"
    env_only = tmp_path / "env.csv"
    defaulted = tmp_path / "defaulted.csv"

    monkeypatch.delenv("CONVLAB_SEED", raising=False)
    run_cli(capsys, "sweep", "--deltas", "0.5", "--trials", "100", "--seed", "42",
            "--out", str(flagged))
    run_cli(capsys, "sweep", "--deltas", "0.5", "--trials", "100", "--out", str(defaulted))
    # no flag and no environment falls back to the documented default 42
    assert flagged.read_bytes() == defaulted.read_bytes()

    monkeypatch.setenv("CONVLAB_SEED", "42")
    run_cli(capsys, "sweep", "--deltas", "0.5", "--trials", "100", "--out", str(env_only))
    assert env_only.read_bytes() == flagged.read_bytes()

    # explicit flag beats the environment
    other = tmp_path / "other.csv"
    monkeypatch.setenv("CONVLAB_SEED", "7")
    run_cli(capsys, "sweep", "--deltas", "0.5", "--trials", "100", "--seed", "42",
            "--out", str(other))
    assert other.read_bytes() == flagged.read_bytes()


def test_sweep_rejects_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("CONVLAB_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "sweep", "--deltas", "0.5", "--trials", "10")
    assert code == 2
    assert "CONVLAB_SEED" in err


@pytest.mark.parametrize(
    "args",
    [
        ("sweep", "--trials", "0"),
        ("sweep", "--deltas", "1.5", "--trials", "10"),
        ("sweep", "--deltas", "0.5:0.1:0.1", "--trials", "10"),
    ],
)
def test_sweep_usage_errors(capsys, args):
    assert run_cli(capsys, *args)[0] == 2


@pytest.mark.parametrize(
    ("cutoff", "message"),
    [
        ("-1", "success_cutoff must be non-negative, got -1"),
        ("3", "success_cutoff must be >= stages, got 3"),  # four stages take four iterations
    ],
)
def test_sweep_refuses_a_cutoff_below_the_stage_count(tmp_path, capsys, cutoff, message):
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--deltas", "0.5", "--trials", "10", "--cutoff", cutoff, "--out", str(out)
    )
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_bad_delta_is_reported_before_a_bad_cutoff(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--deltas", "0.5,1.5", "--trials", "10", "--cutoff", "3"
    )
    assert (code, err) == (2, "error: delta must be in (0, 1], got 1.5\n")


def test_a_total_equal_to_the_cutoff_is_a_success(capsys):
    # at delta 1 every trial takes exactly four iterations, the smallest cutoff
    code, stdout, _ = run_cli(capsys, "sweep", "--deltas", "1", "--trials", "10", "--cutoff", "4")
    assert code == 0
    assert stdout.splitlines()[1].split(",")[6] == "100.000000"


@pytest.mark.parametrize("cutoff", [4, 22, 1000])
def test_success_rate_is_the_share_of_totals_within_the_cutoff(capsys, cutoff):
    deltas, trials, seed = [0.2, 0.5, 0.9], 3_000, 5
    code, stdout, _ = run_cli(
        capsys, "sweep", "--deltas", "0.2,0.5,0.9", "--trials", str(trials),
        "--seed", str(seed), "--cutoff", str(cutoff), "--format", "json",
    )
    assert code == 0
    rows = json.loads(stdout)
    for row, config in zip(rows, sweep_configs(deltas, trials, seed), strict=True):
        share = int((run_batch(config).totals <= cutoff).sum()) / trials * 100.0
        assert row["success_rate_percent"] == share


@pytest.mark.parametrize("out", ["-", "report.csv"])
def test_sweep_with_one_trial_is_usage_error(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(capsys, "sweep", "--trials", "1", "--out", out)
    assert code == 2
    assert stdout == ""
    assert err == "error: summary needs >= 2 trials, got 1\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_io_error_leaves_no_file(tmp_path, capsys):
    target = tmp_path / "missing" / "report.csv"
    code, _, err = run_cli(
        capsys, "sweep", "--deltas", "0.5", "--trials", "10", "--out", str(target)
    )
    assert code == 3
    assert "error:" in err
    assert not target.exists()


def test_sweep_resource_limit(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--deltas", "0.5", "--trials", str(2**27), "--seed", "0"
    )
    assert code == 4
    assert "error:" in err


def test_sweep_range_past_the_delta_budget_exits_4_before_building(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--deltas", "0.5:1:1e-12", "--trials", "10", "--out", str(out)
    )
    assert code == 4
    assert stdout == ""
    assert err == "error: range '0.5:1:1e-12' holds 500000000001 deltas, budget is 1048576\n"
    assert list(tmp_path.iterdir()) == []


def test_a_range_of_exactly_the_delta_budget_is_built(monkeypatch):
    monkeypatch.setattr(cli, "DELTA_RANGE_BUDGET", 3)
    assert parse_deltas("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    with pytest.raises(ResourceLimitError, match="holds 4 deltas, budget is 3"):
        parse_deltas("0.1:0.4:0.1")


@pytest.mark.parametrize(
    "text",
    [
        "0.1:0.9:0.1",
        "0.5:0.5:0.1",
        "0:1:0.3",
        "0.05:0.95:0.05",
        "1e-6:1e-5:1e-6",
        "0.2:0.1999999999:0.1",   # end below start, within the tolerance
        "0.1:0.2:0.1000000001",   # the last value passes end by a tolerance
        "0.1:0.2:0.1000000002",   # ... and here by more than one
        "0.1:0.8999999999:0.1",
        "0.001:1:0.001",
    ],
)
def test_the_delta_budget_counts_what_the_range_builds(text, monkeypatch):
    built = parse_deltas(text)
    monkeypatch.setattr(cli, "DELTA_RANGE_BUDGET", len(built))
    assert parse_deltas(text) == built
    monkeypatch.setattr(cli, "DELTA_RANGE_BUDGET", len(built) - 1)
    with pytest.raises(
        ResourceLimitError, match=f"holds {len(built)} deltas, budget is {len(built) - 1}$"
    ):
        parse_deltas(text)


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_measured_leaves_tracing_as_it_was_found(tracing, raises):
    def work():
        block = bytearray(2**20)
        if raises:
            raise MemoryError("out of memory")
        return [len(block)]

    if tracing:
        tracemalloc.start()
    try:
        if raises:
            with pytest.raises(MemoryError, match="out of memory"):
                cli._measured(work)
        else:
            result, runtime, peak = cli._measured(work)
            assert result == [2**20]
            assert runtime > 0.0
            assert peak >= 2**20
        assert tracemalloc.is_tracing() is tracing
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------


def test_tail_writes_ccdf_and_sidecar(tmp_path, capsys):
    out_path = tmp_path / "tail.csv"
    code, _, err = run_cli(
        capsys,
        "tail", "--delta", "0.5", "--trials", "20000", "--seed", "42",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "k,ccdf"
    assert lines[1].startswith("4,")
    sidecar = json.loads((tmp_path / "tail.csv.meta.json").read_text())
    assert sidecar["theoretical_slope"] == pytest.approx(math.log(0.5))
    assert sidecar["fitted_slope"] < 0.0
    assert "fitted slope" in err


def test_tail_stdout_mode(capsys):
    code, out, _ = run_cli(capsys, "tail", "--delta", "0.5", "--trials", "1000", "--seed", "1")
    assert code == 0
    assert out.splitlines()[0] == "k,ccdf"


def test_tail_handles_insufficient_tail(tmp_path, capsys):
    out_path = tmp_path / "tail.csv"
    code, _, err = run_cli(
        capsys,
        "tail", "--delta", "1.0", "--trials", "10", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0  # degenerate distribution: no fit, still a valid export
    assert json.loads((tmp_path / "tail.csv.meta.json").read_text())["fitted_slope"] is None
    assert "no fit" in err


def test_tail_prints_the_prefactor_corrected_slope(tmp_path, capsys):
    out_path = tmp_path / "tail.csv"
    code, _, err = run_cli(
        capsys,
        "tail", "--delta", "0.2", "--trials", "100000", "--seed", "3", "--out", str(out_path),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "tail.csv.meta.json").read_text())
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    kept = [int(k) for k, prob in rows if float(prob) > sidecar["floor_prob"]]
    fitted, printed, theoretical = map(float, re.fullmatch(
        r"tail: fitted slope (\S+), prefactor-corrected (\S+), theoretical (\S+)\n", err
    ).groups())
    assert (fitted, theoretical) == (round(sidecar["fitted_slope"], 6), round(math.log1p(-0.2), 6))
    reference = prefactor_corrected_slope(sidecar["fitted_slope"], kept, 0.2)
    assert printed == pytest.approx(reference, abs=1e-6)


@pytest.mark.parametrize(("delta", "line"), [
    ("0.1", "tail: fitted slope -0.066608, prefactor-corrected -0.106398, theoretical -0.105361"),
    ("0.5", "tail: fitted slope -0.463155, prefactor-corrected -0.699500, theoretical -0.693147"),
])
def test_tail_stderr_is_pinned_on_the_golden_inputs(tmp_path, capsys, delta, line):
    code, _, err = run_cli(
        capsys,
        "tail", "--delta", delta, "--trials", "150000", "--seed", "42",
        "--out", str(tmp_path / "tail.csv"),
    )
    assert (code, err) == (0, line + "\n")


@pytest.mark.parametrize("delta", [0.5, 0.9])
def test_tail_fit_matches_asymptotic_rate(tmp_path, capsys, delta):
    """The exported fit, with the four-stage polynomial factor divided out over
    the CSV rows above the floor, recovers ln(1-delta) within 10%."""
    out_path = tmp_path / "tail.csv"
    code, _, _ = run_cli(
        capsys,
        "tail", "--delta", str(delta), "--trials", "1000000", "--seed", "42",
        "--out", str(out_path),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "tail.csv.meta.json").read_text())
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    kept = [int(k) for k, prob in rows if float(prob) > sidecar["floor_prob"]]
    corrected = prefactor_corrected_slope(sidecar["fitted_slope"], kept, delta)
    target = math.log1p(-delta)
    assert abs(corrected - target) <= 0.10 * abs(target)


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------


def drift_file(tmp_path):
    events = synthesize_drift_stream([(0.7, 500), (0.2, 500)], seed=9001)
    path = tmp_path / "events.jsonl"
    path.write_text("".join(event_to_json(event) + "\n" for event in events))
    return path


def test_monitor_reports_drift(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, _, err = run_cli(
        capsys,
        "monitor", "--input", str(drift_file(tmp_path)), "--out", str(trace_path),
    )
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "ts,delta_hat,region,action"
    assert len(lines) == 1001
    actions = [line for line in lines[1:] if not line.endswith(",NoAction")]
    assert len(actions) == 1
    assert actions[0].startswith("573,")
    assert "1 actions" in err


@pytest.mark.parametrize(
    "flags",
    [
        [],
        # the drift-monitor benchmark's flags, which spell out the defaults
        ["--window", "100", "--min-samples", "30", "--trigger", "0.3", "--rearm", "0.35"],
    ],
    ids=["defaults", "benchmark-flags"],
)
def test_monitor_trace_equals_observe_at_the_cli_window(tmp_path, capsys, flags):
    """A 20k-event stream that drifts down and recovers; at seed 5 the monitor
    triggers, re-arms within the drift and triggers again. The trace CSV is
    observe()'s action per event."""
    events = synthesize_drift_stream([(0.5, 7000), (0.2, 6000), (0.5, 7000)], seed=5)
    path = tmp_path / "events.jsonl"
    path.write_text("".join(event_to_json(event) + "\n" for event in events))
    code, out, _ = run_cli(capsys, "monitor", "--input", str(path), *flags)
    assert code == 0
    state = CalibrationState(config=MonitorConfig())
    actions = [observe(state, event) for event in events]
    assert sum(action.kind is not ActionKind.NO_ACTION for action in actions) >= 2
    assert out == "".join(
        f"{row}\n" for row in [TRACE_CSV_HEADER, *map(trace_entry_csv_row, actions)]
    )


def test_monitor_reads_stdin(tmp_path, capsys, monkeypatch):
    content = drift_file(tmp_path).read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(content))
    code, out, _ = run_cli(capsys, "monitor", "--input", "-")
    assert code == 0
    assert out.splitlines()[0] == "ts,delta_hat,region,action"


def test_monitor_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run_cli(capsys, "monitor", "--input", str(path))
    assert code == 0
    assert out == "ts,delta_hat,region,action\n"


def test_monitor_malformed_line(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"trial": 0, "stage": 1, "attempt": 1, "success": true, "ts": 0}\n'
        "garbage\n"
    )
    code, _, err = run_cli(capsys, "monitor", "--input", str(path))
    assert code == 5
    assert "line 2" in err


def test_monitor_out_of_order_stream(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"trial": 0, "stage": 1, "attempt": 1, "success": true, "ts": 9}\n'
        '{"trial": 0, "stage": 1, "attempt": 2, "success": true, "ts": 3}\n'
    )
    code, _, err = run_cli(capsys, "monitor", "--input", str(path))
    assert code == 6
    assert "error:" in err


def test_monitor_rejects_inverted_thresholds(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "monitor", "--input", str(drift_file(tmp_path)),
        "--trigger", "0.5", "--rearm", "0.4",
    )
    assert code == 2


def test_monitor_flags_set_every_library_option(tmp_path, capsys, monkeypatch):
    """The library options are exactly what a user can set: the monitor's
    four flags fill every MonitorConfig field, and classify takes only delta."""
    passed = {}

    def recording_config(**kwargs):
        passed.update(kwargs)
        return MonitorConfig(**kwargs)

    monkeypatch.setattr(cli, "MonitorConfig", recording_config)
    code, _, _ = run_cli(
        capsys,
        "monitor", "--input", str(drift_file(tmp_path)),
        "--window", "50", "--min-samples", "10", "--trigger", "0.25", "--rearm", "0.4",
    )
    assert code == 0
    assert passed == {
        "window_size": 50, "min_samples": 10, "trigger_threshold": 0.25, "rearm_threshold": 0.4
    }
    assert {field.name for field in fields(MonitorConfig)} == set(passed)
    assert list(inspect.signature(classify).parameters) == ["delta"]


def test_monitor_missing_input_file(capsys):
    code, _, _ = run_cli(capsys, "monitor", "--input", "/no/such/file.jsonl")
    assert code == 3


EVENT = '{{"trial": 0, "stage": {}, "attempt": {}, "success": true, "ts": {}}}'


def monitor_file(tmp_path, capsys, text):
    path = tmp_path / "events.jsonl"
    path.write_text(text)
    return run_cli(capsys, "monitor", "--input", str(path))


def test_monitor_malformed_line_wins_over_earlier_disorder(tmp_path, capsys):
    text = "\n".join([EVENT.format(1, 1, 9), EVENT.format(1, 1, 3), "garbage"]) + "\n"
    code, out, err = monitor_file(tmp_path, capsys, text)
    assert (code, out) == (5, "")
    assert err.startswith("error: line 3: invalid JSON")


def test_monitor_line_numbers_count_blank_lines(tmp_path, capsys):
    text = "\n".join(["", EVENT.format(1, 1, 0), "  ", "", "{", EVENT.format(1, 1, 1)])
    code, _, err = monitor_file(tmp_path, capsys, text)
    assert code == 5
    assert err.startswith("error: line 5: invalid JSON")


@pytest.mark.parametrize("where", [2, 100_000])
@pytest.mark.parametrize(
    "bad, message",
    [
        ("garbage", "invalid JSON: Expecting value"),
        (EVENT.format(1, 1, 7)[:-1], "invalid JSON: Expecting ',' delimiter"),
    ],
    ids=["garbage", "cut-short"],
)
def test_monitor_names_the_one_bad_line_of_a_long_canonical_stream(
    tmp_path, capsys, where, bad, message
):
    lines = [EVENT.format(1, 1, stamp) for stamp in range(100_000)]
    lines[where - 1] = bad
    code, out, err = monitor_file(tmp_path, capsys, "\n".join(lines) + "\n")
    assert (code, out, err) == (5, "", f"error: line {where}: {message}\n")


@pytest.mark.parametrize(
    "bad, message",
    [
        (EVENT.format(0, 1, 1), "line 2: stage must be >= 1, got 0"),
        (EVENT.format(1, 0, 1), "line 2: attempt must be >= 1, got 0"),
        (EVENT.format(1, 1, -4), "line 2: timestamp must be >= 0, got -4"),
    ],
)
def test_monitor_canonical_range_violations(tmp_path, capsys, bad, message):
    code, _, err = monitor_file(tmp_path, capsys, EVENT.format(1, 1, 0) + "\n" + bad + "\n")
    assert (code, err) == (5, f"error: {message}\n")


def test_monitor_accepts_valid_non_canonical_lines(tmp_path, capsys):
    canonical = [EVENT.format(1, attempt, attempt) for attempt in range(1, 5)]
    variants = [
        '{"ts": 1, "success": true, "attempt": 1, "stage": 1, "trial": 0}',
        '{"trial": 0, "stage": 1, "attempt": 2, "success": true, "ts": 2, "note": "x"}',
        '  {"trial":0,"stage" : 1,  "attempt":3,"success":true,"ts":3}\t',
        '{"trial": -0, "stage": 1, "attempt": 4, "success": true, "ts": 4}',
    ]
    window = ["--window", "2", "--min-samples", "1"]
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(variants) + "\n")
    got = run_cli(capsys, "monitor", "--input", str(path), *window)
    path.write_text("\n".join(canonical) + "\n")
    expected = run_cli(capsys, "monitor", "--input", str(path), *window)
    assert got == expected
    assert got[0] == 0 and got[1].splitlines()[1] == "1,1.000000,HighPerformance,NoAction"


def test_monitor_echoes_timestamps_beyond_int64(tmp_path, capsys):
    stamps = [2**63 - 1, 2**63, 10**30]
    text = "".join(EVENT.format(1, 1, stamp) + "\n" for stamp in stamps)
    code, out, _ = monitor_file(tmp_path, capsys, text)
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == [str(s) for s in stamps]


def posix_stdin(data: bytes):
    """What sys.stdin is on POSIX: UTF-8 text with no newline translation."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


def monitor_both_sources(tmp_path, capsys, monkeypatch, data: bytes):
    path = tmp_path / "events.jsonl"
    path.write_bytes(data)
    from_file = run_cli(capsys, "monitor", "--input", str(path))
    monkeypatch.setattr("sys.stdin", posix_stdin(data))
    from_stdin = run_cli(capsys, "monitor", "--input", "-")
    assert from_file == from_stdin
    return from_file


def test_monitor_rejects_input_that_does_not_decode(tmp_path, capsys, monkeypatch):
    code, out, err = monitor_both_sources(tmp_path, capsys, monkeypatch, b"\xff\xfe{}\n")
    assert (code, out) == (5, "")
    assert err.startswith("error: ")


def test_monitor_reads_a_file_and_stdin_alike(tmp_path, capsys, monkeypatch):
    lines = [EVENT.format(1, 1, stamp).encode() for stamp in range(3)]
    lf = monitor_both_sources(tmp_path, capsys, monkeypatch, b"\n".join(lines) + b"\n")
    assert lf[0] == 0 and len(lf[1].splitlines()) == 4
    assert monitor_both_sources(tmp_path, capsys, monkeypatch, b"\r\n".join(lines) + b"\r\n") == lf
    assert monitor_both_sources(tmp_path, capsys, monkeypatch, b"\r".join(lines)) == lf

    # a form feed is no line break: two objects on one line
    form_feed = lines[0] + b"\x0c" + lines[1]
    code, _, err = monitor_both_sources(tmp_path, capsys, monkeypatch, form_feed)
    assert (code, err) == (5, "error: line 1: invalid JSON: Extra data\n")

    # U+2028 inside a JSON string stays in its line
    note = '{"trial": 0, "stage": 1, "attempt": 1, "success": true, "ts": 0, "note": "a\u2028b"}'
    code, out, _ = monitor_both_sources(tmp_path, capsys, monkeypatch, note.encode() + b"\n")
    assert code == 0 and out.splitlines()[1:] == ["0,,,NoAction"]


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------


def test_distribution_histogram(tmp_path, capsys):
    out_path = tmp_path / "hist.csv"
    code, _, _ = run_cli(
        capsys,
        "distribution", "--delta", "0.1", "--trials", "10000", "--seed", "42",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "k,count"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 10000
    sidecar = json.loads((tmp_path / "hist.csv.meta.json").read_text())
    # the four-iteration floor has probability delta^4 = 1e-4, so a 10k-trial
    # sample may or may not reach it
    assert 4 <= sidecar["min"] <= 5
    assert sidecar["max"] >= 97  # slow-convergence support reaches deep tails
    assert abs(sidecar["p99"] - 97) <= 2
    assert set(sidecar) >= {"delta", "trials", "seed", "p25", "p50", "p75", "p99"}


def test_distribution_degenerate_delta(tmp_path, capsys):
    out_path = tmp_path / "hist.csv"
    code, _, _ = run_cli(
        capsys,
        "distribution", "--delta", "1.0", "--trials", "50", "--seed", "0",
        "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == "k,count\n4,50\n"


@pytest.mark.parametrize("command", ["tail", "distribution"])
def test_delta_too_small_for_int64_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "report.csv"
    code, stdout, err = run_cli(
        capsys, command, "--delta", "1e-300", "--trials", "10", "--out", str(out)
    )
    assert code == 2
    assert "overflow int64" in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# top-level parser
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, "bogus")[0] == 2


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "exact" in out and "sweep" in out and "monitor" in out


@pytest.mark.parametrize(
    ("flag", "env"), [("-1", None), (None, "18446744073709551616"), (str(2**64), "1")]
)
def test_out_of_range_seed_is_usage_error(capsys, monkeypatch, flag, env):
    monkeypatch.delenv("CONVLAB_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("CONVLAB_SEED", env)
    args = ["tail", "--delta", "0.5", "--trials", "10"]
    if flag is not None:
        args += ["--seed", flag]
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "seed must be an unsigned 64-bit integer" in err
