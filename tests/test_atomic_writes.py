"""Library exporters write atomically: a failed write leaves the old file whole,
and every written file gets the permissions the umask allows."""

import os
import stat

import pytest

from convlab.calibrate import StageEvent, write_events_jsonl
from convlab.cli import main
from convlab.harness import ConstantOracle, run_to_absorption, write_traces_jsonl
from convlab.simulate import SimConfig, export_batch_csv, run_batch


def _events(path):
    write_events_jsonl([StageEvent(0, 1, 1, True, 0)], path)


def _traces(path):
    write_traces_jsonl([run_to_absorption(ConstantOracle(True))], path)


def _batch(path):
    export_batch_csv(run_batch(SimConfig(delta=0.5, trials=5, seed=1)), path)


@pytest.mark.parametrize("write", [_events, _traces, _batch])
def test_failed_rename_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch, write):
    target = tmp_path / "export.out"
    target.write_bytes(b"previous contents\n")

    def fail_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail_replace)
    with pytest.raises(OSError, match="rename refused"):
        write(target)
    assert target.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["export.out"]



def _sweep_report(path):
    assert main(["sweep", "--deltas", "0.5", "--trials", "10", "--out", str(path)]) == 0


@pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
def umask(request):
    previous = os.umask(request.param)
    yield request.param
    os.umask(previous)


@pytest.mark.parametrize("write", [_events, _traces, _batch, _sweep_report])
def test_written_files_follow_the_umask(tmp_path, umask, write):
    write(tmp_path / "export.out")
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes and set(modes.values()) == {0o666 & ~umask}
