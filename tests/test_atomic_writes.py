"""Library exporters write atomically: a failed write leaves the old file whole."""

import os

import pytest

from convlab.calibrate import StageEvent, write_events_jsonl
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

