"""The CLI writes `--out` files atomically: a failed write leaves the old files
whole and exits 3 with one error line, and every written file gets the
permissions the umask allows."""

import os
import stat

import pytest

from convlab.calibrate import event_to_json, synthesize_drift_stream
from convlab.cli import main


def _sweep(directory):
    return ["sweep", "--deltas", "0.5", "--trials", "10"]


def _tail(directory):
    return ["tail", "--delta", "0.5", "--trials", "2000"]


def _distribution(directory):
    return ["distribution", "--delta", "0.5", "--trials", "10"]


def _monitor(directory):
    stream = directory / "events.jsonl"
    events = synthesize_drift_stream([(0.7, 60), (0.2, 60)], seed=9)
    stream.write_text("".join(event_to_json(event) + "\n" for event in events))
    return ["monitor", "--input", str(stream), "--window", "20", "--min-samples", "10"]


# (arguments before --out, given the directory for inputs; the suffixes of
# the files written beside the --out file)
WRITERS = [
    pytest.param(_sweep, [], id="sweep"),
    pytest.param(_tail, [".meta.json"], id="tail"),
    pytest.param(_distribution, [".meta.json"], id="distribution"),
    pytest.param(_monitor, [], id="monitor"),
]


@pytest.mark.parametrize("arguments, sidecars", WRITERS)
def test_failed_rename_keeps_old_file_and_leaves_no_temp(
    tmp_path, monkeypatch, capsys, arguments, sidecars
):
    argv = arguments(tmp_path)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    outputs = ["report.out"] + [f"report.out{suffix}" for suffix in sidecars]
    for name in outputs:
        (tmp_path / name).write_bytes(b"previous contents\n")

    def fail_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail_replace)
    assert main([*argv, "--out", str(tmp_path / "report.out")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rename refused\n"
    for name in outputs:
        assert (tmp_path / name).read_bytes() == b"previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + outputs)


WITH_SIDECAR = [param for param in WRITERS if param.values[1]]


@pytest.mark.parametrize("arguments, sidecars", WITH_SIDECAR)
def test_a_failed_sidecar_rename_leaves_no_old_sidecar(
    tmp_path, monkeypatch, capsys, arguments, sidecars
):
    """Both temporary files exist before the first rename; when only the
    sidecar's rename fails, the old sidecar goes, so none describes another run."""
    argv = arguments(tmp_path)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    for name in ("report.out", "report.out.meta.json"):
        (tmp_path / name).write_bytes(b"previous contents\n")
    real_replace = os.replace
    temps_at_first_rename = []

    def refuse_second_replace(src, dst):
        if temps_at_first_rename:
            raise OSError("rename refused")
        temps_at_first_rename.extend(p.name for p in tmp_path.iterdir() if p.name[0] == ".")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_second_replace)
    assert main([*argv, "--out", str(tmp_path / "report.out")]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: rename refused\n")
    assert len(temps_at_first_rename) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + ["report.out"])

    monkeypatch.setattr(os, "replace", real_replace)
    assert main([*argv, "--out", str(tmp_path / "fresh.out")]) == 0
    assert (tmp_path / "report.out").read_bytes() == (tmp_path / "fresh.out").read_bytes()


@pytest.mark.parametrize("arguments, sidecars", WITH_SIDECAR)
def test_a_failed_sidecar_write_keeps_both_old_files(
    tmp_path, monkeypatch, capsys, arguments, sidecars
):
    argv = arguments(tmp_path)
    inputs = sorted(p.name for p in tmp_path.iterdir())
    outputs = ["report.out", "report.out.meta.json"]
    for name in outputs:
        (tmp_path / name).write_bytes(b"previous contents\n")
    real_open = os.open
    opened = []

    def refuse_second_open(path, flags, mode=0o777):
        opened.append(path)
        if len(opened) == 2:
            raise OSError("disk full")
        return real_open(path, flags, mode)

    monkeypatch.setattr(os, "open", refuse_second_open)
    assert main([*argv, "--out", str(tmp_path / "report.out")]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: disk full\n")
    for name in outputs:
        assert (tmp_path / name).read_bytes() == b"previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + outputs)


@pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
def umask(request):
    previous = os.umask(request.param)
    yield request.param
    os.umask(previous)


@pytest.mark.parametrize("arguments, sidecars", WRITERS)
def test_written_files_follow_the_umask(tmp_path, umask, arguments, sidecars):
    argv = arguments(tmp_path)
    inputs = {p.name for p in tmp_path.iterdir()}
    assert main([*argv, "--out", str(tmp_path / "report.out")]) == 0
    modes = {
        p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir() if p.name not in inputs
    }
    assert set(modes) == {"report.out"} | {f"report.out{suffix}" for suffix in sidecars}
    assert set(modes.values()) == {0o666 & ~umask}
