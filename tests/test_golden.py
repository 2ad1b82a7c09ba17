"""Byte identity of the sweep, tail and distribution reports with golden files.

The files under tests/golden/ were written by the CLI while it still built
every trial's sojourn matrix and reduced the totals with sorts (the commit
is named in CHANGES.md). The histogram path must reproduce them byte for
byte. The two delta = 1e-7 reports hold one row per distinct total (4 MB
together), so SHA256SUMS pins them instead of a stored copy. 150,000 trials
leave the last generation chunk partial.
"""

import hashlib
from pathlib import Path

import pytest

from convlab.cli import main
from convlab.simulate import CHUNK_ROWS

GOLDEN = Path(__file__).parent / "golden"
TRIALS = "150000"

CASES = [
    pytest.param(
        ["sweep", "--deltas", "0.1:0.9:0.1", "--trials", "200000", "--seed", seed],
        f"sweep-seed{seed}.csv",
        id=f"sweep-seed{seed}",
    )
    for seed in ("42", "7")
] + [
    pytest.param(
        [command, "--delta", delta, "--trials", TRIALS, "--seed", "42"],
        f"{command}-delta{delta}.csv",
        id=f"{command}-delta{delta}",
    )
    for command in ("tail", "distribution")
    for delta in ("0.1", "1e-07", "1.0")
]


def golden_sums() -> dict[str, str]:
    sums = {}
    for line in (GOLDEN / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    return sums


def test_golden_trial_count_leaves_a_partial_chunk():
    assert int(TRIALS) % CHUNK_ROWS != 0


@pytest.mark.parametrize(("argv", "name"), CASES)
def test_report_matches_golden_bytes(argv, name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    written = sorted(tmp_path.iterdir())
    expected = [out] if argv[0] == "sweep" else [out, tmp_path / f"{name}.meta.json"]
    assert written == sorted(expected)
    sums = golden_sums()
    for path in written:
        stored = GOLDEN / path.name
        if stored.exists():
            assert path.read_bytes() == stored.read_bytes(), path.name
        else:
            assert hashlib.sha256(path.read_bytes()).hexdigest() == sums[path.name]
