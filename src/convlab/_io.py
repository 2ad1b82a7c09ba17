"""CSV text and atomic text-file writes for the CLI's reports and sidecars."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


def write_text_atomic(files: dict[Path, str]) -> None:
    """Write each text to a temporary file beside its path, then rename each
    into place, in order.

    Every temporary file is written before the first rename. Readers see the
    old file or the whole new one, never a partial file. If a rename fails
    after another succeeded, the old files at the paths not yet renamed are
    removed, so none is left beside a new file it does not describe. On any
    failure the temporary files not yet renamed are removed.
    """
    temps: list[tuple[Path, Path]] = []
    renamed = 0
    try:
        for path, text in files.items():
            temp_name = path.with_name(f".{path.name}.{os.urandom(4).hex()}")
            # mode 0o666 under O_EXCL: the umask sets the final permissions
            descriptor = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append((temp_name, path))
            with os.fdopen(descriptor, "w") as handle:
                handle.write(text)
        for temp_name, path in temps:
            os.replace(temp_name, path)
            renamed += 1
    except BaseException:
        for temp_name, path in temps[renamed:]:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
            if renamed:
                with contextlib.suppress(OSError):
                    os.unlink(path)
        raise


def csv_text(header: str, row: str, first: list, second: list) -> str:
    """`header`, then `row % (first[i], second[i])` for each i: one %-format
    over the interleaved columns, which beats one f-string per row."""
    cells: list = [None] * (2 * len(first))
    cells[0::2], cells[1::2] = first, second
    return f"{header}\n" + (row * len(first)) % tuple(cells)
