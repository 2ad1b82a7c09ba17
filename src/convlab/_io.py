"""Atomic text-file writes shared by the CLI and the library exporters."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it into place.

    Readers see either the old file or the whole new one, never a partial
    file; on any failure the temporary file is removed.
    """
    directory = path.parent if str(path.parent) else Path(".")
    descriptor, temp_name = tempfile.mkstemp(dir=directory, prefix=f".{path.name}.")
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_name)
        raise
