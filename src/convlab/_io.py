"""Atomic text-file writes for the CLI's reports and sidecars."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it into place.

    Readers see either the old file or the whole new one, never a partial
    file; on any failure the temporary file is removed.
    """
    temp_name = path.with_name(f".{path.name}.{os.urandom(4).hex()}")
    # mode 0o666 under O_EXCL: the umask sets the final permissions
    descriptor = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_name)
        raise
