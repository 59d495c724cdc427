"""Atomic artifact writes: a reader sees the old file or the new one, never part of one."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, then ``os.replace`` it into place, creating parent directories.
    Line ends are written as ``text`` has them, on every platform.

    If the process dies mid-write, only the temporary file is incomplete; the
    artifact at ``path`` is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
