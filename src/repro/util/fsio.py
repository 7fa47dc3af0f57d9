"""Atomic text-file writes (write-temp-then-``os.replace``).

A reader must only ever observe an absent or a *complete* file, never
a truncated one from an interrupted writer.  This helper applies the
temp-file + ``os.replace`` pattern to text payloads — JSON recipes
(:func:`repro.io.save_config`) and the trace sinks (:mod:`repro.obs`).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["write_text_atomic"]


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The temp file lives in the destination directory so the final
    ``os.replace`` never crosses a filesystem boundary; on any failure
    the temp file is removed and the destination is untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
