"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open `<path>.tmp` for writing and rename it over `path` once the block exits.

    If the block raises, the temp file is removed and `path` keeps what it
    held, so no torn output ever bears its final name. Text mode writes
    newlines untranslated, as `csv` needs.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
