"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open `<path>.tmp` for writing and rename it over `path` once the block exits.

    If the block raises, the temp file is removed and `path` keeps what it
    held, so no torn output ever bears its final name. Text mode writes
    UTF-8 with newlines untranslated, as `csv` needs, whatever the locale.
    """
    tmp = f"{path}.tmp"
    try:
        text = {} if "b" in mode else {"newline": "", "encoding": "utf-8"}
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
