"""Small file helpers shared by the CSV/VTK writers."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path: str, text: str | bytes) -> None:
    """Write via temp file + rename so readers never see partial output; a
    ``str`` is written as UTF-8 with no newline translation."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode() if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt17(x: float) -> str:
    """17-significant-digit decimal form: lossless for binary doubles."""
    return format(float(x), ".17g")
