"""The one boundary to user-named files: ``read_input_text`` reads them and
``atomic_write_text`` writes them (atomically, so no partial artifacts), and
any failure is a ``UserInputError`` (exit 1) naming the path."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

from .errors import UserInputError


def _reason(exc: Exception) -> str:
    return getattr(exc, "strerror", None) or str(exc)


def read_input_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of ``path``, called ``what`` in the error if it fails."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UserInputError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise UserInputError(f"{what} {path} is not UTF-8 text (byte {exc.start})") from None
    except (OSError, ValueError) as exc:    # ValueError: a NUL byte in the path
        raise UserInputError(f"cannot read {what} {path}: {_reason(exc)}") from None


def read_id_list(path: str | Path, what: str) -> list[str]:
    """Structure ids, one per line; blank lines and '#' comment lines skipped."""
    return [line.strip() for line in read_input_text(path, what).splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise UserInputError(f"cannot create directory {path.parent}: {_reason(exc)}") from None
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, (OSError, ValueError)):
            raise UserInputError(f"cannot write {path}: {_reason(exc)}") from None
        raise
