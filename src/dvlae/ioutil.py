"""The one boundary to user-named files: ``read_input_text`` reads them,
``check_output_dir`` vets an output directory before the work starts, and
``atomic_write_text`` writes them (atomically, so no partial artifacts); any
failure is a ``UserInputError`` (exit 1) naming the path."""

from __future__ import annotations

import contextlib
import os
import stat
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


def is_one_line(text: str) -> bool:
    """Whether ``text`` holds none of the characters that ``str.splitlines``,
    the line split of every reader here, breaks a line on."""
    return len((text + ".").splitlines()) == 1


def read_id_list(path: str | Path, what: str) -> list[str]:
    """Structure ids, one per line; blank lines and '#' comment lines skipped."""
    return [line.strip() for line in read_input_text(path, what).splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def check_output_dir(path: str | Path) -> None:
    """Fail now, before any work, if ``atomic_write_text`` could not later
    create or write into the directory ``path``: its nearest existing
    ancestor (or itself) must be a writable directory.  Creates nothing."""
    path = Path(path)
    for existing in (path, *path.parents):
        try:
            mode = existing.stat().st_mode
        except FileNotFoundError:
            continue
        except (OSError, ValueError) as exc:    # e.g. a regular file on the way
            raise UserInputError(f"cannot create directory {path}: {_reason(exc)}") from None
        if not stat.S_ISDIR(mode):
            reason = f"{existing} is not a directory"
        elif not os.access(existing, os.W_OK | os.X_OK):
            reason = f"{existing} is not writable"
        else:
            return
        raise UserInputError(f"cannot create directory {path}: {reason}")


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
