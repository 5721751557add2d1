"""Atomic file persistence: tmp file + fsync + ``os.replace``.

Every persistent state file in the repo (training checkpoints, the
native kernel's build cache, sweep journals, resume markers) goes
through these helpers so a crash — including a SIGKILL landing
mid-write — can never leave a torn file behind: readers see either the
previous complete version or the new complete version, nothing in
between.

The recipe, in order:

1. write the payload to a uniquely named sibling tmp file (same
   directory, so the final rename stays within one filesystem);
2. flush + ``os.fsync`` the tmp file, so the *data* is durable before
   the rename makes it visible;
3. ``os.replace`` onto the destination (atomic on POSIX and Windows);
4. best-effort fsync of the containing directory, so the rename itself
   survives a power cut.

Failure cleanup removes the tmp file; the destination is untouched.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fsync_append",
]


def _fsync_dir(directory: Path) -> None:
    """Make a completed rename durable (best effort; not all platforms
    support opening directories)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: "str | Path", data: bytes) -> Path:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + replace)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - cleanup best effort
            pass
        raise
    _fsync_dir(path.parent)
    return path


def atomic_write_text(path: "str | Path", text: str) -> Path:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: "str | Path", payload, **dumps_kwargs) -> Path:
    """Atomically replace ``path`` with ``payload`` serialized as JSON."""
    dumps_kwargs.setdefault("indent", 2)
    dumps_kwargs.setdefault("sort_keys", True)
    return atomic_write_text(path, json.dumps(payload, **dumps_kwargs) + "\n")


def fsync_append(path: "str | Path", text: str) -> Path:
    """Append ``text`` to ``path`` and fsync (journal-style durability).

    Appends are not atomic the way :func:`atomic_write_bytes` is, but a
    journal only ever *grows*: a crash mid-append can leave one torn
    trailing record, which journal readers must tolerate (and
    :func:`repro.arch.sweep` does). The fsync guarantees every record
    before the torn one is durable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    return path
