"""Atomic file writes, where content lands under its final name or not at
all, and the JSON and hash reads of the files a run depends on."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_json(path: str | Path):
    """Decode a JSON file; a leading UTF-8 byte-order mark is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        return json.load(fh)


def file_sha256(path: str | Path) -> str:
    """Hex sha256 of a file's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()
