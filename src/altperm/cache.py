"""Append-only result cache for avoidance counts.

Entries are newline-delimited JSON records keyed by the canonical textual
query "pattern|class|n".  The store directory comes from the ALTPERM_CACHE
environment variable (default ./.altperm-cache); writes append under an
exclusive file lock so concurrent runs cannot interleave records.  A line
that is not such a record, as a crash mid-append can leave, is skipped on
load, and so is a record written by another version of the package, so a
change to the counter cannot serve counts it did not make.
"""
from __future__ import annotations

import fcntl
import json
import os
import time
from pathlib import Path

from . import __version__
from .perms import Perm, PermClass, format_perm

_STORE_NAME = "counts.jsonl"


def cache_dir() -> Path:
    return Path(os.environ.get("ALTPERM_CACHE", ".altperm-cache"))


def query_key(pattern: Perm, cls: PermClass, n: int) -> str:
    return f"{format_perm(pattern)}|{cls.label()}|{n}"


class CountCache:
    def __init__(self, directory: Path | str | None = None) -> None:
        self.directory = Path(directory) if directory is not None else cache_dir()
        self._entries: dict[str, int] = {}
        self._load()

    @property
    def path(self) -> Path:
        return self.directory / _STORE_NAME

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                    if rec["version"] != __version__:
                        continue
                    self._entries[rec["key"]] = int(rec["count"])
                except (ValueError, TypeError, KeyError):
                    continue

    def get(self, pattern: Perm, cls: PermClass, n: int) -> int | None:
        return self._entries.get(query_key(pattern, cls, n))

    def put(self, pattern: Perm, cls: PermClass, n: int, count: int) -> None:
        key = query_key(pattern, cls, n)
        if self._entries.get(key) == count:
            return
        self._entries[key] = count
        self.directory.mkdir(parents=True, exist_ok=True)
        record = json.dumps(
            {"key": key, "count": count, "version": __version__, "ts": time.time()}
        )
        with open(self.path, "ab+") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    # end a torn last line so this record starts its own
                    record = "\n" + record
            fh.write((record + "\n").encode("utf-8"))
            fh.flush()
            fcntl.flock(fh, fcntl.LOCK_UN)

    def __len__(self) -> int:
        return len(self._entries)
