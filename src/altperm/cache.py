"""Append-only result cache for avoidance counts.

Entries are newline-delimited JSON records keyed by the canonical textual
query "pattern|class|n".  The store directory comes from the ALTPERM_CACHE
environment variable (default ./.altperm-cache); writes append under an
exclusive file lock so concurrent runs cannot interleave records, and a
load reads under a shared lock, so it waits out an append in progress.  A
load reads the store line by line in binary and takes a line as a record
only if it has the exact form put writes, read by one regex match.  Any
other line (one a crash mid-append left torn, one that is not UTF-8, one
edited by hand) is skipped, and so is a record written by another version
of the package, so a change to the counter cannot serve counts it did not
make; a skipped query is counted again.  A later record for a key
overrides an earlier one.
"""
from __future__ import annotations

import fcntl
import json
import os
import re
import time
from pathlib import Path

from . import __version__
from .perms import Perm, PermClass, format_perm

_STORE_NAME = "counts.jsonl"
_VERSION = __version__.encode("ascii")

# The line that put writes: json.dumps of a key and version of printable
# ASCII other than '"' and '\\' (so they read as themselves), a count in
# canonical digits and a JSON-number ts.
_TEXT = rb'([ !#-\[\]-~]*)'
_RECORD = re.compile(
    rb'\{"key": "' + _TEXT + rb'", "count": (0|[1-9][0-9]*), "version": "' + _TEXT
    + rb'", "ts": -?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?\}\n?'
)


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
        with open(self.path, "rb") as fh:
            # put appends under LOCK_EX, so no record is read half-written
            fcntl.flock(fh, fcntl.LOCK_SH)
            for line in fh:
                match = _RECORD.fullmatch(line)
                if match is None or match[3] != _VERSION:
                    continue
                try:
                    self._entries[match[1].decode("ascii")] = int(match[2])
                except ValueError:  # more digits than int() reads
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
