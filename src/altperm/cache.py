"""Append-only result cache for avoidance counts.

Entries are newline-delimited JSON records keyed by the canonical textual
query "pattern|class|n".  The store directory comes from the ALTPERM_CACHE
environment variable (default ./.altperm-cache); writes append under an
exclusive file lock so concurrent runs cannot interleave records, and a
load reads under a shared lock, so it waits out an append in progress; it
notes where the store ends and parses nothing.  Lookups read the store's
whole lines one block at a time, newest block first.  A lookup made while
the instance holds no count searches those lines for one that starts with
its key's record prefix and matches each such line until one is a record:
a hit or a miss costs one substring search of the store and no parse.  A
later lookup parses the blocks, reading each only when the records parsed
so far do not hold its key: a hit on a recent record costs one block and a
miss costs one full parse per instance.  put only appends, so the bytes
before the noted end stay as they were, and a lookup reads them without
the lock.  A line is a record only if it has the exact form put writes.
Any other line (one a crash mid-append left torn, one that is not UTF-8,
one edited by hand) is skipped, and so is a record written by another
version of the package, so a change to the counter cannot serve counts it
did not make; a skipped query is counted again.  A later record for a key
overrides an earlier one.
"""
from __future__ import annotations

import fcntl
import json
import os
import re
import sys
import time
from pathlib import Path

from . import __version__
from .perms import Perm, PermClass, format_perm

_STORE_NAME = "counts.jsonl"
# bytes read at a time, newest first; a line cut at a read's start is
# read with the next older read
_BLOCK = 1 << 14

# The line that put writes with this package's version: json.dumps of a key
# of printable ASCII other than '"' and '\\' (so it reads as itself), a count
# in canonical digits, no more of them than int() reads, and a JSON-number ts.
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_COUNT = rb"(0|[1-9][0-9]{0,%d})" % (_DIGITS - 1) if _DIGITS else rb"(0|[1-9][0-9]*)"
_RECORD = re.compile(
    rb'^\{"key": "([ !#-\[\]-~]*)", "count": ' + _COUNT + rb', "version": "'
    + re.escape(__version__.encode("ascii"))
    + rb'", "ts": -?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?\}$',
    re.M,
)


def _lines_before(fh, end: int, carry: bytes) -> tuple[int, bytes, int]:
    """The block of the store before byte `end`: its start, its bytes with
    `carry` (the cut start of the newer block) appended, and where its whole
    lines begin, after the line that its own start cuts."""
    start = max(0, end - _BLOCK)
    fh.seek(start)
    block = fh.read(end - start) + carry
    return start, block, (block.find(b"\n") + 1 or len(block)) if start else 0


def cache_dir() -> Path:
    return Path(os.environ.get("ALTPERM_CACHE", ".altperm-cache"))


def query_key(pattern: Perm, cls: PermClass, n: int) -> str:
    return f"{format_perm(pattern)}|{cls.label()}|{n}"


class CountCache:
    def __init__(self, directory: Path | str | None = None) -> None:
        self.directory = Path(directory) if directory is not None else cache_dir()
        self._entries: dict[str, int] = {}
        # the store's bytes before _unread are not parsed yet; _carry holds
        # the rest of a line whose start is among them
        self._unread = 0
        self._carry = b""
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
            self._unread = fh.seek(0, os.SEEK_END)

    def _lookup(self, key: str | None) -> int | None:
        """The count of `key`: a lookup while the instance holds no count
        searches for its record, a later one parses older blocks until it
        turns up; None parses them all."""
        if key in self._entries or not self._unread:
            return self._entries.get(key)
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:  # the store was removed since the load
            self._unread = 0
            return None
        with fh:
            if key is not None and not self._entries:
                needle = b'{"key": "%s", "count": ' % key.encode()
                start, carry = self._unread, b""
                while start:
                    start, block, cut = _lines_before(fh, start, carry)
                    carry = block[:cut]
                    i = block.rfind(needle, cut)
                    while i >= 0:
                        # _RECORD's ^ rejects a needle that does not start a line
                        end = block.find(b"\n", i)
                        found = _RECORD.match(block, i, len(block) if end < 0 else end)
                        if found:
                            self._entries[key] = int(found[2])
                            return self._entries[key]
                        i = block.rfind(needle, cut, i)
                return None
            keep = self._entries.setdefault
            while self._unread and key not in self._entries:
                self._unread, block, cut = _lines_before(fh, self._unread, self._carry)
                self._carry = block[:cut]
                # a key parsed before, from a newer block or put, keeps its count
                for k, count in reversed(_RECORD.findall(block, cut)):
                    keep(k.decode("ascii"), int(count))
        return self._entries.get(key)

    def get(self, pattern: Perm, cls: PermClass, n: int) -> int | None:
        return self._lookup(query_key(pattern, cls, n))

    def put(self, pattern: Perm, cls: PermClass, n: int, count: int) -> None:
        key = query_key(pattern, cls, n)
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
        self._lookup(None)
        return len(self._entries)
