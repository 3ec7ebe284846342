"""Spans around calls into the program's modules, recorded from outside.

`Tracer.install` replaces each traced public function of `altperm` with a
wrapper, in every `altperm.*` namespace that holds a reference to it (a
function imported by name into another module is looked up there, not in
its home module).  A span is (name, start, end, parent); spans stay in
compact arrays in memory and `Tracer.dump` writes them once, at the end of
the round.  `summarize` turns a dump into per-name calls, inclusive and
self time; self time is span time minus the time its child spans cover.

Generators are timed per resumption: each `next` is one span, and the items
they hand out are counted separately.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute, kind).  kind "call" times the call, "pred"
# also counts truthy results, "lookup" counts results that are not None,
# "gen" times each resumption of a generator and counts its items.
TARGETS = (
    ("perms.contains_ending_here", "perms", "contains_ending_here", "pred"),
    ("perms.contains", "perms", "contains", "pred"),
    ("enumeration.count_avoiders", "enumeration", "count_avoiders", "call"),
    ("enumeration.generate", "enumeration", "generate", "gen"),
    ("descent_type.child", "descent_type", "child", "call"),
    ("descent_type.second_child", "descent_type", "second_child", "call"),
    ("descent_type.repetitive_insert", "descent_type", "repetitive_insert", "call"),
    ("diagrams.valid_transversals", "diagrams", "valid_transversals", "gen"),
    ("diagrams.transversal_contains", "diagrams", "transversal_contains", "pred"),
    ("diagrams.points_contain", "diagrams", "points_contain", "pred"),
    ("diagrams.count_avoiding_transversals", "diagrams", "count_avoiding_transversals", "call"),
    ("extension.count_avoiders_of", "extension", "count_avoiders_of", "call"),
    ("extension.successor", "extension", "successor", "call"),
    ("bijection.phi", "bijection", "phi", "call"),
    ("bijection.psi", "bijection", "psi", "call"),
    ("bijection.phi_to_fixpoint", "bijection", "phi_to_fixpoint", "call"),
    ("bijection.psi_to_fixpoint", "bijection", "psi_to_fixpoint", "call"),
    ("verify.bijection_suite", "verify", "bijection_suite", "call"),
    ("verify.shape2_suite", "verify", "shape2_suite", "call"),
    ("verify.extension_suite", "verify", "extension_suite", "call"),
    ("verify.eboard_suite", "verify", "eboard_suite", "call"),
    ("verify.injections_suite", "verify", "injections_suite", "call"),
    ("equivalence.classify", "equivalence", "classify", "call"),
    ("equivalence.check_conjecture", "equivalence", "check_conjecture", "call"),
    ("cache.load", "cache", "CountCache._load", "call"),
    ("cache.get", "cache", "CountCache.get", "lookup"),
    ("cache.put", "cache", "CountCache.put", "call"),
    ("cli.main", "cli", "main", "call"),
)

MODULES = tuple(dict.fromkeys(module for _, module, _, _ in TARGETS))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.positives: list[int] = []
        self.items: list[int] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.positives.append(0)
        self.items.append(0)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        if name not in self.names:
            self._name_id(name)
        idx = self._open(self.names.index(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, kind: str):
        nid = self._name_id(name)
        opened, closed = self._open, self._close
        positives, items = self.positives, self.items

        if kind == "gen":
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = opened(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        closed(idx)
                    items[nid] += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if kind == "pred" and result or kind == "lookup" and result is not None:
                positives[nid] += 1
            return result
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded `altperm` namespace."""
        import importlib

        for module in MODULES:
            importlib.import_module(f"altperm.{module}")
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "altperm" or key.startswith("altperm.")
        ]
        for name, module, attr, kind in TARGETS:
            owner = sys.modules[f"altperm.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, kind))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, kind)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def dump(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("span_name", "span_parent", "span_start", "span_end"):
            with open(directory / field, "wb") as fh:
                getattr(self, field).tofile(fh)
        meta = {"names": self.names, "positives": self.positives,
                "items": self.items, "spans": len(self.span_name)}
        (directory / "meta.json").write_text(json.dumps(meta))


def load(directory: Path) -> dict:
    meta = json.loads((directory / "meta.json").read_text())
    arrays = {}
    for field, code in (("span_name", "H"), ("span_parent", "i"),
                        ("span_start", "q"), ("span_end", "q")):
        arr = array(code)
        with open(directory / field, "rb") as fh:
            arr.fromfile(fh, meta["spans"])
        arrays[field] = arr
    return {**meta, **arrays}


def summarize(dump: dict, keep_durations=()) -> dict:
    """Per span name: calls, inclusive ns, self ns, positive results and
    items; the durations of the names in keep_durations; and how many spans
    of each name have a parent of each other name (as "child<parent")."""
    names = dump["names"]
    nids, parents = dump["span_name"], dump["span_parent"]
    starts, ends = dump["span_start"], dump["span_end"]
    spans = len(nids)
    durations = [ends[i] - starts[i] for i in range(spans)]
    covered = [0] * spans
    calls = [0] * len(names)
    total = [0] * len(names)
    child_of: dict[tuple[int, int], int] = {}
    for i in range(spans):
        nid, parent, dur = nids[i], parents[i], durations[i]
        calls[nid] += 1
        total[nid] += dur
        if parent >= 0:
            covered[parent] += dur
            key = (nid, nids[parent])
            child_of[key] = child_of.get(key, 0) + 1
    self_ns = [0] * len(names)
    for i in range(spans):
        self_ns[nids[i]] += durations[i] - covered[i]
    keep = {names.index(k) for k in keep_durations if k in names}
    kept = {names[k]: [] for k in keep}
    for i in range(spans):
        if nids[i] in keep:
            kept[names[nids[i]]].append(durations[i])
    out = {
        name: {"calls": calls[k], "total_ns": total[k], "self_ns": self_ns[k],
               "positives": dump["positives"][k], "items": dump["items"][k]}
        for k, name in enumerate(names)
    }
    return {"by_name": out, "durations": kept,
            "child_of": {f"{names[c]}<{names[p]}": v for (c, p), v in child_of.items()}}
