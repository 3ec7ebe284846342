"""Reference values and output checks, run in the parent process.

Table cells are checked against `altperm.tables.expected_count` (the printed
value, with known misprints replaced).  Every other count is checked against
the brute-force oracle, which shares no code with the program.  Suites and
sweeps must report every invariant as passing.  A replayed (warm) operation
must also give the same output as its first (cold) run, and from the cache.
"""
from __future__ import annotations

import csv
import io
import json

import oracle


def _flags(argv) -> dict:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _check_table(argv, stdout) -> str | None:
    from altperm.tables import TABLES, expected_count

    which = argv[1]
    max_n = int(_flags(argv).get("--max-n", 10))
    rows = TABLES[which]
    ns = [n for n in sorted(rows[0].counts) if n <= max_n]
    got = list(csv.reader(io.StringIO(stdout)))
    if got[:1] != [["patterns", *map(str, ns)]] or len(got) != len(rows) + 1:
        return f"table {which}: unexpected layout"
    for row, line in zip(rows, got[1:]):
        want = [row.label, *(str(expected_count(which, row, n)) for n in ns)]
        if line != want:
            return f"table {which}: row {row.label!r} gave {line[1:]}, expected {want[1:]}"
    return None


def _check_cli(argv, value) -> str | None:
    if value["rc"] != 0:
        return f"exit code {value['rc']}: {value['stderr'].strip()[:200]}"
    command, out = argv[0], value["stdout"]
    if command == "tables":
        return _check_table(argv, out)
    if command == "conjecture":
        return None if out.startswith("no counterexample") else f"verdict {out.strip()!r}"
    if command == "count":
        flags = _flags(argv)
        record = json.loads(out)
        want = oracle.count_avoiders(
            oracle.parse_perm(flags["--pattern"]), flags["--class"], int(flags["--n"]))
        if record["count"] != want:
            return f"count {record['count']}, expected {want}"
        return None
    return f"no check for command {command!r}"


def _check_classify(op, blocks) -> str | None:
    seen = sorted(p for members, _ in blocks for p in members)
    if seen != sorted(op["patterns"]):
        return "blocks do not partition the patterns"
    if len({tuple(counts) for _, counts in blocks}) != len(blocks):
        return "two blocks share a count sequence"
    for members, counts in blocks:
        for p in members:
            want = [oracle.count_avoiders(oracle.parse_perm(p), op["cls"], n)
                    for n in op["lengths"]]
            if counts != want:
                return f"{p}: block counts {counts}, expected {want}"
    return None


def check_value(op: dict, value) -> str | None:
    """None when the output of a completed operation is correct, else why
    it is not."""
    kind = op["kind"]
    if kind == "count":
        from altperm.tables import TABLES, expected_count

        want = expected_count(op["table"], TABLES[op["table"]][op["row"]], op["n"])
        return None if value == want else f"count {value}, expected {want}"
    if kind == "suite":
        names = [name for name, _, _ in value]
        if names != op["checks"]:
            return f"{op['fn']} reported checks {names}, expected {op['checks']}"
        bad = [f"FAIL {name}: {detail}" for name, ok, detail in value if not ok]
        return "; ".join(bad) or None
    if kind == "conjecture":
        return None if value["ok"] else f"counterexample {value['counterexample']}"
    if kind == "embed2":
        if len(value) != len(op["cases"]):
            return f"{len(value)} results for {len(op['cases'])} cases"
        bad = [case for case, ok in zip(op["cases"], value) if not ok]
        return f"identity fails on {bad}" if bad else None
    if kind == "transversal_counts":
        want = [oracle.count_avoiding_transversals(rows, A, D, P)
                for rows, A, D, P in op["cases"]]
        return None if value == want else f"counts {value}, expected {want}"
    if kind == "cli":
        return _check_cli(op["argv"], value)
    if kind == "classify":
        return _check_classify(op, value)
    return f"no check for operation kind {kind!r}"


def comparable(op: dict, value):
    """The part of an output that must repeat exactly: `count --json` also
    reports its own elapsed time and whether it hit the cache."""
    if op["kind"] == "cli" and op["argv"][0] == "count" and value["rc"] == 0:
        record = json.loads(value["stdout"])
        return {"query": record["query"], "count": record["count"]}
    return value


def _warm_problem(op: dict, value, cold) -> str | None:
    if not cold["ok"] or comparable(op, value) != comparable(op, cold["value"]):
        return "replay differs from the first run"
    if op["kind"] == "cli" and op["argv"][0] == "count":
        if not json.loads(value["stdout"])["cached"]:
            return "replay was not served from the cache"
    return None


def check_round(ops: list[dict], outputs: list[dict] | None) -> list[str | None]:
    """One verdict per operation: None if it completed with a correct
    output, else the reason it failed.  A round whose worker died has no
    outputs, and every operation in it fails."""
    if outputs is None or len(outputs) != len(ops):
        return ["worker gave no outputs"] * len(ops)
    verdicts = []
    for op, out in zip(ops, outputs):
        if not out["ok"]:
            verdicts.append(out["error"])
            continue
        try:
            problem = check_value(op, out["value"])
            if problem is None and "warm_of" in op:
                problem = _warm_problem(op, out["value"], outputs[op["warm_of"]])
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            problem = f"malformed output: {type(exc).__name__}: {exc}"
        verdicts.append(problem)
    return verdicts
