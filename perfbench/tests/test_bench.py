"""The benchmark itself: checks are never vacuous, a wrong reference is
counted as a failure, tracing does not change outputs, and a run writes
nothing outside its own scratch directory."""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import checks
import layers
import run
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_two_seeds_pick_different_samples_and_repeat_exactly():
    for workload in workloads.WORKLOADS:
        first = workloads.build_ops(workload, 1)
        assert first == workloads.build_ops(workload, 1)
        assert first != workloads.build_ops(workload, 2)


def _corrupt(op, value):
    """A plausible wrong output for every kind of operation."""
    kind = op["kind"]
    if kind == "count":
        return value + 1
    if kind == "suite":
        name, _, _ = value[0]
        return [[name, False, "broken"], *value[1:]]
    if kind == "conjecture":
        return {"ok": False, "counterexample": "x"}
    if kind == "embed2":
        return [False, *value[1:]]
    if kind == "transversal_counts":
        return [value[0] + 1, *value[1:]]
    if kind == "classify":
        (members, counts), *rest = value
        return [[members, [counts[0] + 1, *counts[1:]]], *rest]
    command = op["argv"][0]
    if command == "count":
        record = json.loads(value["stdout"])
        record["count"] += 1
        return dict(value, stdout=json.dumps(record))
    if command == "tables":
        lines = value["stdout"].splitlines()
        head, last = lines[-1].rsplit(",", 1)
        lines[-1] = f"{head},{int(last) + 1}"
        return dict(value, stdout="\n".join(lines) + "\n")
    return dict(value, stdout="counterexample: x\n")


def _shrunk(op, value):
    """Empty and, for lists, one-short forms of an output."""
    if op["kind"] == "count":
        return [None]
    if op["kind"] == "conjecture":
        return [{}]
    if op["kind"] == "cli":
        return [dict(value, stdout="")]
    return [[], value[:-1]]


def _assert_checked(ops, outputs):
    """Every output is correct, and changing, emptying or shortening any
    single one is caught."""
    assert checks.check_round(ops, outputs) == [None] * len(ops)
    for i, op in enumerate(ops):
        value = outputs[i]["value"]
        for wrong in (_corrupt(op, value), *_shrunk(op, value)):
            broken = list(outputs)
            broken[i] = dict(outputs[i], value=wrong)
            assert checks.check_round(ops, broken)[i] is not None, (op, wrong)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_output_of_two_seeds_is_checked(workload, tmp_path):
    fixture = run.build_fixture(tmp_path / "fixture") if workload == "cached-queries" else None
    for seed in (1, 2):
        result = run.run_round(workload, seed, tmp_path, fixture)
        _assert_checked(workloads.build_ops(workload, seed), result["outputs"])


def test_wrong_reference_is_counted_not_raised(monkeypatch):
    """A reference that disagrees with the program fails that operation in
    ops_ok_frac and the run still reports."""
    import altperm.tables

    real = altperm.tables.expected_count
    wrong = {"calls": 0}

    def off_by_one_once(table, row, n):
        wrong["calls"] += 1
        return real(table, row, n) + (wrong["calls"] == 1)

    monkeypatch.setattr(altperm.tables, "expected_count", off_by_one_once)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "deep-counts", "--seed", "3", "--seconds", "1"]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ops_ok_frac"]["value"] == pytest.approx(1 - 1 / result["attempted"])
    assert any(line.startswith("FAIL count") for line in lines)


def test_probe_beside_threads_or_children_fails_the_round():
    """The speed probe scales times fairly only for a single-threaded
    program, so a round run beside other threads or processes fails."""
    import worker

    ops = workloads.build_ops("deep-counts", 1)
    assert worker.running_beside() == {"threads": 0, "children": 0}
    with worker.SpeedProbe(worker.running_beside()) as probe:
        done = threading.Event()
        helper = threading.Thread(target=done.wait)
        helper.start()
        deadline = time.monotonic() + 5
        while not probe.samples and time.monotonic() < deadline:
            time.sleep(0.01)
        done.set()
        helper.join()
    assert probe.beside == {"threads": 1, "children": 0}
    from altperm.tables import TABLES, expected_count

    outputs = [{"ok": True, "s": 0.0,
                "value": expected_count(op["table"], TABLES[op["table"]][op["row"]], op["n"])}
               for op in ops]
    assert run.round_verdicts(ops, {"outputs": outputs, "probe_beside": {"threads": 0, "children": 0}}) \
        == [None] * len(ops)
    verdicts = run.round_verdicts(ops, {"outputs": outputs, "probe_beside": probe.beside})
    assert all(v is not None and v.startswith("speed probe ran beside") for v in verdicts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_round_matches_untraced_and_no_metric_is_vacuous(workload, tmp_path):
    fixture = run.build_fixture(tmp_path / "fixture") if workload == "cached-queries" else None
    metrics, verdicts = run.measure_traced(workload, 5, tmp_path, fixture)
    # verdicts cover both rounds' checks and the traced-vs-untraced comparison
    assert len(verdicts) == 3 * len(workloads.build_ops(workload, 5))
    assert verdicts == [None] * len(verdicts)
    values = {name: value for name, (value, _) in metrics.items()}
    assert set(values) == set(layers.UNITS)
    idle = [name for name, moves in layers.MOVES.items() if workload in moves and not values[name] > 0]
    assert idle == []
    if workload == "verify-sweeps":
        counter = [name for name, moves in layers.MOVES.items() if moves is layers.COUNTER]
        assert all(values[name] == 0 for name in counter)


def _snapshot(root: Path) -> dict:
    return {str(p.relative_to(root)): p.stat().st_mtime_ns if p.is_file() else None
            for p in root.rglob("*")}


def _checkout(tmp_path: Path, with_program: bool) -> Path:
    dest = tmp_path / "checkout"
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache")
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def _bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("ALTPERM_CACHE", None)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=checkout, env=env,
        capture_output=True, text=True, timeout=170)


def test_run_writes_nothing_outside_its_scratch_directory(tmp_path):
    checkout = _checkout(tmp_path, with_program=True)
    before = _snapshot(checkout)
    proc = _bench(checkout, "--workload", "cached-queries", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0
    assert _snapshot(checkout) == before
    assert not (checkout / ".altperm-cache").exists()


def test_fails_without_the_program(tmp_path):
    checkout = _checkout(tmp_path, with_program=False)
    proc = _bench(checkout, "--workload", "deep-counts", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
