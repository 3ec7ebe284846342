"""The altperm benchmark: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload deep-counts --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it reads the program from `src/` there
and writes only under `perfbench/.work/`, which it removes before exiting.

Each round is a fresh single-threaded worker process (`worker.py`) that runs
the seed's operation list one operation after another.  Rounds repeat while
another one fits in --seconds.  The parent then checks every output of
every round (`checks.py`) and prints one line per metric and, last, one
JSON object.

On a shared VM the same Python loop runs up to 1.6 times slower for spells
of seconds to minutes, as other tenants load the host.  So each worker also
times a fixed reference loop, right after set-up and every 0.15 s while the
operations run (`worker.SpeedProbe`, about 8% of the round, not counted in
the operations' times), and times are scaled to the speed at which that
loop takes `worker.REFERENCE_S`.  An `info` line gives the unscaled figures
and the probe ratios (the reference loop's mean time over REFERENCE_S),
which the traced run also reports as `probe.reference_ratio` and
`probe.setup_reference_ratio`.  The probe is only fair to a single-threaded
program: a round in which it saw another thread or a child process running
fails every one of its operations.

With --trace 0 the metrics are the end-to-end ones:
  setup_s      median, over at least seven fresh processes, of the scaled
               time from process start until the first operation can run
               (importing altperm and building the round's inputs)
  wall_s       scaled wall time to finish the operation list, averaged
               over the rounds
  peak_rss_mb  median peak resident memory of the round processes
  ops_ok_frac  operations that completed with a correct output, over those
               attempted (1 - failed/attempted)
With --trace 1 one untraced and one traced round of the same operations
run; the traced one gives the per-layer metrics (`layers.py`) and
trace.overhead_s.  Outputs of the two rounds must be identical.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import tracer
import workloads
from worker import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 7
ROUND_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}


def build_fixture(directory: Path) -> Path:
    """The cached-queries starting store, written through the program's own
    CountCache.put; built once per invocation and copied into each round."""
    from altperm.cache import CountCache
    from altperm.perms import parse_class, parse_perm

    store = CountCache(directory)
    for pattern, label, n, count in workloads.fixture_records():
        store.put(parse_perm(pattern), parse_class(label), n, count)
    return store.path


def run_round(workload: str, seed: int, work: Path,
              fixture: Path | None, trace: bool = False, setup_only: bool = False) -> dict:
    """Start one worker, wait for it, and return its result with the
    cache store's size and, when traced, the span summary.  A worker that
    fails returns {"error": ...} in place of outputs."""
    round_dir = work / f"round-{time.monotonic_ns()}"
    round_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), ALTPERM_CACHE=str(round_dir / "cache"),
               PYTHONHASHSEED="0")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--round-dir", str(round_dir)]
    if fixture is not None:
        cmd += ["--fixture", str(fixture)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        cmd += ["--spawned-at", repr(time.perf_counter())]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
        result_file = round_dir / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        result = json.loads(result_file.read_text())
        store = round_dir / "cache" / "counts.jsonl"
        result["store"] = {"records": 0, "bytes": 0}
        if store.exists():
            data = store.read_bytes()
            result["store"] = {"records": data.count(b"\n"), "bytes": len(data)}
        if trace:
            result["summary"] = tracer.summarize(
                tracer.load(round_dir / "trace"),
                keep_durations=("enumeration.count_avoiders", "cli.main"))
        return result
    except subprocess.TimeoutExpired:
        return {"error": f"worker ran over {ROUND_TIMEOUT_S}s"}
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)


def round_verdicts(ops: list[dict], result: dict) -> list[str | None]:
    """The output checks of one round; when the speed probe saw other
    threads or child processes, every operation of the round fails, since
    its scaled time is not the program's own."""
    verdicts = checks.check_round(ops, result.get("outputs"))
    beside = result.get("probe_beside", {})
    if any(beside.values()):
        reason = (f"speed probe ran beside {beside['threads']} threads and "
                  f"{beside['children']} child processes")
        verdicts = [v or reason for v in verdicts]
    return verdicts


def measure(workload: str, seed: int, seconds: float, work: Path, fixture: Path | None):
    """Closed loop of rounds for --trace 0; returns (metrics, verdicts)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, seed, work, fixture))
        elapsed = time.perf_counter() - start
        if "error" in rounds[-1] or elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    done = [r for r in rounds if "error" not in r]
    if not done:
        raise RuntimeError(rounds[-1]["error"])
    setups = list(done)
    while len(setups) < SETUP_SAMPLES:
        result = run_round(workload, seed, work, fixture, setup_only=True)
        if "error" in result:
            raise RuntimeError(result["error"])
        setups.append(result)
    ops = workloads.build_ops(workload, seed)
    verdicts = [v for r in rounds for v in round_verdicts(ops, r)]
    metrics = {
        "setup_s": statistics.median(
            r["setup_s"] * REFERENCE_S / r["setup_reference_s"] for r in setups),
        "wall_s": statistics.fmean(r["wall_s"] * REFERENCE_S / r["reference_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "ops_ok_frac": verdicts.count(None) / len(verdicts),
    }
    print(f"info unscaled: setup_s {statistics.median(r['setup_s'] for r in setups):.6g} s, "
          f"wall_s {statistics.fmean(r['wall_s'] for r in done):.6g} s; rounds {len(done)}; "
          "probe ratio: set-up "
          f"{statistics.median(r['setup_reference_s'] for r in setups) / REFERENCE_S:.4g}, "
          f"ops {statistics.fmean(r['reference_s'] for r in done) / REFERENCE_S:.4g}")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, verdicts


def measure_traced(workload: str, seed: int, work: Path, fixture: Path | None):
    """An untraced and a traced round of the same operations; returns
    (per-layer metrics, verdicts).  An output of the traced round that
    differs from the untraced one fails that operation."""
    plain = run_round(workload, seed, work, fixture)
    traced = run_round(workload, seed, work, fixture, trace=True)
    for result in (plain, traced):
        if "error" in result:
            raise RuntimeError(result["error"])
    ops = workloads.build_ops(workload, seed)
    verdicts = round_verdicts(ops, plain) + checks.check_round(ops, traced["outputs"])
    for op, a, b in zip(ops, plain["outputs"], traced["outputs"]):
        same = a["ok"] and b["ok"] and (
            checks.comparable(op, a["value"]) == checks.comparable(op, b["value"]))
        verdicts.append(None if same else "traced output differs from untraced")
    values = layers.compute(traced["summary"], traced, plain, traced["store"])
    return {k: (v, layers.UNITS[k]) for k, v in values.items()}, verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "altperm" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'altperm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / ".work" / str(os.getpid())
    try:
        work.mkdir(parents=True)
        fixture = None
        if args.workload == "cached-queries":
            fixture = build_fixture(work / "fixture")
        if args.trace:
            metrics, verdicts = measure_traced(args.workload, args.seed, work, fixture)
        else:
            metrics, verdicts = measure(args.workload, args.seed, args.seconds, work, fixture)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (HERE / ".work").exists() and not any((HERE / ".work").iterdir()):
            (HERE / ".work").rmdir()

    failed = [v for v in verdicts if v is not None]
    for reason in sorted(set(failed)):
        print(f"FAIL {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # a terminated run still stops and waits for its worker: subprocess.run
    # kills the child when an exception interrupts the wait
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
