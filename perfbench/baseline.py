"""Measure every workload over seeds 1-10 and record the numbers.

    python3 perfbench/baseline.py

For each workload this runs `run.py` with --trace 0 once per seed and once
with --trace 1 on seed 1, one run at a time, and writes to
`perfbench/baseline.json` the median, the quartiles and the quartile spread
(as a share of the median) of each end-to-end metric, the attempted and
failed operation counts of every run, the per-layer metrics of the traced
run, and the layer-to-metric-to-workload mapping from `layers.MOVES`.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "moves": layers.MOVES,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        traced = bench(workload, SEEDS[0], spec["run_seconds"], 1)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "traced": {"attempted": traced["attempted"], "failed": traced["failed"]},
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **spread([r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]
            },
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
        }
        report["workloads"][workload] = entry
        OUT.write_text(json.dumps(report, indent=1) + "\n")
        for name, stats in entry["end_to_end"].items():
            print(f"{workload} {name} median {stats['median']:.6g} "
                  f"iqr/median {stats['iqr_share']:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
