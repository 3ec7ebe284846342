"""One round of a workload, in a fresh single-threaded process.

The worker imports the program, builds the round's inputs (this is the
set-up that `setup_s` times, from the moment the parent started the
process), then runs the operations one after another, each starting when
the previous one has returned.  It writes the outputs, the wall time of
each operation, the machine's speed sampled during set-up and while the
operations run (`SpeedProbe`), and its peak resident memory to
`result.json` in its round directory; the parent checks the outputs.  The
probe also records the most threads and child processes it saw running
beside it, since they would slow the reference loop and make the program
look faster than it is.  With
--trace it wraps the program's modules first and writes the spans next to
the result.

    python3 perfbench/worker.py --workload deep-counts --seed 1 \
        --spawned-at <perf_counter> --round-dir <dir> [--fixture <file>] \
        [--trace] [--setup-only]

ALTPERM_CACHE must name `<round-dir>/cache`, and PYTHONPATH the program's
`src` directory.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import workloads


def _cli_runner(argv):
    from altperm import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return run


def prepare(op: dict):
    """A zero-argument callable that runs the operation and returns its
    output as JSON-able data.  Arguments are converted to program objects
    here, before timing starts; program functions are looked up when the
    callable runs, so the tracer's wrappers are the ones called."""
    from altperm import cache, diagrams, enumeration, equivalence, extension, verify
    from altperm.perms import parse_class, parse_perm

    def triple(rows, A, D):
        return diagrams.ADYoungDiagram(diagrams.YoungDiagram(tuple(rows)), A, D)

    kind = op["kind"]
    if kind == "count":
        query = enumeration.AvoidanceQuery(
            parse_perm(op["pattern"]), parse_class(op["cls"]), op["n"])
        return lambda: enumeration.count_avoiders(query).count
    if kind == "suite":
        return lambda: [[r.name, r.ok, r.detail]
                        for r in getattr(verify, op["fn"])(**op["kwargs"])]
    if kind == "conjecture":
        def run_conjecture():
            verdict = equivalence.check_conjecture(op["which"], **op["kwargs"])
            return {"ok": verdict.ok, "counterexample": verdict.counterexample}
        return run_conjecture
    if kind == "embed2":
        cases = [(triple(r, A, D), tuple(P), tuple(C)) for r, A, D, P, C in op["cases"]]
        return lambda: [extension.verify_embed2(ady, P, C) for ady, P, C in cases]
    if kind == "transversal_counts":
        cases = [(triple(r, A, D), tuple(P)) for r, A, D, P in op["cases"]]
        return lambda: [diagrams.count_avoiding_transversals(ady, P) for ady, P in cases]
    if kind == "cli":
        return _cli_runner(op["argv"])
    if kind == "classify":
        patterns = [parse_perm(p) for p in op["patterns"]]
        cls = parse_class(op["cls"])

        def run_classify():
            report = equivalence.classify(
                patterns, cls, op["lengths"], cache=cache.CountCache())
            return [[[workloads.perm_text(p) for p in b.patterns], list(b.counts)]
                    for b in report.blocks]
        return run_classify
    raise ValueError(f"unknown operation kind {kind!r}")


# The machine's speed is sampled with a fixed piece of pure-Python work that
# shares no code with the program: counting the 321-avoiding permutations of
# 1..8 (there are 1430) by naive recursion.
REFERENCE_N = 8
REFERENCE_COUNT = 1430
PROBE_EVERY_S = 0.15
# About the time of the reference loop on an idle 2-core x86-64 VM under
# Python 3.11.  Times are multiplied by REFERENCE_S over the reference
# loop's mean time measured in the same process, so they read as seconds at
# that speed.
REFERENCE_S = 0.01


def reference_loop() -> float:
    """Seconds one run of the reference work takes now."""
    n = REFERENCE_N
    used = [False] * (n + 1)

    def extend(depth: int, top: int, second: int) -> int:
        # top: the largest value placed; second: the largest value placed
        # after a larger one.  A value below `second` would complete a 321.
        if depth == n:
            return 1
        total = 0
        for v in range(second + 1, n + 1):
            if not used[v]:
                used[v] = True
                total += extend(depth + 1, max(v, top), v if v < top else second)
                used[v] = False
        return total

    t0 = time.perf_counter()
    if extend(0, 0, 0) != REFERENCE_COUNT:
        raise RuntimeError("reference loop miscounted")
    return time.perf_counter() - t0


def running_beside() -> dict:
    """Threads other than this one, and live child processes started
    through multiprocessing, in this process now."""
    mp = sys.modules.get("multiprocessing")
    return {"threads": threading.active_count() - 1,
            "children": len(mp.active_children()) if mp else 0}


class SpeedProbe:
    """Samples the machine's speed while the operations run: every
    PROBE_EVERY_S of wall time a SIGALRM handler times the reference loop.
    The time spent in the handler is kept in `paused`, so that it can be
    taken out of the operations' times.  `beside` keeps the most threads
    and child processes seen running at a sample."""

    def __init__(self, beside: dict) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self.beside = dict(beside)
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside a sample is skipped
            return
        self._busy = True
        t0 = time.perf_counter()
        for key, count in running_beside().items():
            self.beside[key] = max(self.beside[key], count)
        self.samples.append(reference_loop())
        self.paused += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_ops(ops, runners, tracer=None, probe=None) -> list[dict]:
    """Closed loop: each operation starts after the previous one returned.
    An operation that raises is recorded as failed and the loop goes on.
    Time the probe spent sampling is not counted in an operation's time."""
    outputs = []
    for op, run in zip(ops, runners):
        span = tracer.span(f"op.{op['kind']}") if tracer else contextlib.nullcontext()
        paused = probe.paused if probe else 0.0
        t0 = time.perf_counter()
        with span:
            try:
                out = {"ok": True, "value": run()}
            except Exception as exc:  # an operation failure, not a benchmark failure
                out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        out["s"] = time.perf_counter() - t0
        if probe:
            out["s"] -= probe.paused - paused
        outputs.append(out)
    return outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--round-dir", type=Path, required=True)
    parser.add_argument("--fixture", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import altperm

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if Path(altperm.__file__).resolve().parent.parent != src:
        print(f"altperm imported from {altperm.__file__}, not {src}", file=sys.stderr)
        return 2
    from altperm import bijection

    cache_dir = Path(os.environ["ALTPERM_CACHE"])
    cache_dir.mkdir(parents=True, exist_ok=True)
    if args.fixture is not None:
        shutil.copyfile(args.fixture, cache_dir / args.fixture.name)
    ops = workloads.build_ops(args.workload, args.seed)
    runners = [prepare(op) for op in ops]
    setup_s = time.perf_counter() - args.spawned_at

    result = {"setup_s": setup_s,
              "setup_reference_s": statistics.fmean(reference_loop() for _ in range(10)),
              "probe_beside": running_beside()}
    if not args.setup_only:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            outputs = run_ops(ops, runners, tracer=tracer)
        else:
            with SpeedProbe(result["probe_beside"]) as probe:
                outputs = run_ops(ops, runners, probe=probe)
            result["reference_s"] = statistics.fmean(probe.samples)
            result["probe_beside"] = probe.beside
        result.update(
            wall_s=sum(out["s"] for out in outputs),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            outputs=outputs,
            check_stats=dict(getattr(bijection, "CHECK_STATS", {})),
        )
        if args.trace:
            tracer.dump(args.round_dir / "trace")
    (args.round_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
