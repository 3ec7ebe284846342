"""Per-layer metrics of a traced round, and what each one should move.

Layers are the package modules.  Every metric is read from outside: span
counts and times from `tracer`, the program's own `bijection.CHECK_STATS`
counters, and the size of the cache store on disk.  `MOVES` records, for
each metric, the end-to-end metrics it should move on each workload; a
metric mapped to a workload must be non-zero there, so none is measured
vacuously.  `trace.overhead_s` and the `layer.<module>.share` figures
(each module's self time as a share of the traced wall time) describe the
trace itself, and the `probe.*` ratios the untraced round's speed probe
(its reference loop's mean time over `worker.REFERENCE_S`, after set-up and
while the operations ran), by which that round's times are scaled; they
are mapped to nothing.
"""
from __future__ import annotations

from tracer import MODULES
from worker import REFERENCE_S

DEEP, VERIFY, CACHED = "deep-counts", "verify-sweeps", "cached-queries"

COUNTER = {DEEP: ["wall_s", "peak_rss_mb"], CACHED: ["wall_s"]}
SWEEPS = {VERIFY: ["wall_s"]}
CACHING = {CACHED: ["wall_s"]}

CHECK_KEYS = ("phi_board", "psi_board", "validity", "pin_preserved",
              "jtype2_geometry", "jtype3_orderings", "ftype3_orderings")
SUITES = ("bijection_suite", "shape2_suite", "extension_suite",
          "eboard_suite", "injections_suite")

# (metric, unit, {workload: end-to-end metrics it should move there})
PER_LAYER = (
    ("perms.contains_ending_here.calls", "count", COUNTER),
    ("perms.contains_ending_here.ns_per_call", "ns", COUNTER),
    ("perms.contains_ending_here.true_ratio", "ratio", COUNTER),
    ("enumeration.count_avoiders.calls", "count", COUNTER),
    ("enumeration.count_avoiders.self_s", "s", COUNTER),
    ("enumeration.count_avoiders.p50_ms", "ms", COUNTER),
    ("enumeration.checks_per_count", "count", COUNTER),
    ("perms.contains.calls", "count", SWEEPS),
    ("perms.contains.ns_per_call", "ns", SWEEPS),
    ("perms.contains.true_ratio", "ratio", SWEEPS),
    ("enumeration.generate.items", "count", SWEEPS),
    ("enumeration.generate.self_s", "s", SWEEPS),
    *((f"descent_type.{fn}.{stat}", unit, SWEEPS)
      for fn in ("child", "second_child", "repetitive_insert")
      for stat, unit in (("calls", "count"), ("ns_per_call", "ns"))),
    ("diagrams.valid_transversals.items", "count", SWEEPS),
    ("diagrams.transversal_contains.calls", "count", SWEEPS),
    ("diagrams.transversal_contains.ns_per_call", "ns", SWEEPS),
    ("diagrams.points_contain.calls", "count", SWEEPS),
    ("diagrams.count_avoiding_transversals.self_s", "s", SWEEPS),
    *((f"extension.{fn}.{stat}", unit, SWEEPS)
      for fn in ("count_avoiders_of", "successor")
      for stat, unit in (("calls", "count"), ("self_s", "s"))),
    *((f"bijection.{fn}.{stat}", unit, SWEEPS)
      for fn in ("phi", "psi")
      for stat, unit in (("calls", "count"), ("ns_per_call", "ns"))),
    ("bijection.fixpoint.steps_per_call", "count", SWEEPS),
    *((f"bijection.checks.{key}", "count", SWEEPS) for key in CHECK_KEYS),
    *((f"verify.{suite}.s", "s", SWEEPS) for suite in SUITES),
    ("equivalence.classify.self_s", "s", CACHING),
    ("equivalence.check_conjecture.self_s", "s", {VERIFY: ["wall_s"], CACHED: ["wall_s"]}),
    ("cache.load.calls", "count", CACHING),
    ("cache.load_ms", "ms", CACHING),
    ("cache.records", "count", CACHING),
    ("cache.get.calls", "count", CACHING),
    ("cache.hit_ratio", "ratio", CACHING),
    ("cache.put.calls", "count", CACHING),
    ("cache.put.us_per_call", "us", CACHING),
    ("cache.file_bytes", "bytes", CACHING),
    ("cli.main.calls", "count", CACHING),
    ("cli.main.self_s", "s", CACHING),
    ("cli.main.p50_ms", "ms", CACHING),
    ("cli.main.p90_ms", "ms", CACHING),
    ("trace.overhead_s", "s", {}),
    ("probe.reference_ratio", "ratio", {}),
    ("probe.setup_reference_ratio", "ratio", {}),
    *((f"layer.{module}.share", "ratio", {}) for module in (*MODULES, "other")),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}
MOVES = {name: moves for name, _, moves in PER_LAYER}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _percentile_ms(durations_ns, q: int) -> float:
    """The q-th percentile (nearest rank) of span durations, in ms."""
    if not durations_ns:
        return 0.0
    ranked = sorted(durations_ns)
    return ranked[min(len(ranked) - 1, max(0, -(-q * len(ranked) // 100) - 1))] / 1e6


def compute(summary: dict, traced: dict, untraced: dict, store: dict) -> dict:
    """Every per-layer metric: summary from `tracer.summarize` of the traced
    round, traced and untraced worker results of the same operations, and
    the cache store's size ({"records", "bytes"}) after the traced round."""
    by = summary["by_name"]
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "positives": 0, "items": 0}

    def get(name):
        return by.get(name, empty)

    values = {}
    for name in ("perms.contains_ending_here", "perms.contains", "diagrams.transversal_contains",
                 "descent_type.child", "descent_type.second_child",
                 "descent_type.repetitive_insert", "bijection.phi", "bijection.psi"):
        s = get(name)
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.ns_per_call"] = _ratio(s["total_ns"], s["calls"])
    for name in ("perms.contains_ending_here", "perms.contains"):
        values[f"{name}.true_ratio"] = _ratio(get(name)["positives"], get(name)["calls"])
    for name in ("enumeration.count_avoiders", "enumeration.generate",
                 "diagrams.count_avoiding_transversals", "extension.count_avoiders_of",
                 "extension.successor", "equivalence.classify",
                 "equivalence.check_conjecture", "cli.main"):
        values[f"{name}.self_s"] = get(name)["self_ns"] / 1e9
    for name in ("enumeration.count_avoiders", "extension.count_avoiders_of",
                 "extension.successor", "diagrams.points_contain", "cache.load",
                 "cache.get", "cache.put", "cli.main"):
        values[f"{name}.calls"] = get(name)["calls"]
    durations = summary["durations"]
    values["enumeration.count_avoiders.p50_ms"] = _percentile_ms(
        durations.get("enumeration.count_avoiders", []), 50)
    values["cli.main.p50_ms"] = _percentile_ms(durations.get("cli.main", []), 50)
    values["cli.main.p90_ms"] = _percentile_ms(durations.get("cli.main", []), 90)
    values["enumeration.checks_per_count"] = _ratio(
        get("perms.contains_ending_here")["calls"], get("enumeration.count_avoiders")["calls"])
    values["enumeration.generate.items"] = get("enumeration.generate")["items"]
    values["diagrams.valid_transversals.items"] = get("diagrams.valid_transversals")["items"]
    child_of = summary["child_of"]
    steps = (child_of.get("bijection.phi<bijection.phi_to_fixpoint", 0)
             + child_of.get("bijection.psi<bijection.psi_to_fixpoint", 0))
    values["bijection.fixpoint.steps_per_call"] = _ratio(
        steps, get("bijection.phi_to_fixpoint")["calls"] + get("bijection.psi_to_fixpoint")["calls"])
    for key in CHECK_KEYS:
        values[f"bijection.checks.{key}"] = traced["check_stats"].get(key, 0)
    for suite in SUITES:
        values[f"verify.{suite}.s"] = get(f"verify.{suite}")["total_ns"] / 1e9
    load, get_, put = get("cache.load"), get("cache.get"), get("cache.put")
    values["cache.load_ms"] = _ratio(load["total_ns"], load["calls"]) / 1e6
    values["cache.records"] = store["records"]
    values["cache.hit_ratio"] = _ratio(get_["positives"], get_["calls"])
    values["cache.put.us_per_call"] = _ratio(put["total_ns"], put["calls"]) / 1e3
    values["cache.file_bytes"] = store["bytes"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["probe.reference_ratio"] = untraced["reference_s"] / REFERENCE_S
    values["probe.setup_reference_ratio"] = untraced["setup_reference_s"] / REFERENCE_S
    wall_ns = traced["wall_s"] * 1e9
    shares = {module: 0.0 for module in MODULES}
    for name, s in by.items():
        module = name.split(".")[0]
        if module in shares:
            shares[module] += s["self_ns"] / wall_ns
    for module, share in shares.items():
        values[f"layer.{module}.share"] = share
    values["layer.other.share"] = 1.0 - sum(shares.values())
    missing = set(UNITS) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    return {name: values[name] for name in UNITS}
