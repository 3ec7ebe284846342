"""Operation lists of the three workloads, made from the seed alone.

An operation is a plain JSON-able dict, so the worker process that runs it
and the parent process that checks its output build the same list from
(workload, seed).  Only the bundled tables are read from the program, as
data; every other input is drawn here.  Every round of a run repeats the
list in a fresh process, so no query repeats inside a process.
"""
from __future__ import annotations

import itertools
import random

import oracle

WORKLOADS = ("deep-counts", "verify-sweeps", "cached-queries")

# deep-counts counts the first pattern of the first two 6even rows at n=10
# (about 2.4 s each; 634521 is the reference query of the counter) and one
# seeded pattern of every 6odd row at n=9 (about 0.24 s each).  The seed does
# not pick the 6even queries: their cost differs by 13% from pattern to
# pattern, so two seeded ones would make the list's cost a property of the
# seed.  Covering every 6odd row keeps the rest of the list near one cost.
EVEN_ROWS = (0, 1)

COUNT_CLASSES = ("all", "alt", "ralt", "dk:3", "dk:4", "dset", "aset")


def perm_text(p) -> str:
    return "".join(str(v) for v in p)


def deep_counts(seed: int) -> list[dict]:
    from altperm.tables import TABLES

    rng = random.Random(f"deep-counts:{seed}")
    even, odd = TABLES["6even"], TABLES["6odd"]
    picks = [("6even", 10, row, even[row].patterns[0]) for row in EVEN_ROWS]
    picks += [("6odd", 9, row, rng.choice(odd[row].patterns))
              for row in rng.sample(range(len(odd)), len(odd))]
    return [{"kind": "count", "table": table, "row": row, "cls": "alt", "n": n,
             "pattern": perm_text(pattern)} for table, n, row, pattern in picks]


def ad_triples(n: int):
    """Every AD triple with n rows, as (rows, A, D) with sorted index lists:
    square-bounded weakly decreasing rows, and each index whose two rows
    have equal length placed in A, in D or in neither."""
    for tail in itertools.combinations_with_replacement(range(n, 0, -1), n - 1):
        rows = (n,) + tail
        eligible = [i for i in range(1, n) if rows[i - 1] == rows[i]]
        for choice in itertools.product((None, "A", "D"), repeat=len(eligible)):
            A = [i for i, c in zip(eligible, choice) if c == "A"]
            D = [i for i, c in zip(eligible, choice) if c == "D"]
            yield list(rows), A, D


# The checks each suite reports, in order, at the arguments verify-sweeps
# gives it.  A suite that drops, renames or adds a check fails, so an empty
# or short report cannot pass as all-PASS.
SUITE_CHECKS = {
    "bijection_suite": [
        "block-avoiding counts agree on 1-alternating triples, <= 6 rows",
        "full maps are mutually inverse bijections",
        "single steps invert each other on separable transversals",
        "semialternating case via corner embedding, <= 5 rows",
    ],
    "shape2_suite": [
        "closed form matches exhaustive counts, <= 6 rows",
        "12 and 21 agree on 1-alternating triples",
        "right-to-left rule builds the unique 21-avoider",
    ],
    "extension_suite": [
        "block-sum identity holds exhaustively, <= 5 rows",
        "successors of (x+r)-alternating parents are x-alternating",
        "semialternating analogue of the successor property",
        "adjacent required-constraint transfer to successors",
        "dominant region is recoverable from the non-dominant set",
        "dominance shifts down one row when the next column stays left",
        "deletion and reinsertion are mutually inverse",
        "12 (+) C matches 21 (+) C on (1+r)-alternating triples",
    ],
    "eboard_suite": [
        "forbidden boards hold no transversal elements, <= 5 rows",
    ],
    "injections_suite": [
        "children avoid the pattern and extend the parent",
        "the child assignment is injective",
        "avoider counts never drop with length",
        "strict growth off the repetitive plateaus",
        "repetitive plateaus are flat and realized bijectively",
        "secondary injections give distinct avoiding children",
        "identity patterns have no avoiders once rows reach them",
    ],
}


def _suite(fn: str, **kwargs) -> dict:
    return {"kind": "suite", "fn": fn, "kwargs": kwargs, "checks": SUITE_CHECKS[fn]}


def verify_sweeps(seed: int) -> list[dict]:
    rng = random.Random(f"verify-sweeps:{seed}")
    triples = {n: list(ad_triples(n)) for n in (4, 5, 6)}
    embed = [
        [*rng.choice(triples[n]), list(P), list(C)]
        for n in (4, 5, 5, 5)
        for P in ((1, 2), (2, 1))
        for C in ((1,), (1, 2), (2, 1))
    ]
    avoid = [
        [*rng.choice(triples[n]), rng.sample(range(1, k + 1), k)]
        for n in (5, 6)
        for k in (2, 3, 3, 4)
    ]
    return [
        _suite("bijection_suite", rows=6, semi_rows=5),
        _suite("shape2_suite", rows=6),
        _suite("extension_suite", rows=5, rng_seed=seed),
        _suite("eboard_suite", rows=5),
        {"kind": "conjecture", "which": "sesa", "kwargs": {"k_max": 4, "rows_max": 6}},
        # n_max=8 would take 8.5 s alone; at 7 the list is short enough to
        # repeat three times in a run, which is what keeps wall_s steady here
        _suite("injections_suite", n_max=7),
        {"kind": "embed2", "cases": embed},
        {"kind": "transversal_counts", "cases": avoid},
    ]


def _count_queries(rng: random.Random) -> list[list[str]]:
    """Patterns of length 3-5, one per class kind, each counted at four
    shallow lengths."""
    queries = []
    for kind in COUNT_CLASSES:
        k = rng.randint(3, 5)
        pattern = list(range(1, k + 1))
        rng.shuffle(pattern)
        label = kind
        if kind in ("dset", "aset"):
            ids = sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))
            label = f"{kind}:" + ",".join(map(str, ids))
        ns = range(4, 8) if kind == "all" else range(5, 9)
        queries.extend(
            ["count", "--pattern", perm_text(pattern), "--class", label,
             "--n", str(n), "--json"]
            for n in ns
        )
    return queries


def cached_queries(seed: int) -> list[dict]:
    rng = random.Random(f"cached-queries:{seed}")
    argvs = [
        ["tables", "4rep"],
        ["tables", "6even", "--max-n", "8"],
        ["conjecture", "decreasing", "--k", "4", "--n", "9"],
        ["conjecture", "dk-2134", "--k", "4", "--n", "9"],
        ["conjecture", "dk-1243", "--k", "4", "--n", "9"],
        *_count_queries(rng),
    ]
    cold = [{"kind": "cli", "argv": argv} for argv in argvs]
    patterns = rng.sample(list(itertools.permutations(range(1, 5))), 6)
    cold.append({"kind": "classify", "patterns": [perm_text(p) for p in patterns],
                 "cls": "alt", "lengths": [6, 7, 8]})
    warm = [dict(op, warm_of=i) for i, op in enumerate(cold)]
    return cold + warm


_OPERATION_LISTS = {
    "deep-counts": deep_counts,
    "verify-sweeps": verify_sweeps,
    "cached-queries": cached_queries,
}


def build_ops(workload: str, seed: int) -> list[dict]:
    return _OPERATION_LISTS[workload](seed)


# cached-queries starts from a store of real records for queries it never
# asks: length-6 patterns in classes where it only counts shorter ones.
FIXTURE_CLASSES = ("all", "ralt", "dk:3", "dk:4", "dk:5")
FIXTURE_LENGTHS = (4, 5, 6)


def fixture_records():
    """(pattern, class label, n, count) for the 10,800 fixture queries, with
    counts from the brute-force oracle."""
    for p in itertools.permutations(range(1, 7)):
        for label in FIXTURE_CLASSES:
            for n in FIXTURE_LENGTHS:
                yield perm_text(p), label, n, oracle.count_avoiders(p, label, n)
