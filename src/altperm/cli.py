"""Command-line interface: counting, table emission, property suites,
conjecture sweeps, and step tracing.

`verify` takes its suites from `verify.SUITES` and `conjecture` its sweeps
from `equivalence.SWEEPS`: the choices, the size keyword each one reads and
the function to call all come from those tables, so this module names no
suite or sweep.

Exit codes: 0 success, 1 budget exceeded or verification failure, 2 bad
arguments or an unusable cache directory.  A --budget of seconds becomes one
time.perf_counter() deadline that every count and sweep of the command
shares.  The commands raise; `main` alone reports, as one "error: ..." line
on stderr, an overrun (exit 1, "error: budget exceeded..."), a ValueError,
which the package raises only to reject an argument, and an OSError such as
an ALTPERM_CACHE that names a file (both exit 2).  Any other exception, such
as a broken lemma (an AssertionError), keeps its traceback.  Counts are
cached as newline-delimited JSON under the directory named by ALTPERM_CACHE
(default ./.altperm-cache).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

from .perms import parse_class, parse_perm
from .enumeration import AvoidanceQuery, BudgetExceeded, count_avoiders, count_cached, sequence
from .diagrams import is_valid_transversal, is_x_alternating, parse_ad
from .bijection import (
    classify_f,
    classify_j,
    phi_to_fixpoint,
    psi_to_fixpoint,
    selected_copies,
)
from .cache import CountCache
from .equivalence import SWEEPS, check_conjecture
from .tables import TABLES, TABLE_CLASS
from .verify import SUITES

# the keyword each size flag sets, by command; a size not given keeps the
# suite's or sweep's own default
SIZE_FLAGS = {
    "verify": {"--rows": "rows", "--k": "k_max", "--n": "n_max"},
    "conjecture": {"--k": "k_max", "--rows": "rows_max", "--n": "n_max"},
}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def seconds(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be at least 0 seconds, got {text}")
    return value


def deadline_from(budget: float | None) -> float | None:
    """The time.perf_counter() instant `budget` seconds from now, or None."""
    return None if budget is None else time.perf_counter() + budget


def given_sizes(args: argparse.Namespace, name: str, reads: set[str]) -> dict[str, int]:
    """The size flags given to `args.command`, by the keyword each sets;
    ValueError names a given flag whose keyword `name` does not read."""
    given = {}
    for flag, keyword in SIZE_FLAGS[args.command].items():
        value = getattr(args, keyword)
        if value is None:
            continue
        if keyword not in reads:
            raise ValueError(f"{args.command} {name} takes no {flag}")
        given[keyword] = value
    return given


def cmd_count(args: argparse.Namespace) -> int:
    query = AvoidanceQuery(parse_perm(args.pattern), parse_class(args.cls), args.n)
    cache = CountCache()
    deadline = deadline_from(args.budget)
    if args.verify:
        # both readings of the square: top-down alone, and bottom-up as a
        # one-length run, so the recount walks two different state graphs
        result = count_avoiders(query, deadline)
        (count,) = sequence(query.pattern, query.cls, [query.n], deadline=deadline)
        if count != result.count:
            print(
                f"error: top-down count {result.count} but bottom-up count {count}",
                file=sys.stderr,
            )
            return 1
        held = cache.get(query.pattern, query.cls, query.n)
        if held is None:
            cache.put(query.pattern, query.cls, query.n, result.count)
        elif held != result.count:
            print(
                f"error: cache held {held} but recomputation gives {result.count}",
                file=sys.stderr,
            )
            return 1
    else:
        result = count_cached(query, cache, deadline)
    if args.json:
        print(
            json.dumps(
                {
                    "query": {"pattern": args.pattern, "class": query.cls.label(), "n": args.n},
                    "count": result.count,
                    "elapsed_ms": round(result.elapsed * 1000.0, 3),
                    "cached": result.cached,
                    "states": result.states,
                }
            )
        )
    else:
        print(result.count)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    rows = TABLES[args.which]
    cls = parse_class(TABLE_CLASS[args.which])
    cache = CountCache()
    ns = [n for n in sorted(rows[0].counts) if n <= args.max_n]
    if not ns:
        raise ValueError(f"empty {args.which} table: no column at n <= {args.max_n}")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["patterns", *ns])
    deadline = deadline_from(args.budget)
    for row in rows:
        writer.writerow([row.label, *sequence(row.patterns[0], cls, ns, cache, deadline)])
    sys.stdout.write(out.getvalue())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suite, size = SUITES[args.suite]
    results = suite(**given_sizes(args, args.suite, {size}))
    bad = 0
    for r in results:
        if r.ok:
            print(f"PASS {r.name}")
        else:
            bad += 1
            print(f"FAIL {r.name}: {r.detail}")
    return 1 if bad else 0


def cmd_conjecture(args: argparse.Namespace) -> int:
    cache = CountCache()
    _, _, size = SWEEPS[args.which]
    verdict = check_conjecture(
        args.which,
        **given_sizes(args, args.which, {"k_max", size}),
        cache=cache,
        deadline=deadline_from(args.budget),
    )
    if verdict.ok:
        print(f"no counterexample ({verdict.conjecture}, {verdict.swept})")
        return 0
    print(f"counterexample: {verdict.counterexample}")
    return 1


def cmd_trace(args: argparse.Namespace) -> int:
    ady = parse_ad(args.diagram)
    T = parse_perm(args.transversal)
    if not is_valid_transversal(ady, T):
        raise ValueError("not a valid transversal of the triple")
    if not is_x_alternating(ady, 1):
        raise ValueError("the replacement maps need a 1-alternating triple")
    direction = "psi" if args.psi else "phi"
    fix = psi_to_fixpoint if args.psi else phi_to_fixpoint
    steps: dict = {}
    try:
        final = fix(ady, T, steps=steps)
    finally:
        # the table lists the walk in order up to where it ended or raised,
        # and a step was taken at each of its transversals, so each is
        # separable and holds the direction's block
        for index, (before, after) in enumerate(steps.items()):
            j_copy, f_copy = selected_copies(ady, before)
            if args.psi:
                a, t = f_copy, classify_f(ady, before, f_copy)[0]
            else:
                a, t = j_copy, classify_j(ady, before, j_copy)
            print(
                f"{index} {direction} triple={a} type={t} "
                f"{','.join(map(str, before))} -> {','.join(map(str, after))}"
            )
    print(f"fixpoint after {len(steps)} steps: {','.join(map(str, final))}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every call to `main`, built on first use."""
    parser = argparse.ArgumentParser(
        prog="altperm",
        description="Exact enumeration and bijection checks for pattern "
        "avoidance in alternating and descent-type permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count avoiders in a class")
    p_count.add_argument("--pattern", required=True)
    p_count.add_argument(
        "--class", dest="cls", default="all",
        help="all | alt | ralt | dk:K | dset:1,3 | aset:2",
    )
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--json", action="store_true")
    p_count.add_argument("--budget", type=seconds, default=None, help="seconds")
    p_count.add_argument(
        "--verify", action="store_true",
        help="recompute with both readings, even on a cache hit, and compare",
    )
    p_count.set_defaults(func=cmd_count)

    p_tables = sub.add_parser("tables", help="emit a bundled table as CSV")
    p_tables.add_argument("which", choices=sorted(TABLES))
    p_tables.add_argument("--max-n", type=positive_int, default=10, dest="max_n")
    p_tables.add_argument("--budget", type=seconds, default=None, help="seconds")
    p_tables.set_defaults(func=cmd_tables)

    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=list(SUITES))
    for flag, keyword in SIZE_FLAGS["verify"].items():
        p_verify.add_argument(flag, type=positive_int, dest=keyword, metavar=flag[2:].upper())
    p_verify.set_defaults(func=cmd_verify)

    p_conj = sub.add_parser("conjecture", help="sweep a conjecture")
    p_conj.add_argument("which", choices=list(SWEEPS))
    for flag, keyword in SIZE_FLAGS["conjecture"].items():
        p_conj.add_argument(flag, type=int, dest=keyword, metavar=flag[2:].upper())
    p_conj.add_argument("--budget", type=seconds, default=None, help="seconds")
    p_conj.set_defaults(func=cmd_conjecture)

    p_trace = sub.add_parser("trace", help="print replacement steps")
    p_trace.add_argument("--diagram", required=True, help='e.g. "4,4,2,2;A=;D=3"')
    p_trace.add_argument("--transversal", required=True, help='e.g. "3412"')
    p_trace.add_argument(
        "--psi", action="store_true", help="trace the reverse direction"
    )
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
