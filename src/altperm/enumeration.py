"""Exhaustive generators and avoidance counters over permutation classes.

Every search here is one prefix-pruned backtracking recursion: values are
placed position by position, class constraints (forced ascent/descent at
each boundary) are applied before the containment prune, and a branch is
abandoned as soon as its prefix contains the forbidden pattern.  The prune
is incremental: after placing a value, only copies of the pattern ending at
that value need to be searched for.  The same recursion lists class
members, counts them, and lists the class-consistent prefixes of a fixed
depth.

The search forest can be split at a fixed depth into independent prefix
jobs whose counts are summed, so parallel runs are schedule-independent.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .perms import (
    Perm,
    PermClass,
    contains,
    contains_ending_here,
)


@dataclass(frozen=True)
class AvoidanceQuery:
    pattern: Perm
    cls: PermClass
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.pattern) < 1:
            raise ValueError("pattern must be nonempty")


@dataclass(frozen=True)
class CountResult:
    query: AvoidanceQuery
    count: int
    elapsed: float
    cached: bool = False


class BudgetExceeded(Exception):
    """Raised when a counting run overruns its time budget."""

    def __init__(self, partial: int, elapsed: float) -> None:
        super().__init__(f"budget exceeded after {elapsed:.1f}s")
        self.partial = partial
        self.elapsed = elapsed


def _search(
    cls: PermClass,
    n: int,
    depth: int,
    pattern: Perm | None = None,
    prefix: Sequence[int] = (),
    out: list[Perm] | None = None,
    budget: float | None = None,
) -> int:
    """Count the class-consistent sequences of `depth` distinct values from
    1..n that extend `prefix`, in lexicographic order, appending each to
    `out` when it is given.

    With `pattern`, a branch whose prefix contains it is abandoned (the
    prefix passed in must avoid it).  With `budget` set, elapsed time is
    checked at depth-2 branch boundaries and BudgetExceeded is raised on
    overrun.  Nothing is counted when the class is empty at length n.
    """
    if not cls.feasible(n):
        return 0
    t0 = time.perf_counter()
    # without a pattern no prefix is ever long enough to be checked
    b = len(pattern) if pattern is not None else depth + 1
    prefix = list(prefix)
    used = [False] * (n + 1)
    for v in prefix:
        used[v] = True
    leaves = 0

    def rec() -> int:
        nonlocal leaves
        d = len(prefix)
        if d == depth:
            leaves += 1
            if out is not None:
                out.append(tuple(prefix))
            return 1
        if budget is not None and d == 2:
            elapsed = time.perf_counter() - t0
            if elapsed > budget:
                raise BudgetExceeded(leaves, elapsed)
        need = cls.required(d, n) if d >= 1 else 0
        last = prefix[-1] if d >= 1 else 0
        subtotal = 0
        for v in range(1, n + 1):
            if used[v]:
                continue
            if need == 1 and v < last:
                continue
            if need == -1 and v > last:
                continue
            prefix.append(v)
            if d + 1 < b or not contains_ending_here(prefix, pattern):
                used[v] = True
                subtotal += rec()
                used[v] = False
            prefix.pop()
        return subtotal

    return rec()


def generate(cls: PermClass, n: int) -> Iterator[Perm]:
    """Yield each member of the class exactly once, in lexicographic order
    of one-line notation.  The stream is empty when the class is empty at
    length n (e.g. a DescentSet index out of range).  The members are
    listed in full before the first one is yielded."""
    members: list[Perm] = []
    _search(cls, n, n, out=members)
    yield from members


def count_class(cls: PermClass, n: int) -> int:
    """Size of the class at length n (no avoidance constraint)."""
    return _search(cls, n, n)


def count_avoiders(
    query: AvoidanceQuery,
    budget: float | None = None,
) -> CountResult:
    """Exact count of class members of length n avoiding the pattern.

    A prefix that already contains the pattern is abandoned: every extension
    would contain it too.  With `budget` set, elapsed time is checked at
    depth-2 branch boundaries and BudgetExceeded is raised on overrun.
    """
    t0 = time.perf_counter()
    count = _search(query.cls, query.n, query.n, query.pattern, budget=budget)
    return CountResult(query, count, time.perf_counter() - t0)


def count_cached(
    query: AvoidanceQuery,
    cache=None,
    deadline: float | None = None,
    jobs: int = 1,
) -> CountResult:
    """The count from the cache if it holds the query, else counted and
    stored there.  `deadline` is a time.perf_counter() instant that a
    single-process count must not run past (BudgetExceeded otherwise);
    `jobs` > 1 counts with that many processes instead."""
    t0 = time.perf_counter()
    if cache is not None:
        hit = cache.get(query.pattern, query.cls, query.n)
        if hit is not None:
            return CountResult(query, hit, time.perf_counter() - t0, cached=True)
    if jobs > 1:
        result = count_avoiders_parallel(query, jobs)
    else:
        budget = None if deadline is None else deadline - t0
        result = count_avoiders(query, budget=budget)
    if cache is not None:
        cache.put(query.pattern, query.cls, query.n, result.count)
    return result


def sequence(
    pattern: Perm,
    cls: PermClass,
    n_max: int,
    cache=None,
) -> list[int]:
    """Counts for n = 1..n_max, consulting/propagating a cache if given."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [
        count_cached(AvoidanceQuery(pattern, cls, n), cache).count
        for n in range(1, n_max + 1)
    ]


# ---------------------------------------------------------------------------
# Prefix partitioning (parallel contract: split at depth 2, sum the parts)


def prefix_jobs(cls: PermClass, n: int, depth: int = 2) -> list[Perm]:
    """Class-consistent prefixes of the given depth; the avoider count at
    length n is the sum of counts over these disjoint subtrees."""
    if n < depth:
        return [()]
    jobs: list[Perm] = []
    _search(cls, n, depth, out=jobs)
    return jobs


def _job_count(args) -> int:
    pattern, cls, n, prefix = args
    if contains(prefix, pattern):
        return 0
    return _search(cls, n, n, pattern, prefix)


def count_avoiders_parallel(query: AvoidanceQuery, jobs: int) -> CountResult:
    """Prefix-partitioned parallel count; the result is independent of
    scheduling because the reduction is a plain sum over disjoint subtrees."""
    t0 = time.perf_counter()
    if jobs <= 1 or query.n < 3:
        return count_avoiders(query)
    import multiprocessing

    parts = prefix_jobs(query.cls, query.n, depth=2)
    work = [(query.pattern, query.cls, query.n, p) for p in parts]
    with multiprocessing.Pool(jobs) as pool:
        count = sum(pool.map(_job_count, work, chunksize=8))
    return CountResult(query, count, time.perf_counter() - t0)
