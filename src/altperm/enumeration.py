"""Exhaustive generators and avoidance counters over permutation classes.

Every search here is one prefix-pruned backtracking recursion: values are
placed position by position, class constraints (forced ascent/descent at
each boundary) are applied before the containment prune, and a branch is
abandoned as soon as its prefix contains the forbidden pattern.  The prune
is incremental: after placing a value, only copies of the pattern ending at
that value need to be searched for.  The same recursion lists class
members and counts them, with or without a pattern.  A count can be given
a deadline, a time.perf_counter() instant that the search checks at every
node; BudgetExceeded is the one way a count reports an overrun.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .perms import Perm, PermClass, contains_ending_here


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
    """Raised when a counting run or a sweep is still going at its deadline."""


def _search(
    cls: PermClass,
    n: int,
    pattern: Perm | None = None,
    out: list[Perm] | None = None,
    deadline: float | None = None,
) -> int:
    """Count the members of the class at length n, in lexicographic order,
    appending each to `out` when it is given.

    With `pattern`, a branch whose prefix contains it is abandoned.  With
    `deadline` (a time.perf_counter() instant), the clock is read at every
    node and BudgetExceeded is raised once it reaches the deadline.
    Nothing is counted when the class is empty at length n.
    """
    if not cls.feasible(n):
        return 0
    clock = time.perf_counter
    t0 = clock()
    # without a pattern no prefix is ever long enough to be checked
    b = len(pattern) if pattern is not None else n + 1
    prefix: list[int] = []
    used = [False] * (n + 1)

    def rec() -> int:
        if deadline is not None and clock() >= deadline:
            raise BudgetExceeded(f"budget exceeded after {clock() - t0:.1f}s")
        d = len(prefix)
        if d == n:
            if out is not None:
                out.append(tuple(prefix))
            return 1
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
    _search(cls, n, out=members)
    yield from members


def count_class(cls: PermClass, n: int) -> int:
    """Size of the class at length n (no avoidance constraint)."""
    return _search(cls, n)


def count_avoiders(
    query: AvoidanceQuery,
    deadline: float | None = None,
) -> CountResult:
    """Exact count of class members of length n avoiding the pattern.

    A prefix that already contains the pattern is abandoned: every extension
    would contain it too.  With `deadline` (a time.perf_counter() instant)
    set, BudgetExceeded is raised at the first search node reached at or
    after it.
    """
    t0 = time.perf_counter()
    count = _search(query.cls, query.n, query.pattern, deadline=deadline)
    return CountResult(query, count, time.perf_counter() - t0)


def count_cached(
    query: AvoidanceQuery,
    cache=None,
    deadline: float | None = None,
) -> CountResult:
    """The count from the cache if it holds the query, else counted (under
    `deadline`, as in count_avoiders) and stored there."""
    t0 = time.perf_counter()
    if cache is not None:
        hit = cache.get(query.pattern, query.cls, query.n)
        if hit is not None:
            return CountResult(query, hit, time.perf_counter() - t0, cached=True)
    result = count_avoiders(query, deadline)
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

