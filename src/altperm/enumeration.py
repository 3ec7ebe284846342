"""Exhaustive generators and avoidance counters over permutation classes.

The members of a class at length n are the valid transversals of the n x n
square whose required ascents and descents are the class's forced
boundaries (diagrams.class_square), so they are listed by the one
constrained lister, diagrams.valid_transversals.  Avoiders are
counted by the one avoider counter of diagrams, read down the same square
(a lone count) or up it (a run, `sequence`, whose lengths share one memo).
They are listed by `avoiders`, which grows each length's list from the one
before by one entry, testing only the copies that end at it.
A count can be given a deadline, a time.perf_counter() instant that the
counter checks at every memo state; BudgetExceeded is the one way a count
reports an overrun.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .diagrams import (
    MAX_N,
    BudgetExceeded,
    CountMemo,
    _count_avoiders,
    class_square,
    count_avoiding_transversals,
    valid_transversals,
)
from .perms import Perm, PermClass, contains


@dataclass(frozen=True)
class AvoidanceQuery:
    pattern: Perm
    cls: PermClass
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.n > MAX_N:
            raise ValueError(f"n must be at most {MAX_N}")
        if len(self.pattern) < 1:
            raise ValueError("pattern must be nonempty")


@dataclass(frozen=True)
class CountResult:
    query: AvoidanceQuery
    count: int
    elapsed: float
    cached: bool = False
    states: int = 0


def generate(cls: PermClass, n: int) -> Iterator[Perm]:
    """Yield each member of the class exactly once, in lexicographic order
    of one-line notation: the valid transversals of the class's square.
    The stream is empty when the class is empty at length n (e.g. a
    DescentSet index out of range).  The members are listed in full before
    the first one is yielded."""
    if cls.feasible(n):
        yield from valid_transversals(class_square(cls, n))


def avoiders(pattern: Perm, cls: PermClass, n_max: int) -> dict[int, set[Perm]]:
    """The class members of each length n <= n_max that avoid the pattern.

    Avoidance and the class's boundaries (`required(i, n)` reads i alone)
    are closed under taking prefixes, so each avoider of length n + 1 is an
    avoider p of length n, its values >= v raised by one, followed by a
    value v that boundary n allows against p[-1]; it avoids the pattern iff
    no copy ends at v.  A class empty at some length (a DescentSet or
    AscentSet that names an index) is not prefix-closed: ValueError.
    """
    if not all(map(cls.feasible, range(n_max + 1))):
        raise ValueError(f"{cls.label()} is empty at some length, so its avoiders cannot grow")
    out = {0: {()} if pattern else set()}
    for n in range(n_max):
        level = out[n + 1] = set()
        need = cls.required(n, n + 1) if n else 0
        for p in out[n]:
            top = p[-1] if n else 0
            for v in range(top + 1 if need == 1 else 1, top + 1 if need == -1 else n + 2):
                w = tuple([x + (x >= v) for x in p]) + (v,)
                if not contains(w, pattern, ending=True):
                    level.add(w)
    return out


def count_class(cls: PermClass, n: int) -> int:
    """Size of the class at length n: its avoiders of a pattern longer than
    any member."""
    return count_avoiders(AvoidanceQuery(tuple(range(1, n + 2)), cls, n)).count


def count_avoiders(
    query: AvoidanceQuery,
    deadline: float | None = None,
    memo: CountMemo | None = None,
) -> CountResult:
    """Exact count of class members of length n avoiding the pattern: the
    avoider counter of diagrams, reading the class's square top down (every
    ceiling n, the class's forced boundaries as signs, the pattern as
    given), or bottom-up into `memo` when one is given; `states` is the
    number of memo states it added.  With `deadline` (a
    time.perf_counter() instant) set, BudgetExceeded is raised at the first
    memo state reached at or after it.
    """
    t0 = time.perf_counter()
    cls, n = query.cls, query.n
    count = states = 0
    if cls.feasible(n) and memo is None:
        # boundary i of the class lies before position i; position 0 has none
        signs = [cls.required(i, n) if i else 0 for i in range(n)]
        count, states = _count_avoiders((n,) * n, signs, query.pattern, deadline)
    elif cls.feasible(n):
        before = len(memo.states)
        count = count_avoiding_transversals(class_square(cls, n), query.pattern, deadline, memo)
        states = len(memo.states) - before
    return CountResult(query, count, time.perf_counter() - t0, states=states)


def count_cached(
    query: AvoidanceQuery,
    cache=None,
    deadline: float | None = None,
    memo: CountMemo | None = None,
) -> CountResult:
    """The count from the cache if it holds the query, else counted (under
    `deadline` and through `memo`, as in count_avoiders) and stored there."""
    t0 = time.perf_counter()
    if cache is not None:
        hit = cache.get(query.pattern, query.cls, query.n)
        if hit is not None:
            return CountResult(query, hit, time.perf_counter() - t0, cached=True)
    result = count_avoiders(query, deadline, memo)
    if cache is not None:
        cache.put(query.pattern, query.cls, query.n, result.count)
    return result


def sequence(
    pattern: Perm,
    cls: PermClass,
    lengths: Iterable[int],
    cache=None,
    deadline: float | None = None,
) -> list[int]:
    """The counts at the given lengths, each through count_cached.  Read
    bottom-up, the rows still to read are a square's top rows, whose signs
    no class ties to n, so one memo serves every length of the run."""
    memo = CountMemo()
    return [
        count_cached(AvoidanceQuery(pattern, cls, n), cache, deadline, memo).count
        for n in lengths
    ]
