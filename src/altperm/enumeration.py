"""Exhaustive generators and avoidance counters over permutation classes.

The members of a class at length n are the valid transversals of the n x n
square whose required ascents and descents are the class's forced
boundaries (diagrams.class_square), so they are listed and counted by the
one constrained backtracker, diagrams.valid_transversals.  Avoiders are
counted by a memoized recursion that places values position by position
under the same constraints: after each value only the depth, the last
value's rank among the unplaced values and the set of live partial copies
of the pattern matter for what is left to count, so prefixes that agree on
those share one count.  A count can be given a deadline, a
time.perf_counter() instant that the counter checks at every memo state;
BudgetExceeded is the one way a count reports an overrun.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .diagrams import class_square, valid_transversals
from .perms import Perm, PermClass

# memo keys hold every bound, depth and gap in one byte, with 255 as the
# separator between copies
MAX_N = 254


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


class BudgetExceeded(Exception):
    """Raised when a counting run or a sweep is still going at its deadline."""


def generate(cls: PermClass, n: int) -> Iterator[Perm]:
    """Yield each member of the class exactly once, in lexicographic order
    of one-line notation: the valid transversals of the class's square.
    The stream is empty when the class is empty at length n (e.g. a
    DescentSet index out of range).  The members are listed in full before
    the first one is yielded."""
    if cls.feasible(n):
        yield from valid_transversals(class_square(cls, n))


def count_class(cls: PermClass, n: int) -> int:
    """Size of the class at length n (no avoidance constraint)."""
    return sum(1 for _ in generate(cls, n))


def _extend(copy: bytes, lower: list[bool], g: int) -> bytes | None:
    """The copy with its next slot filled by gap g, in the gaps left once g
    is placed, or None when an open slot has no gap left.  lower[k] tells
    whether open slot k must take a smaller value than the filled one."""
    out = []
    for i in range(2, len(copy), 2):
        lo, hi = copy[i], copy[i + 1]
        if lower[i // 2]:
            hi = min(hi, g)
        else:
            lo, hi = max(lo - 1, g), hi - 1
        if lo >= hi:
            return None
        out += (lo, hi)
    return bytes(out)


def _covers(outer: bytes, inner: bytes) -> bool:
    """Whether every interval of copy `outer` holds the one of copy `inner`
    on the same slot; outer's open slots are the last ones of inner's."""
    off = len(inner) - len(outer)
    for i in range(0, len(outer), 2):
        if outer[i] > inner[off + i] or outer[i + 1] < inner[off + i + 1]:
            return False
    return True


def _order(copy: bytes) -> tuple[int, int, bytes]:
    # most matched entries first, then widest intervals: a copy can only be
    # made redundant by one that sorts before it
    return len(copy), sum(copy[0::2]) - sum(copy[1::2]), copy


def _undominated(copies: set[bytes]) -> tuple[bytes, ...]:
    """The copies that no other one makes redundant, in a canonical order.

    A copy with at least as many matched entries whose intervals hold this
    one's on every slot it still has open completes whenever this one
    does, so only it needs to be followed."""
    kept: list[bytes] = []
    for c in sorted(copies, key=_order):
        if not any(_covers(a, c) for a in kept):
            kept.append(c)
    return tuple(kept)


def _count_memo(
    pattern: Perm,
    cls: PermClass,
    n: int,
    deadline: float | None,
) -> tuple[int, int]:
    """The number of class members of length n avoiding the pattern, and
    the number of memo states the count visited.

    Values are placed left to right.  A value is named by its gap: its rank,
    from 0, among the values not yet placed.  A live copy of the pattern q
    (length b) is a matched prefix q[:j] of the placed values, held as bytes
    giving, for each open slot j..b-1, the interval [lo, hi) of gaps the
    slot's value must fall in.  The unmatched copy, j = 0, is live while
    b values remain.  Placing gap g extends every copy whose slot-j interval
    holds g, and the branch is cut when that completes q.  A copy is
    dropped once an interval is empty, once fewer values remain than it
    still needs, or when another copy makes it redundant (_undominated).
    The rest of the count depends only on the depth, the last gap (when the
    next boundary is constrained) and the live copies, which make the memo
    key; the memo lives for one count.
    """
    if not cls.feasible(n):
        return 0, 0
    b = len(pattern)
    # lower[j][k]: open slot j + k takes a smaller value than slot j
    lower = [[pattern[t] < pattern[j] for t in range(j, b)] for j in range(b)]
    # placing gap g lowers every bound above g by one
    shift = [bytes(range(g + 1)) + bytes(range(g, 255)) for g in range(n)]
    memo: dict[bytes, int] = {}
    clock = time.perf_counter
    t0 = clock()

    def rec(d: int, last: int, copies: tuple[bytes, ...]) -> int:
        if d == n:
            return 1
        need = cls.required(d, n) if d >= 1 else 0
        key = bytes((d, last if need else 0)) + b"\xff".join(copies)
        total = memo.get(key)
        if total is not None:
            return total
        if deadline is not None and clock() >= deadline:
            raise BudgetExceeded(f"budget exceeded after {clock() - t0:.1f}s")
        m = n - d
        first, stop = (last, m) if need == 1 else (0, last) if need == -1 else (0, m)
        moves = []
        for c in copies:
            j = b - len(c) // 2
            # skipping g keeps c unless too few values would remain or g
            # was the only gap left for one of its slots
            keep = b - j < m
            only = {c[i] for i in range(0, len(c), 2) if c[i + 1] - c[i] == 1}
            moves.append((c, j, keep, only))
        total = 0
        for g in range(first, stop):
            after: set[bytes] = set()
            for c, j, keep, only in moves:
                if c[0] <= g < c[1]:
                    if j == b - 1:
                        break  # g completes a copy of the pattern
                    grown = _extend(c, lower[j], g)
                    if grown is not None:
                        after.add(grown)
                if keep and g not in only:
                    after.add(c.translate(shift[g]))
            else:
                total += rec(d + 1, g, _undominated(after))
        memo[key] = total
        return total

    start = (bytes((0, n) * b),) if b <= n else ()
    return rec(0, 0, start), len(memo)


def count_avoiders(
    query: AvoidanceQuery,
    deadline: float | None = None,
) -> CountResult:
    """Exact count of class members of length n avoiding the pattern, by
    the memoized recursion of _count_memo; `states` is its memo size.
    With `deadline` (a time.perf_counter() instant) set, BudgetExceeded is
    raised at the first memo state reached at or after it.
    """
    t0 = time.perf_counter()
    count, states = _count_memo(query.pattern, query.cls, query.n, deadline)
    return CountResult(query, count, time.perf_counter() - t0, states=states)


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

