"""Young diagrams with required ascents/descents, and their transversals.

A Young diagram here always has the same number of rows and columns: a
diagram with r nonempty rows must have first row length r.  Shapes that
would need padding with empty rows are rejected at construction (they admit
no transversal, and silently counting them as zero hides input mistakes).

An AD triple (Y, A, D) adds a required ascent set A and required descent
set D; a transversal t_1..t_n (one marked column per row, all distinct) is
valid when its ascent set contains A and its descent set contains D.
valid_transversals is the package's one constrained lister, filled from
the shortest row up: the members of a permutation class at length n are
the valid transversals of class_square(cls, n).  by_config is the one
per-shape filter, for sweeps over the many triples of one shape.
Transversal containment with its corner rule is perms.contains on the
column word, with the row lengths as tops (transversal_contains,
points_contain).  _count_avoiders is the one avoider counter, a memoized
recursion with two readings: bottom-up over the rows it gives |S_Y(M)|
(count_avoiding_transversals), and over a class's square the class count,
top-down alone or bottom-up in a run of lengths (enumeration).  Its memo
(CountMemo) is keyed by the rows still to read, so a sweep or a run shares
one per pattern across its triples or lengths.

Text forms: a diagram is "4,4,2,2"; an AD triple is "4,4,2,2;A=;D=3".
All row/column indices are 1-based.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .perms import Perm, PermClass, contains, parse_ints

Transversal = tuple[int, ...]


@dataclass(frozen=True)
class YoungDiagram:
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(rows[i] < rows[i + 1] for i in range(n - 1)):
            raise ValueError(f"row lengths must be weakly decreasing: {rows}")
        if n and rows[-1] < 1:
            raise ValueError(f"row lengths must be positive: {rows}")
        if n and rows[0] != n:
            raise ValueError(
                f"diagram must have as many columns as rows (first row {rows[0]}, "
                f"{n} rows); pad-with-empty-rows shapes are rejected"
            )

    @property
    def n(self) -> int:
        return len(self.rows)

    def row_len(self, i: int) -> int:
        return self.rows[i - 1]

    def contains_square(self, i: int, j: int) -> bool:
        return 1 <= i <= self.n and 1 <= j <= self.rows[i - 1]

    def contains_staircase(self) -> bool:
        """Whether Y contains the staircase (n, n-1, ..., 1)."""
        return all(self.rows[i] >= self.n - i for i in range(self.n))

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows)


@dataclass(frozen=True)
class ADYoungDiagram:
    diagram: YoungDiagram
    A: frozenset[int]
    D: frozenset[int]
    relaxed: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", frozenset(self.A))
        object.__setattr__(self, "D", frozenset(self.D))
        n = self.diagram.n
        for i in self.A | self.D:
            if not 1 <= i <= n - 1:
                raise ValueError(f"index {i} outside [{n - 1}]")
        if self.A & self.D:
            raise ValueError("required ascent and descent sets must be disjoint")
        if not self.relaxed:
            rows = self.diagram.rows
            for i in self.A | self.D:
                if rows[i - 1] != rows[i]:
                    raise ValueError(
                        f"rows {i} and {i + 1} differ in length; "
                        "use relaxed=True to evaluate such triples anyway"
                    )

    @property
    def n(self) -> int:
        return self.diagram.n

    def __str__(self) -> str:
        a = ",".join(str(i) for i in sorted(self.A))
        d = ",".join(str(i) for i in sorted(self.D))
        return f"{self.diagram};A={a};D={d}"


def is_ad_young(Y: YoungDiagram, A: Iterable[int], D: Iterable[int]) -> bool:
    """Disjointness plus equal-row-length at every index of A and D."""
    try:
        ADYoungDiagram(Y, frozenset(A), frozenset(D))
    except ValueError:
        return False
    return True


def parse_diagram(text: str) -> YoungDiagram:
    return YoungDiagram(parse_ints(text.strip()))


def parse_ad(text: str) -> ADYoungDiagram:
    """Parse "4,4,2,2;A=;D=3" into an AD triple."""
    parts = text.strip().split(";")
    if len(parts) != 3 or not parts[1].startswith("A=") or not parts[2].startswith("D="):
        raise ValueError(f"expected 'rows;A=..;D=..', got {text!r}")
    Y = parse_diagram(parts[0])
    A = frozenset(parse_ints(parts[1][2:]))
    D = frozenset(parse_ints(parts[2][2:]))
    return ADYoungDiagram(Y, A, D)


# ---------------------------------------------------------------------------
# Alternation predicates


def least_x(ady: ADYoungDiagram, start: int = 0) -> int:
    """The least x at which `ady` is x-alternating (start 0) or
    x-semialternating (start 1).  The window shrinks as x grows, so the
    triple is so at every larger x too."""
    k = ady.n
    for i in range(start, k):
        if (i in ady.A) != (i + 1 in ady.D):
            return k - i + 1
    return 1


def is_x_alternating(ady: ADYoungDiagram, x: int) -> bool:
    """i in A iff i+1 in D over the window 0 <= i <= k-x.

    The i = 0 case forces 1 not in D, so 1-alternating triples pair with
    alternating permutations (which open with an ascent).
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    return x >= least_x(ady)


def is_x_semialternating(ady: ADYoungDiagram, x: int) -> bool:
    """Same biconditional with the window start shifted to i = 1, so a
    leading required descent is allowed (reverse alternating analogue)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return x >= least_x(ady, 1)


# ---------------------------------------------------------------------------
# Transversals


def transversals(Y: YoungDiagram) -> Iterator[Transversal]:
    """All transversals of Y (one column per row, all distinct, inside Y)."""
    return valid_transversals(ADYoungDiagram(Y, frozenset(), frozenset()))


def is_valid_transversal(ady: ADYoungDiagram, T: Sequence[int]) -> bool:
    Y = ady.diagram
    n = Y.n
    if len(T) != n or sorted(T) != list(range(1, n + 1)):
        return False
    if any(T[i] > Y.rows[i] for i in range(n)):
        return False
    for i in ady.A:
        if not T[i - 1] < T[i]:
            return False
    for i in ady.D:
        if not T[i - 1] > T[i]:
            return False
    return True


def valid_transversals(ady: ADYoungDiagram) -> Iterator[Transversal]:
    """Transversals whose ascent set contains A and descent set contains D,
    in lexicographic order of the column word.  This is the one constrained
    lister: the members of a class at length n are the valid transversals
    of class_square(cls, n).  It fills the words from the last (shortest)
    row up, so on a bare shape with the staircase every partial word
    completes; with the new column as the outer loop each row's words come
    out sorted.  The transversals are listed in full before the first one
    is yielded."""
    rows, A, D = ady.diagram.rows, ady.A, ady.D
    words: list[Transversal] = [()]
    for i in range(len(rows) - 1, -1, -1):
        cs = range(1, rows[i] + 1)
        if i + 1 in A:
            words = [(c,) + w for c in cs for w in words if c < w[0] and c not in w]
        elif i + 1 in D:
            words = [(c,) + w for c in cs for w in words if c > w[0] and c not in w]
        else:
            words = [(c,) + w for c in cs for w in words if c not in w]
    yield from words


def by_config(
    ts: Sequence[Transversal], configs: Iterable[ADYoungDiagram]
) -> Iterator[tuple[ADYoungDiagram, list[Transversal]]]:
    """Each AD triple of `configs` with its valid transversals, in the order
    of `ts`, where `ts` is every transversal of the triples' one shape.

    Each transversal's ascent set is read once, as a bitmask; a triple keeps
    the transversals whose mask holds A and misses D (a boundary that is not
    an ascent is a descent).  Sweeps over the many triples of one shape use
    this instead of listing once per triple."""
    ascents = []
    for T in ts:
        m = 0
        for i in range(1, len(T)):
            if T[i - 1] < T[i]:
                m |= 1 << i
        ascents.append(m)
    for ady in configs:
        a = sum(1 << i for i in ady.A)
        d = sum(1 << i for i in ady.D)
        yield ady, [T for T, m in zip(ts, ascents) if m & a == a and not m & d]


def points_contain(
    points: Iterable[tuple[int, int]],
    pattern: Perm,
    Y: YoungDiagram,
) -> bool:
    """Whether a set of (row, col) points contains the permutation matrix of
    `pattern`: rows a_1 < ... < a_r and columns c_1 < ... < c_r among the
    points with the point in row a_i sitting in column c_{pattern_i}, and the
    corner square (a_r, c_r) inside Y.  That is perms.contains on the
    points' columns, read by row, with each point's row length as its top."""
    pts = sorted(points)
    return contains([c for _, c in pts], pattern, [Y.rows[r - 1] for r, _ in pts])


def transversal_contains(Y: YoungDiagram, T: Sequence[int], pattern: Perm) -> bool:
    """Pattern containment for transversals: a copy of M(pattern) whose
    bottom-right corner square lies inside Y, that is a copy in the column
    word whose largest column fits in the row of its last entry."""
    return contains(T, pattern, Y.rows)


# ---------------------------------------------------------------------------
# Counting avoiders

# the counter's memo keys hold a profile id, then every bound and gap in one
# byte, with 255 as the separator between copies
MAX_N = 254


class BudgetExceeded(Exception):
    """Raised when a counting run or a sweep is still going at its deadline."""


def _extend(copy: bytes, lower: list[bool], g: int, cap: int) -> bytes | None:
    """The copy with its next slot filled by gap g, in the gaps left once g
    is placed, or None when an open slot has no gap left.  lower[k] tells
    whether open slot k must take a smaller value than the filled one; no
    open slot may take a gap of `cap` or more."""
    out = []
    for i in range(2, len(copy), 2):
        lo, hi = copy[i], copy[i + 1]
        if lower[i // 2]:
            hi = min(hi, g)
        else:
            lo, hi = max(lo - 1, g), hi - 1
            if hi > cap:
                hi = cap
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


class CountMemo:
    """The memo of _count_avoiders for one pattern, which any number of its
    counts may share: the pattern's tables, the remaining profiles interned
    so far and the count below each memo state.  It takes the pattern of
    its first count and refuses any other."""

    __slots__ = ("pattern", "lower", "shift", "profiles", "states")

    def __init__(self) -> None:
        self.pattern: Perm | None = None
        # lower[j][k]: open slot j + k takes a smaller value than slot j
        self.lower: list[list[bool]] = []
        # shift[g]: placing gap g lowers every bound above g by one
        self.shift: list[bytes] = []
        self.profiles: dict[tuple[int, int, bytes], bytes] = {}
        self.states: dict[bytes, int] = {}


def _count_avoiders(
    ceilings: Sequence[int],
    signs: Sequence[int],
    pattern: Perm,
    deadline: float | None,
    memo: CountMemo | None = None,
) -> tuple[int, int]:
    """The number of ways to fill positions 0..n-1, in this reading order,
    with distinct values so that no copy of the pattern has every entry at
    most the ceiling of its first entry's position, and the number of memo
    states the count added.  Position d takes a value of 1..ceilings[d]
    (weakly increasing); signs[d] is +1 when it must exceed the value
    before, -1 when it must be smaller, 0 when it is free, and signs[0]
    must be 0.  Read bottom-up, the ceiling rule is the corner rule; on a
    square it always holds.

    A value is named by its gap, its rank from 0 among the unplaced values,
    so position d may take the gaps below ceilings[d] - d.  A live copy of
    q (length b) is a matched prefix q[:j] of the placed values, held as
    bytes giving, for each open slot j..b-1, the interval [lo, hi) of gaps
    its value must fall in; a copy's first entry caps every interval below
    that position's ceiling.  The unmatched copy (j = 0) is live while b
    values remain.  Placing gap g extends every copy whose slot-j interval
    holds g, and the branch is cut when that completes q.  A copy is
    dropped once an interval is empty, once fewer values remain than it
    needs, or when another copy makes it redundant (_undominated).

    The count below a memo state depends only on the rows still to read,
    so the memo key is an interned id of the remaining profile (the gap
    ceilings and the signs from d on), the last gap (when the next
    boundary is constrained) and the live copies.  `memo` may be shared by
    any number of counts of one pattern; without it the memo lives for one
    count.  With `deadline` (a time.perf_counter() instant), BudgetExceeded
    is raised at the first memo state reached at or after it.  No
    arrangement avoids the empty pattern.
    """
    n, b = len(ceilings), len(pattern)
    if n > MAX_N:
        raise ValueError(f"at most {MAX_N} positions can be counted")
    if n and signs[0]:
        raise ValueError("the first position has no value before it to compare with")
    if memo is None:
        memo = CountMemo()
    if memo.pattern is None:
        memo.pattern = pattern
        memo.lower = [[pattern[t] < pattern[j] for t in range(j, b)] for j in range(b)]
    elif memo.pattern != pattern:
        raise ValueError(f"this memo counts {memo.pattern}, not {pattern}")
    if b == 0:
        return 0, 0
    shift = memo.shift
    for g in range(len(shift), n):
        shift.append(bytes(range(g + 1)) + bytes(range(g, 255)))
    tops = [c - d for d, c in enumerate(ceilings)]
    # ids[d]: the id of the profile from d on, interned as its first top,
    # its first sign and the id of the profile after it
    ids = [b""] * n
    profiles = memo.profiles
    rest = b""
    for d in range(n - 1, -1, -1):
        profile = (tops[d], signs[d], rest)
        rest = profiles.get(profile)
        if rest is None:
            # a prefix-free id, 7 bits a byte with the high bit set on all
            # but the last, so the ids of a fresh memo take one byte each
            i = len(profiles)
            code = [i & 127]
            while i > 127:
                i >>= 7
                code.append(128 | i & 127)
            rest = profiles[profile] = bytes(reversed(code))
        ids[d] = rest
    states = memo.states
    before = len(states)
    walk = (n, ids, tops, signs, b, memo.lower, shift, states, deadline)
    start = (bytes((0, n) * b),) if b <= n else ()
    return _avoiders(walk, 0, 0, start), len(states) - before


def _avoiders(walk: tuple, d: int, last: int, copies: tuple[bytes, ...]) -> int:
    """The count of _count_avoiders below one memo state; `walk` holds what
    stays fixed for the count.  Not a closure: a recursive closure is a
    reference cycle that keeps the memo alive until gc runs."""
    n, ids, tops, signs, b, lower, shift, memo, deadline = walk
    if d == n:
        return 1
    need = signs[d]
    key = ids[d] + bytes((last if need else 0,)) + b"\xff".join(copies)
    total = memo.get(key)
    if total is not None:
        return total
    if deadline is not None and time.perf_counter() >= deadline:
        raise BudgetExceeded("budget exceeded")
    m = n - d
    top = tops[d]
    # the previous value was at most this ceiling, so `last` <= top
    first, stop = (last, top) if need == 1 else (0, last) if need == -1 else (0, top)
    moves = []
    for c in copies:
        j = b - len(c) // 2
        # skipping g keeps c unless too few values would remain or g
        # was the only gap left for one of its slots
        keep = b - j < m
        only = {c[i] for i in range(0, len(c), 2) if c[i + 1] - c[i] == 1}
        # a copy started here takes no later value above this ceiling
        moves.append((c, j, keep, only, top - 1 if j == 0 else 255))
    total = 0
    for g in range(first, stop):
        after: set[bytes] = set()
        for c, j, keep, only, cap in moves:
            if c[0] <= g < c[1]:
                if j == b - 1:
                    break  # g completes a copy of the pattern
                grown = _extend(c, lower[j], g, cap)
                if grown is not None:
                    after.add(grown)
            if keep and g not in only:
                after.add(c.translate(shift[g]))
        else:
            total += _avoiders(walk, d + 1, g, _undominated(after))
    memo[key] = total
    return total


def count_avoiding_transversals(
    ady: ADYoungDiagram,
    pattern: Perm,
    deadline: float | None = None,
    memo: CountMemo | None = None,
) -> int:
    """|S_Y(M)|: the valid transversals that avoid the pattern matrix,
    counted by _count_avoiders reading the rows bottom-up: the ceilings are
    the row lengths from the last row up, a required ascent asks the row
    read second for the smaller column, and the pattern is read reversed.
    A sweep may hand every count of one pattern the same `memo`, which then
    serves each triple from the states of the triples before it that share
    its top rows; without one the memo lives for this count.  With
    `deadline` (a time.perf_counter() instant), BudgetExceeded is raised at
    the first memo state reached at or after it.

    >>> count_avoiding_transversals(parse_ad("4,4,2,2;A=;D=3"), (1, 2))
    1
    """
    rows = ady.diagram.rows
    signs = [-1 if i in ady.A else 1 if i in ady.D else 0 for i in range(len(rows), 0, -1)]
    return _count_avoiders(rows[::-1], signs, pattern[::-1], deadline, memo)[0]


def j2_canonical_transversal(ady: ADYoungDiagram) -> Transversal | None:
    """The unique transversal avoiding M(21), built right-to-left by placing
    each column in the lowest unoccupied row long enough to hold it; None
    when Y lacks the staircase (then no transversal exists at all).

    Defined for triples with empty required descent set; the result is then
    a valid transversal of the triple.
    """
    if ady.D:
        raise ValueError("canonical M(21)-avoiding transversal needs D = {}")
    Y = ady.diagram
    n = Y.n
    cols_of_row = [0] * (n + 1)
    taken = [False] * (n + 1)
    for c in range(n, 0, -1):
        row = 0
        for i in range(n, 0, -1):
            if not taken[i] and Y.rows[i - 1] >= c:
                row = i
                break
        if row == 0:
            return None
        taken[row] = True
        cols_of_row[row] = c
    return tuple(cols_of_row[1:])


def shape2_closed_form(ady: ADYoungDiagram, pattern: Perm) -> int:
    """Predicted |S_Y(M)| for M(12) and M(21): 1 exactly when Y contains the
    staircase and the relevant required set (A for M(12), D for M(21)) is
    empty, else 0."""
    if pattern == (1, 2):
        blocked = bool(ady.A)
    elif pattern == (2, 1):
        blocked = bool(ady.D)
    else:
        raise ValueError("closed form applies to the patterns 12 and 21 only")
    if not ady.diagram.contains_staircase() or blocked:
        return 0
    return 1


# ---------------------------------------------------------------------------
# Families of diagrams (for exhaustive sweeps)


def all_diagrams(max_rows: int, min_rows: int = 1) -> Iterator[YoungDiagram]:
    """Every square-bounded Young diagram with min_rows..max_rows rows, in
    reverse-lexicographic order of row lengths within each size."""
    for n in range(min_rows, max_rows + 1):
        tails = itertools.combinations_with_replacement(range(n, 0, -1), n - 1)
        for tail in tails:
            yield YoungDiagram((n,) + tail)


def eligible_indices(Y: YoungDiagram) -> list[int]:
    """Indices i where rows i and i+1 have equal length (the only places a
    required ascent or descent may sit)."""
    return [i for i in range(1, Y.n) if Y.rows[i - 1] == Y.rows[i]]


def ad_configs(Y: YoungDiagram) -> Iterator[ADYoungDiagram]:
    """All AD triples on Y: each eligible index goes to A, to D, or to
    neither."""
    elig = eligible_indices(Y)
    for assignment in itertools.product((None, "A", "D"), repeat=len(elig)):
        A = frozenset(i for i, a in zip(elig, assignment) if a == "A")
        D = frozenset(i for i, a in zip(elig, assignment) if a == "D")
        yield ADYoungDiagram(Y, A, D)


def alternating_configs(Y: YoungDiagram) -> Iterator[ADYoungDiagram]:
    """All 1-alternating AD triples on Y.

    These are exactly A ⊆ [n-2] with no two consecutive indices, D = A + 1,
    with every index of A and D eligible.
    """
    elig = set(eligible_indices(Y))
    n = Y.n
    candidates = [i for i in range(1, n - 1) if i in elig and i + 1 in elig]
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            if any(b - a == 1 for a, b in zip(combo, combo[1:])):
                continue
            A = frozenset(combo)
            D = frozenset(i + 1 for i in combo)
            yield ADYoungDiagram(Y, A, D)


def semialternating_configs(Y: YoungDiagram) -> Iterator[ADYoungDiagram]:
    """All 1-semialternating AD triples on Y: the 1-alternating ones plus,
    when row 1 is eligible, the same with 1 added to D."""
    elig = set(eligible_indices(Y))
    for ady in alternating_configs(Y):
        yield ady
        if 1 in elig and 1 not in ady.A and 1 not in ady.D:
            yield ADYoungDiagram(Y, ady.A, ady.D | {1})


def class_square(cls: PermClass, n: int) -> ADYoungDiagram:
    """The n x n square whose valid transversals are exactly the members of
    the class at length n: boundary i is in A where the class forces an
    ascent and in D where it forces a descent."""
    if not cls.feasible(n):
        raise ValueError(f"class {cls.label()} is empty at length {n}")
    A = frozenset(i for i in range(1, n) if cls.required(i, n) == 1)
    D = frozenset(i for i in range(1, n) if cls.required(i, n) == -1)
    return ADYoungDiagram(YoungDiagram((n,) * n), A, D)
