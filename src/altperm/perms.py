"""Permutations in one-line notation, pattern containment, and descent statistics.

A permutation of length n is a tuple of the values 1..n, each appearing once
(one-line notation).  The empty tuple is the empty permutation.  All indices
in docstrings are 1-based, matching the usual combinatorial conventions;
Python-level tuple indexing is of course 0-based.

`contains` is the package's one pattern matcher.  It has two modes: its
optional `tops` give transversal containment its corner rule (diagrams),
and `ending=True` counts only copies that end at the last entry, the test
that grows an avoider one entry at a time (enumeration.avoiders).  The
search is one loop over an explicit stack of chosen values (`_embed`); a
value fits the next slot when it lies between the values of the slot's
two order neighbours among the earlier slots, read from a table built
once per pattern and kept in a bounded cache (`_neighbours`).

Text I/O is 1-based: a permutation prints as a comma-free digit string for
n <= 9 ("35624718") and comma-separated for n >= 10 ("10,3,1,...").  Both
forms are accepted on input.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def is_perm(w: Sequence[int]) -> bool:
    """Check that w is a rearrangement of 1..len(w).

    >>> is_perm(()), is_perm((2, 1, 3)), is_perm((1, 1)), is_perm((0, 1))
    (True, True, False, False)
    """
    n = len(w)
    return sorted(w) == list(range(1, n + 1))


def standardize(seq: Sequence[int]) -> Perm:
    """Pattern of a sequence of distinct integers: replace the i-th smallest
    value by i.

    >>> standardize((2, 4, 6))
    (1, 2, 3)
    >>> standardize((5, 1, 4))
    (3, 1, 2)
    """
    order = sorted(range(len(seq)), key=seq.__getitem__)
    out = [0] * len(seq)
    for rank, idx in enumerate(order, start=1):
        out[idx] = rank
    return tuple(out)


def parse_perm(text: str) -> Perm:
    """Parse one-line notation, digit-string or comma-separated.

    >>> parse_perm("35624718")
    (3, 5, 6, 2, 4, 7, 1, 8)
    >>> parse_perm("10,3,1,2,4,5,6,7,8,9")[:2]
    (10, 3)
    """
    text = text.strip()
    w = parse_ints(text) if "," in text else tuple(_parse_int(ch, text) for ch in text)
    if not is_perm(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {text!r}")
    return w


def _parse_int(field: str, text: str) -> int:
    """int(field), with a ValueError that names the field and the text it
    came from."""
    try:
        return int(field)
    except ValueError:
        raise ValueError(f"not an integer: {field!r} in {text!r}") from None


def parse_ints(text: str) -> tuple[int, ...]:
    """Parse comma-separated integers.  The empty string is the empty
    tuple; a ValueError names the text when a field is empty or not an
    integer.

    >>> parse_ints("3, 1,2"), parse_ints("")
    ((3, 1, 2), ())
    """
    if not text:
        return ()
    fields = text.split(",")
    if not all(field.strip() for field in fields):
        raise ValueError(f"empty field in the comma-separated list {text!r}")
    return tuple(_parse_int(field, text) for field in fields)


def format_perm(w: Perm) -> str:
    """Emit one-line notation; digit string for n <= 9, else comma-separated."""
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def complement(w: Perm) -> Perm:
    """Map each value v to n+1-v.

    >>> complement((1, 2, 3))
    (3, 2, 1)
    """
    n = len(w)
    return tuple(n + 1 - v for v in w)


def reverse(w: Perm) -> Perm:
    return w[::-1]


def reverse_complement(w: Perm) -> Perm:
    return complement(w[::-1])


def contains(
    w: Sequence[int], q: Perm, tops: Sequence[int] | None = None, ending: bool = False
) -> bool:
    """True iff some subsequence of w is order-isomorphic to q.  Works on
    any sequence of distinct values, not only full permutations.

    With `tops`, a copy counts only when its largest value (its entry at
    q's peak slot) is at most tops[i], where i is the position of its last
    entry.  On the column word of a transversal with tops the row lengths,
    that is the corner rule of transversal containment.

    With `ending`, a copy counts only when its last entry is w's last
    entry (`tops` is not read): if w[:-1] avoids q, w avoids q iff this
    is False.  The search runs on w and q reversed with slot 0 held at
    the new entry, which bounds every other slot from the start.

    The search fills q's slots left to right in one loop (`_embed`), backing
    up when a slot has no candidate left.  A value fits slot j when it lies
    strictly between the values chosen for the two earlier slots that hold
    q_j's nearest lower and nearest higher values (`_neighbours`), which
    puts it in the right order against every earlier slot at once.

    The empty pattern is contained in everything; nothing of positive length
    is contained in the empty permutation.

    >>> contains((2, 1, 4, 5, 3, 6), (1, 2, 3))
    True
    >>> contains((1, 2, 3, 4), (2, 1))
    False
    >>> rows = (6, 6, 6, 6, 5, 4)
    >>> contains((3, 4, 6, 5, 2, 1), (2, 3, 1), rows)
    True
    >>> contains((3, 4, 6, 5, 2, 1), (4, 3, 2, 1), rows)
    False
    >>> contains((2, 1, 4, 5, 3), (1, 2, 3), ending=True)
    False
    """
    b = len(q)
    if b == 0:
        return True
    if b > len(w):
        return False
    if ending:
        return b == 1 or _embed(w[::-1], q[::-1], None, 1)
    return _embed(w, q, tops)


def contains_ending_here(w: Sequence[int], q: Perm) -> bool:
    """`contains` in its `ending` mode."""
    return contains(w, q, ending=True)


# room for every pattern of length <= 4 (33 of them) and the few longer ones
# a sweep tests over and over; a sweep that uses each pattern once, as the
# injection suite does with its avoiders, rebuilds tables instead of holding
# them
@functools.lru_cache(maxsize=64)
def _neighbours(q: Perm) -> tuple[tuple[int, ...], tuple[int, ...], int, tuple[float, ...]]:
    """For each slot j of q, the earlier slot holding the nearest value below
    q_j and the one holding the nearest value above it, with b and b + 1
    (b = len(q)) standing for "none"; q's peak slot; and the starting row of
    chosen values for `_embed`: b zeros, then -inf and +inf at b and b + 1.

    Slots are removed from a linked list of the values 1..b from the last
    slot back, so when slot j is reached the list holds exactly q's first
    j + 1 values and q_j's neighbours in it are the ones sought.

    >>> _neighbours((2, 3, 1))[:3]
    ((3, 0, 3), (4, 4, 0), 1)
    """
    b = len(q)
    slot = [0] * (b + 2)
    slot[0], slot[b + 1] = b, b + 1
    for j, v in enumerate(q):
        slot[v] = j
    below = list(range(-1, b + 1))
    above = list(range(1, b + 3))
    lo, hi = [0] * b, [0] * b
    for j in range(b - 1, -1, -1):
        v = q[j]
        p, s = below[v], above[v]
        lo[j], hi[j] = slot[p], slot[s]
        above[p], below[s] = s, p
    return tuple(lo), tuple(hi), q.index(b), (0,) * b + (-math.inf, math.inf)


def _embed(w: Sequence[int], q: Perm, tops: Sequence[int] | None, first: int = 0) -> bool:
    """Whether w holds a copy of q (within `tops`, read at the peak slot),
    for 1 <= len(q) <= len(w).  One loop fills the slots left to right:
    chosen[j] is the value taken for slot j and resume[j] the index of w
    after it, where slot j's next candidate is sought when the search backs
    up to it.  A candidate for slot j must leave enough of w for the slots
    after it.  With first = 1 (len(q) >= 2), slot 0 is held at w[0] and
    the search never backs up to it."""
    lo, hi, peak, start = _neighbours(q)
    chosen = list(start)
    resume = [0] * len(q)
    last = len(q) - 1
    stop = len(w) - last
    if first:
        chosen[0] = w[0]
    j = i = first
    while True:
        low, high = chosen[lo[j]], chosen[hi[j]]
        end = stop + j
        while i < end:
            v = w[i]
            i += 1
            if low < v < high:
                break
        else:
            if j == first:
                return False
            j -= 1
            i = resume[j]
            continue
        if j == last:
            if tops is None or (v if peak == j else chosen[peak]) <= tops[i - 1]:
                return True
            continue
        chosen[j] = v
        resume[j] = i
        j += 1


def descent_set(w: Perm) -> frozenset[int]:
    """Positions i in [n-1] with w_i > w_{i+1}.

    >>> sorted(descent_set((2, 4, 5, 3, 7, 8, 1, 6)))
    [3, 6]
    """
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def ascent_set(w: Perm) -> frozenset[int]:
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] < w[i + 1])


# ---------------------------------------------------------------------------
# Permutation classes


@dataclass(frozen=True)
class PermClass:
    """A family of permutations cut out by ascent/descent constraints.

    `required(i, n)` reports the constraint at boundary i in [n-1]:
    +1 forced ascent, -1 forced descent, 0 free.  `feasible(n)` is False only
    when the class is empty at length n for structural reasons (an index out
    of range).
    """

    def required(self, i: int, n: int) -> int:
        raise NotImplementedError

    def feasible(self, n: int) -> bool:
        return True

    def member(self, w: Perm) -> bool:
        n = len(w)
        if not self.feasible(n):
            return False
        for i in range(1, n):
            need = self.required(i, n)
            if need == 1 and not w[i - 1] < w[i]:
                return False
            if need == -1 and not w[i - 1] > w[i]:
                return False
        return True

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class All(PermClass):
    def required(self, i: int, n: int) -> int:
        return 0

    def label(self) -> str:
        return "all"


@dataclass(frozen=True)
class Alternating(PermClass):
    """w_1 < w_2 > w_3 < ... : ascents at odd boundaries, descents at even."""

    def required(self, i: int, n: int) -> int:
        return 1 if i % 2 == 1 else -1

    def label(self) -> str:
        return "alt"


@dataclass(frozen=True)
class ReverseAlternating(PermClass):
    """w_1 > w_2 < w_3 > ... : the complement of Alternating."""

    def required(self, i: int, n: int) -> int:
        return -1 if i % 2 == 1 else 1

    def label(self) -> str:
        return "ralt"


@dataclass(frozen=True)
class DescentType(PermClass):
    """Ascending rows of length k separated by descents: descents exactly at
    the boundaries k, 2k, 3k, ... that are < n.  DescentType(2) is Alternating.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("descent type requires k >= 1")

    def required(self, i: int, n: int) -> int:
        return -1 if i % self.k == 0 else 1

    def label(self) -> str:
        return f"dk:{self.k}"


@dataclass(frozen=True)
class DescentSet(PermClass):
    """Permutations whose descent set is exactly D."""

    D: frozenset[int]

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.D):
            raise ValueError("descent set indices must be at least 1")

    def required(self, i: int, n: int) -> int:
        return -1 if i in self.D else 1

    def feasible(self, n: int) -> bool:
        return all(1 <= d <= n - 1 for d in self.D)

    def label(self) -> str:
        return "dset:" + ",".join(str(d) for d in sorted(self.D))


@dataclass(frozen=True)
class AscentSet(PermClass):
    """Permutations whose ascent set is exactly A."""

    A: frozenset[int]

    def __post_init__(self) -> None:
        if any(a < 1 for a in self.A):
            raise ValueError("ascent set indices must be at least 1")

    def required(self, i: int, n: int) -> int:
        return 1 if i in self.A else -1

    def feasible(self, n: int) -> bool:
        return all(1 <= a <= n - 1 for a in self.A)

    def label(self) -> str:
        return "aset:" + ",".join(str(a) for a in sorted(self.A))


ALL = All()
ALTERNATING = Alternating()
REVERSE_ALTERNATING = ReverseAlternating()


def parse_class(text: str) -> PermClass:
    """Parse a class label: all | alt | ralt | dk:K | dset:1,3 | aset:2."""
    text = text.strip()
    if text == "all":
        return ALL
    if text == "alt":
        return ALTERNATING
    if text == "ralt":
        return REVERSE_ALTERNATING
    if text.startswith("dk:"):
        return DescentType(_parse_int(text[3:], text))
    if text.startswith("dset:"):
        return DescentSet(frozenset(parse_ints(text[5:])))
    if text.startswith("aset:"):
        return AscentSet(frozenset(parse_ints(text[5:])))
    raise ValueError(f"unknown permutation class: {text!r}")


# ---------------------------------------------------------------------------
# Doubling sets


@dataclass(frozen=True)
class DoublingProfile:
    doubling_set: frozenset[int]
    doubling_number: int


def doubling(p: Perm) -> DoublingProfile:
    """Double ascents and double descents of p, with the sentinel p_0 = +inf.

    Index i in [n-1] belongs to the doubling set when p_{i-1} > p_i > p_{i+1}
    or p_{i-1} < p_i < p_{i+1}.  The sentinel makes an initial descent count
    as a double descent; alternating permutations are exactly those with
    doubling number 0.

    >>> sorted(doubling((1, 2, 3)).doubling_set)
    [2]
    >>> doubling((3, 2, 1)).doubling_number
    2
    """
    n = len(p)
    if n == 0:
        raise ValueError("doubling is defined for length >= 1")
    dset = []
    for i in range(1, n):
        prev = p[i - 2] if i >= 2 else n + 1  # p_0 = +infinity sentinel
        if prev > p[i - 1] > p[i] or prev < p[i - 1] < p[i]:
            dset.append(i)
    return DoublingProfile(frozenset(dset), len(dset))


def shortest_alternating_container(p: Perm) -> Perm:
    """An alternating permutation of length k + t containing p, where t is
    the doubling number of p; this length is minimal.

    The construction places p_m at position f(m) = m + |d(p) ∩ [m-1]| and
    fills each skipped position with a value that repairs alternation: a new
    minimum at odd gap positions, a new maximum at even ones.

    >>> shortest_alternating_container((3, 2, 1))
    (3, 5, 2, 4, 1)
    >>> shortest_alternating_container((1, 3, 2))
    (1, 3, 2)
    """
    k = len(p)
    if k == 0:
        raise ValueError("requires length >= 1")
    d = doubling(p).doubling_set
    t = len(d)
    total = k + t
    pos = []
    shift = 0
    for m in range(1, k + 1):
        pos.append(m + shift)
        if m in d:
            shift += 1
    placed = dict(zip(pos, p))
    gaps = [i for i in range(1, total + 1) if i not in placed]
    low_gaps = [i for i in gaps if i % 2 == 1]
    high_gaps = [i for i in gaps if i % 2 == 0]
    w = [0] * total
    for i, v in placed.items():
        w[i - 1] = v + len(low_gaps)
    for rank, i in enumerate(sorted(low_gaps), start=1):
        w[i - 1] = rank
    for rank, i in enumerate(sorted(high_gaps)):
        w[i - 1] = total - rank
    return tuple(w)


def perms_of(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))
