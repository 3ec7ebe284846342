"""Equivalence classification of patterns over a class, non-equivalence
via doubling numbers, descent-set inequality checks, and conjecture sweeps.

Classification over a finite range of lengths is necessarily provisional:
blocks are reported as "equal up to n_max", never as proven equivalences.
Non-equivalence decisions, by contrast, always carry a concrete witness
length at which the counts differ.

`SWEEPS` registers each conjecture sweep once, by the name `conjecture`
takes, with its first block size and the size keyword it reads besides
k_max; `check_conjecture` and the command line read their checks from it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .perms import (
    ALTERNATING,
    DescentType,
    Perm,
    PermClass,
    doubling,
    reverse,
    reverse_complement,
)
from .enumeration import AvoidanceQuery, BudgetExceeded, count_cached, sequence
from .diagrams import (
    ADYoungDiagram,
    CountMemo,
    all_diagrams,
    count_avoiding_transversals,
    semialternating_configs,
)
from .extension import direct_sum


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class EquivalenceBlock:
    patterns: tuple[Perm, ...]
    counts: tuple[int, ...]
    trivial: bool


@dataclass(frozen=True)
class EquivalenceReport:
    class_label: str
    lengths: tuple[int, ...]
    blocks: tuple[EquivalenceBlock, ...]

    def block_of(self, pattern: Perm) -> EquivalenceBlock:
        for blk in self.blocks:
            if pattern in blk.patterns:
                return blk
        raise KeyError(pattern)


def trivial_symmetry_for(cls: PermClass, lengths: Sequence[int]):
    """The count-preserving pattern symmetry for the given sweep: the one of
    reversal and reverse-complement that maps the class onto itself at
    every given length, read off its forced boundaries (reversal sends
    boundary n - i to boundary i with the opposite sign, reverse-complement
    with the same sign).  Reversal on odd-length alternating sweeps,
    reverse-complement on even ones; None when neither or both qualify."""
    kept = [
        sym
        for sym, flip in ((reverse, -1), (reverse_complement, 1))
        if all(
            cls.required(i, n) == flip * cls.required(n - i, n)
            for n in lengths
            if cls.feasible(n)
            for i in range(1, n)
        )
    ]
    return kept[0] if lengths and len(kept) == 1 else None


def classify(
    patterns: Iterable[Perm],
    cls: PermClass,
    lengths: Sequence[int],
    cache=None,
) -> EquivalenceReport:
    """Partition patterns into blocks with identical count sequences over
    the given lengths.  A block is flagged trivial when it is a single
    orbit of the applicable symmetry (so the matching counts are forced)."""
    patterns = list(dict.fromkeys(tuple(p) for p in patterns))
    if not patterns or not lengths:
        raise ValueError("need at least one pattern and one length")
    sym = trivial_symmetry_for(cls, lengths)
    seqs = {p: tuple(sequence(p, cls, lengths, cache)) for p in patterns}
    groups: dict[tuple[int, ...], list[Perm]] = {}
    for p in patterns:
        groups.setdefault(seqs[p], []).append(p)
    blocks = []
    for counts, members in groups.items():
        trivial = sym is not None and set(members) <= {members[0], sym(members[0])}
        blocks.append(EquivalenceBlock(tuple(members), counts, trivial))
    blocks.sort(key=lambda blk: (-max(blk.counts), blk.patterns))
    return EquivalenceReport(cls.label(), tuple(lengths), tuple(blocks))


# ---------------------------------------------------------------------------
# Non-equivalence from doubling numbers


@dataclass(frozen=True)
class NonequivalenceVerdict:
    decided: bool
    witness_n: int | None = None
    counts: tuple[int, int] | None = None
    reason: str = ""


def doubling_nonequivalence(
    p: Perm, q: Perm, parity: str, cache=None
) -> NonequivalenceVerdict:
    """Decide non-equivalence for alternating permutations of the given
    parity from shortest-container lengths, then confirm with an explicit
    length where the counts differ."""
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if p == q:
        return NonequivalenceVerdict(False, reason="identical patterns")
    # odd lengths are one past even ones: shift the container lengths by
    # the parity, compare half-lengths, and shift the witness back
    odd = int(parity == "odd")
    kp = len(p) + doubling(p).doubling_number - odd
    kq = len(q) + doubling(q).doubling_number - odd
    if math.ceil(kp / 2) == math.ceil(kq / 2):
        return NonequivalenceVerdict(False, reason="ceiling test indecisive")
    n = 2 * math.ceil(min(kp, kq) / 2) + odd
    cp = count_cached(AvoidanceQuery(p, ALTERNATING, n), cache).count
    cq = count_cached(AvoidanceQuery(q, ALTERNATING, n), cache).count
    if cp == cq:
        raise AssertionError(
            f"ceiling test decided but counts agree at n={n}; "
            "the container-length bound is broken"
        )
    return NonequivalenceVerdict(True, n, (cp, cq), "container lengths differ")


# ---------------------------------------------------------------------------
# Descent-set inequalities


@dataclass(frozen=True)
class InequalityReport:
    holds: bool
    details: tuple[tuple[int, int, int], ...]  # (n, lhs, rhs)


def check_ineq_12_21(
    tail: Perm,
    k: int,
    n_max: int,
    cache=None,
) -> InequalityReport:
    """|D^k_n(12q)| <= |D^k_n(21q)| for the tail q (values shifted up by 2),
    n <= n_max, by exact counts over the descent-type class D^k."""
    lhs_pat = direct_sum((1, 2), tail)
    rhs_pat = direct_sum((2, 1), tail)
    cls = DescentType(k)
    lengths = range(1, n_max + 1)
    lhs = sequence(lhs_pat, cls, lengths, cache)
    rhs = sequence(rhs_pat, cls, lengths, cache)
    return InequalityReport(all(a <= b for a, b in zip(lhs, rhs)), tuple(zip(lengths, lhs, rhs)))


def extend1_hypothesis(ady: ADYoungDiagram, r: int) -> bool:
    """Every required descent at index <= n-1-r is immediately preceded by
    a required ascent."""
    n = ady.n
    return all(d - 1 in ady.A for d in ady.D if d <= n - 1 - r)


def extend2_hypothesis(ady: ADYoungDiagram, r: int) -> bool:
    """Every required ascent at index <= n-1-r is immediately followed by
    a required descent."""
    n = ady.n
    return all(a + 1 in ady.D for a in ady.A if a <= n - 1 - r)


def check_extend_inequality(ady: ADYoungDiagram, C: Perm, which: int) -> bool:
    """Compare avoider counts for 12 (+) C against 21 (+) C on one triple;
    `which` selects the direction (1: <=, 2: >=)."""
    lhs = count_avoiding_transversals(ady, direct_sum((1, 2), C))
    rhs = count_avoiding_transversals(ady, direct_sum((2, 1), C))
    return lhs <= rhs if which == 1 else lhs >= rhs


# ---------------------------------------------------------------------------
# Conjecture sweeps


@dataclass(frozen=True)
class ConjectureVerdict:
    conjecture: str
    swept: str
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def _sesa_sweep(k: int, rows_max: int, cache=None, deadline: float | None = None) -> str | None:
    """|S_Y(F_k)| = |S_Y(J_k)| over all 1-semialternating triples within the
    row budget, each side counted by the avoider counter, which checks
    `deadline` at every memo state.  The count store is not read: each side
    keeps one memo for the whole sweep, shared by the triples that share
    their top rows."""
    fk = tuple(range(k - 1, 0, -1)) + (k,)
    jk = tuple(range(k, 0, -1))
    memo_f, memo_j = CountMemo(), CountMemo()
    for Y in all_diagrams(rows_max):
        for ady in semialternating_configs(Y):
            nf = count_avoiding_transversals(ady, fk, deadline, memo_f)
            nj = count_avoiding_transversals(ady, jk, deadline, memo_j)
            if nf != nj:
                return f"{ady} has {nf} vs {nj} at k={k}"
    return None


def _decreasing_sweep(k: int, n_max: int, cache=None, deadline: float | None = None) -> str | None:
    """The decreasing pattern of length k maximizes alternating avoider
    counts: for every other q of the same length, |A_n(q)| <= |A_n(decreasing)|,
    with strict inequality at even n >= 2k-2.  (k = 2 is degenerate:
    alternating permutations of length >= 3 contain both length-2 patterns.)
    One run per pattern, then a scan in (n, q) order."""
    dec = tuple(range(k, 0, -1))
    lengths = range(1, n_max + 1)
    seqs = {
        q: sequence(q, ALTERNATING, lengths, cache, deadline)
        for q in itertools.permutations(range(1, k + 1))
    }
    for n, base in zip(lengths, seqs.pop(dec)):
        for q, counts in seqs.items():
            c = counts[n - 1]
            if c > base:
                return f"|A_{n}({q})| = {c} > {base}"
            if n % 2 == 0 and n >= 2 * k - 2 and c == base:
                return f"equality at even n={n} for {q}"
    return None


def _dk_pair_sweep(
    left: Perm, right: Perm, k: int, n_max: int, cache=None, deadline: float | None = None
) -> str | None:
    """|D^k_n(left)| = |D^k_n(right)| for n <= n_max."""
    cls = DescentType(k)
    lengths = range(1, n_max + 1)
    lhs = sequence(left, cls, lengths, cache, deadline)
    rhs = sequence(right, cls, lengths, cache, deadline)
    for n, a, b in zip(lengths, lhs, rhs):
        if a != b:
            return f"|D^{k}_{n}({left})| = {a} != {b} = |D^{k}_{n}({right})|"
    return None


# Each sweep by the name `conjecture` takes: its function, called as
# sweep(k, size, cache, deadline) for one block size k and returning a
# counterexample or None; its first block size, from which check_conjecture
# runs k up to k_max; and the size keyword it reads besides k_max.  The order
# is the order `conjecture --help` lists them in.
SWEEPS = {
    "sesa": (_sesa_sweep, 3, "rows_max"),
    "decreasing": (_decreasing_sweep, 3, "n_max"),
    "dk-2134": (partial(_dk_pair_sweep, (2, 1, 3, 4), (4, 1, 2, 3)), 1, "n_max"),
    "dk-1243": (partial(_dk_pair_sweep, (1, 2, 4, 3), (2, 3, 4, 1)), 1, "n_max"),
}


def check_conjecture(
    conjecture: str,
    k_max: int = 4,
    rows_max: int = 6,
    n_max: int = 9,
    cache=None,
    deadline: float | None = None,
) -> ConjectureVerdict:
    """Run a named conjecture sweep of `SWEEPS`: "sesa" (decreasing vs
    one-misplaced block on 1-semialternating triples), "decreasing"
    (decreasing pattern is hardest to avoid), "dk-2134" and "dk-1243"
    (descent-type count equalities).  ValueError is raised for an unknown
    name or an empty sweep, and BudgetExceeded, naming the sweep and the
    block size k it reached, when the sweep is still going at `deadline`, a
    time.perf_counter() instant."""
    if conjecture not in SWEEPS:
        raise ValueError(f"unknown conjecture {conjecture!r}")
    sweep, first_k, size_name = SWEEPS[conjecture]
    if k_max < first_k:
        raise ValueError(f"empty {conjecture} sweep: k_max must be at least {first_k}")
    size = {"rows_max": rows_max, "n_max": n_max}[size_name]
    if size < 1:
        raise ValueError(f"empty {conjecture} sweep: {size_name} must be at least 1")
    swept = f"k<={k_max}, {size_name.removesuffix('_max')}<={size}"
    for k in range(first_k, k_max + 1):
        try:
            counterexample = sweep(k, size, cache, deadline)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"budget exceeded during the {conjecture} sweep at k={k}") from exc
        if counterexample is not None:
            return ConjectureVerdict(conjecture, swept, counterexample)
    return ConjectureVerdict(conjecture, swept)
