"""Brute-force reference values for the benchmark's checks.

Everything here is written from the definitions and shares no code with the
`altperm` package: permutations come from `itertools.permutations`, class
membership is read off the descent set, and containment tests every
subsequence of the right length.  It is slow on purpose and only runs at the
small sizes the benchmark checks with it.
"""
from __future__ import annotations

import itertools
from functools import lru_cache


def pattern_of(seq) -> tuple[int, ...]:
    """Standardization: the i-th smallest entry becomes i."""
    ranks = sorted(seq)
    return tuple(ranks.index(v) + 1 for v in seq)


def contains(w, q) -> bool:
    q = tuple(q)
    return any(pattern_of(sub) == q for sub in itertools.combinations(w, len(q)))


def parse_perm(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    return tuple(int(ch) for ch in text)


def in_class(label: str, w) -> bool:
    """Membership in a class given by its text label:
    all | alt | ralt | dk:K | dset:D | aset:A (1-based boundary indices)."""
    n = len(w)
    descents = {i for i in range(1, n) if w[i - 1] > w[i]}
    boundaries = set(range(1, n))
    if label == "all":
        return True
    if label == "alt":
        return descents == {i for i in boundaries if i % 2 == 0}
    if label == "ralt":
        return descents == {i for i in boundaries if i % 2 == 1}
    kind, _, body = label.partition(":")
    if kind == "dk":
        k = int(body)
        return descents == {i for i in boundaries if i % k == 0}
    ids = {int(p) for p in body.split(",") if p}
    if not ids <= boundaries:
        return False
    if kind == "dset":
        return descents == ids
    if kind == "aset":
        return boundaries - descents == ids
    raise ValueError(f"unknown class label {label!r}")


@lru_cache(maxsize=None)
def members(label: str, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        w for w in itertools.permutations(range(1, n + 1)) if in_class(label, w)
    )


@lru_cache(maxsize=None)
def _patterns_in(label: str, n: int, k: int) -> tuple[frozenset, ...]:
    """For each class member of length n, the set of its length-k patterns."""
    return tuple(
        frozenset(pattern_of(sub) for sub in itertools.combinations(w, k))
        for w in members(label, n)
    )


def count_avoiders(pattern, label: str, n: int) -> int:
    """Members of the class at length n that avoid the pattern."""
    q = tuple(pattern)
    if len(q) > n:
        return len(members(label, n))
    return sum(1 for pats in _patterns_in(label, n, len(q)) if q not in pats)


def valid_transversals(rows, A, D):
    """Column words T (T_i = column of the element in row i) inside the
    diagram with T_i < T_{i+1} for i in A and T_i > T_{i+1} for i in D."""
    n = len(rows)
    for T in itertools.permutations(range(1, n + 1)):
        if any(T[i] > rows[i] for i in range(n)):
            continue
        if all(T[i - 1] < T[i] for i in A) and all(T[i - 1] > T[i] for i in D):
            yield T


def transversal_contains(rows, T, pattern) -> bool:
    """A copy of the pattern matrix among the transversal's points whose
    bottom-right corner (last chosen row, largest chosen column) lies inside
    the diagram."""
    q = tuple(pattern)
    for picked in itertools.combinations(range(len(T)), len(q)):
        cols = [T[i] for i in picked]
        if pattern_of(cols) == q and rows[picked[-1]] >= max(cols):
            return True
    return False


def count_avoiding_transversals(rows, A, D, pattern) -> int:
    return sum(
        1 for T in valid_transversals(rows, A, D)
        if not transversal_contains(rows, T, pattern)
    )
