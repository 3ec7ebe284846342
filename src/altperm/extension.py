"""Dominance machinery: dominant squares, non-dominant sets, successor
diagrams, reinsertion, and the block-sum counting identity.

Fix a transversal T of an AD triple and an r x r block pattern C.  A square
(a, b) of Y is dominant when the T-elements strictly southeast of it contain
C.  Deleting from the region of dominant squares every row and column that
holds a non-dominant T-element leaves a smaller AD triple (the successor);
its required sets keep exactly the constraints between rows that stayed
adjacent.  Transversals of the parent avoiding P (+) C with a fixed
non-dominant set correspond bijectively to transversals of the successor
avoiding P, which is what `verify_embed2` checks by counting both sides.

Everything here is desk-scale: dominance is recomputed per query and the
family of realizable non-dominant sets is materialized by iterating all
valid transversals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .perms import Perm
from .diagrams import (
    ADYoungDiagram,
    Transversal,
    YoungDiagram,
    count_avoiding_transversals as count_avoiders_of,
    points_contain,
    valid_transversals,
)


def direct_sum(p: Perm, q: Perm) -> Perm:
    """Pattern of the block-diagonal sum M(p) (+) M(q).

    >>> direct_sum((2, 1), (1, 2))
    (2, 1, 3, 4)
    """
    off = len(p)
    return p + tuple(v + off for v in q)


def is_dominant(Y: YoungDiagram, T: Sequence[int], C: Perm, a: int, b: int) -> bool:
    """Whether the strict-southeast restriction of T at (a, b) contains C."""
    pts = [(i + 1, T[i]) for i in range(len(T)) if i + 1 > a and T[i] > b]
    return points_contain(pts, C, Y)


def dominant_region(Y: YoungDiagram, T: Sequence[int], C: Perm) -> tuple[int, ...]:
    """Row lengths of the set of dominant squares (a Young-diagram shape,
    upper-left justified; rows may be zero and trailing rows are kept so the
    tuple always has Y.n entries)."""
    n = Y.n
    lens = []
    prev = n
    for a in range(1, n + 1):
        # dominance is monotone: southeast regions shrink as b grows, and
        # row a's dominant run cannot exceed row a-1's.
        hi = min(prev, Y.rows[a - 1])
        run = 0
        for b in range(1, hi + 1):
            if is_dominant(Y, T, C, a, b):
                run = b
            else:
                break
        lens.append(run)
        prev = run
    return tuple(lens)


def nondominant_set(
    Y: YoungDiagram, T: Sequence[int], C: Perm
) -> frozenset[tuple[int, int]]:
    """T-elements whose own square is not dominant."""
    return successor_parts(Y, T, C)[1]


@dataclass(frozen=True)
class SuccessorDiagram:
    """Successor triple plus the row/column maps back into the parent."""

    child: ADYoungDiagram
    row_map: tuple[int, ...]
    col_map: tuple[int, ...]
    nondominant: frozenset[tuple[int, int]]


def successor_parts(
    Y: YoungDiagram, T: Sequence[int], C: Perm
) -> tuple[tuple[int, ...], frozenset[tuple[int, int]]]:
    """Dominant region and non-dominant set of one transversal; these are
    independent of the required ascent/descent sets.  Dominance is monotone,
    so T's element in row i is non-dominant exactly when its column lies
    right of the region's row i."""
    region = dominant_region(Y, T, C)
    return region, frozenset((i + 1, c) for i, c in enumerate(T) if c > region[i])


def successor(ady: ADYoungDiagram, T: Sequence[int], C: Perm) -> SuccessorDiagram:
    """Build the successor triple from the dominant region of T.

    Rows and columns holding a non-dominant T-element are deleted from the
    dominant region; the i-th kept row/column was row r_i / column c_i of
    the parent.  The successor's required sets keep an index i exactly when
    r_i carried the constraint and r_{i+1} = r_i + 1.
    """
    region, nond = successor_parts(ady.diagram, T, C)
    return successor_from_parts(ady, successor_shape(ady.diagram, region, nond))


def successor_shape(
    Y: YoungDiagram, region: tuple[int, ...], nond: frozenset[tuple[int, int]]
) -> SuccessorDiagram:
    """The successor of the bare triple on Y, the one with no required
    sets: the child's diagram and the row and column maps, which every
    triple on Y shares for this region and non-dominant set."""
    n = Y.n
    dead_rows = {i for (i, _) in nond}
    dead_cols = {c for (_, c) in nond}
    rows_kept = tuple(i for i in range(1, n + 1) if i not in dead_rows)
    cols_kept = tuple(c for c in range(1, n + 1) if c not in dead_cols)
    new_rows = []
    for i in rows_kept:
        new_rows.append(sum(1 for c in cols_kept if c <= region[i - 1]))
    bare = ADYoungDiagram(YoungDiagram(tuple(new_rows)), frozenset(), frozenset())
    return SuccessorDiagram(bare, rows_kept, cols_kept, nond)


def successor_from_parts(ady: ADYoungDiagram, shape: SuccessorDiagram) -> SuccessorDiagram:
    """The successor of `ady` whose shape-level part is `shape`: its child
    keeps the required sets of `ady` on the kept rows that stay adjacent."""
    rows_kept = shape.row_map
    # (i, r_i) for each kept row r_i whose next row r_i + 1 is kept too
    kept = [(i, r) for i, r in enumerate(rows_kept, 1) if r + 1 in rows_kept]
    A2 = frozenset(i for i, r in kept if r in ady.A)
    D2 = frozenset(i for i, r in kept if r in ady.D)
    child = ADYoungDiagram(shape.child.diagram, A2, D2)
    return SuccessorDiagram(child, rows_kept, shape.col_map, shape.nondominant)


def delete_to_successor(succ: SuccessorDiagram, T: Sequence[int]) -> Transversal:
    """Image of a parent transversal under row/column deletion (the parent's
    non-dominant set must be exactly succ.nondominant)."""
    row_index = {r: i + 1 for i, r in enumerate(succ.row_map)}
    col_index = {c: j + 1 for j, c in enumerate(succ.col_map)}
    out = [0] * len(succ.row_map)
    for i, c in enumerate(T, start=1):
        if (i, c) in succ.nondominant:
            continue
        out[row_index[i] - 1] = col_index[c]
    return tuple(out)


def reinsert(succ: SuccessorDiagram, T2: Sequence[int]) -> Transversal:
    """Inverse of deletion: N ∪ {(r_i, c_{b_i})} as a parent transversal;
    each parent row is kept or holds one element of N."""
    cols = [0] * (len(succ.row_map) + len(succ.nondominant))
    for i, c in succ.nondominant:
        cols[i - 1] = c
    for i, b in enumerate(T2):
        cols[succ.row_map[i] - 1] = succ.col_map[b - 1]
    return tuple(cols)


def realizable_nondominant_sets(
    ady: ADYoungDiagram, C: Perm
) -> dict[frozenset[tuple[int, int]], SuccessorDiagram]:
    """The family of non-dominant sets over all valid transversals, each
    mapped to its successor (which depends only on the set)."""
    out: dict[frozenset[tuple[int, int]], SuccessorDiagram] = {}
    for T in valid_transversals(ady):
        succ = successor(ady, T, C)
        out.setdefault(succ.nondominant, succ)
    return out


def verify_embed2(ady: ADYoungDiagram, P: Perm, C: Perm) -> bool:
    """Check |S_Y(P (+) C)| = sum over realizable N of |S_{f(N)}(P)|, each
    count by the avoider counter, with N drawn from every valid transversal."""
    lhs = count_avoiders_of(ady, direct_sum(P, C))
    rhs = 0
    for succ in realizable_nondominant_sets(ady, C).values():
        rhs += count_avoiders_of(succ.child, P)
    return lhs == rhs
