"""The replacement bijection between transversals avoiding M(213) and
M(321) on 1-alternating AD triples.

One step selects a distinguished copy of the decreasing block J3 = M(321)
(resp. of F3 = M(213)), classifies it by the required ascents/descents near
its bottom row, and removes it with a cyclic column shift chosen so the
result is again a valid transversal.  Iterating the step drives the column
word strictly down (resp. up) in lexicographic order, so it terminates;
the two directions are mutually inverse on separable transversals.

A step returns None on a transversal with no copy of its block, which is
where a walk of steps ends.  It raises StepError on an input that is not
separable, and asserts the lemmas it relies on, counting each family in
CHECK_STATS: the forbidden board of the selected copy (e_squares, one
formula for both blocks), the geometry or orderings of its type, that
column 1 stays in row 1, and that the image is a valid transversal.

The semialternating analogue (a leading required descent) is handled by
embedding into a one-row-larger alternating triple whose transversals pin
column 1 in row 1; the step preserves that pin, so the bijection restricts.
"""
from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Callable, Iterable, Sequence

from .diagrams import (
    ADYoungDiagram,
    Transversal,
    YoungDiagram,
    is_valid_transversal,
    is_x_alternating,
    is_x_semialternating,
)

J3 = (3, 2, 1)
F3 = (2, 1, 3)

Triple = tuple[int, int, int]
# A memo over the transversals of one shape: each one's least M(321) copy in
# sharp order (None if it has none) and its M(213) copies, the facts of its
# copies that the shape alone fixes
Copies = dict[Transversal, tuple[Triple | None, tuple[Triple, ...]]]


class StepError(ValueError):
    """A replacement step was attempted outside its precondition."""


class LemmaViolation(AssertionError):
    """A structural fact that every step relies on failed to hold."""


# How often each family of runtime lemma checks has fired; sweeps assert
# these stay nonzero so a silently skipped check cannot masquerade as green.
CHECK_STATS: Counter = Counter()


# ---------------------------------------------------------------------------
# Cyclic shifts


def gamma(T: Sequence[int], rows: Iterable[int], window: tuple[int, int]) -> tuple[int, ...]:
    """Rows i among `rows` whose column lies in [lo, hi], ascending."""
    lo, hi = window
    return tuple(sorted(i for i in rows if lo <= T[i - 1] <= hi))


def _shift(
    Y: YoungDiagram,
    T: Sequence[int],
    rows: Iterable[int],
    window: tuple[int, int],
    direction: int,
) -> Transversal:
    rows = tuple(rows)
    lo, hi = window
    if rows and lo <= hi:
        m = max(rows)
        if Y.row_len(m) < hi:
            raise StepError(
                f"row {m} has {Y.row_len(m)} squares, cyclic shift needs {hi}"
            )
    idx = gamma(T, rows, window)
    k = len(idx)
    if k == 0:
        return tuple(T)
    out = list(T)
    for j in range(k):
        out[idx[j] - 1] = T[idx[(j + direction) % k] - 1]
    return tuple(out)


def omega(Y: YoungDiagram, T: Sequence[int], rows, window) -> Transversal:
    """Forward cyclic shift: each participating row takes the column of the
    previous participating row (the first takes the last's)."""
    return _shift(Y, T, rows, window, -1)


def theta(Y: YoungDiagram, T: Sequence[int], rows, window) -> Transversal:
    """Backward cyclic shift, the inverse of omega on the same arguments."""
    return _shift(Y, T, rows, window, +1)


# ---------------------------------------------------------------------------
# Copies and their classification


def j3_copies(Y: YoungDiagram, T: Sequence[int]) -> list[Triple]:
    """Triples of rows carrying a copy of M(321), in sharp order; the corner
    square (a3, column of a1) must lie inside Y."""
    rows = Y.rows
    return [a for a in _triples(len(T)) if T[a[2] - 1] < T[a[1] - 1] < T[a[0] - 1] <= rows[a[2] - 1]]


def f3_copies(ady: ADYoungDiagram, T: Sequence[int]) -> list[Triple]:
    """Triples of rows carrying a copy of M(213) whose bottom row is not a
    required ascent (the selection pool for the reverse step)."""
    return [a for a in shape_copies(ady.diagram, T)[1] if a[2] not in ady.A]


@functools.cache
def _triples(n: int) -> tuple[Triple, ...]:
    """The row triples of n rows in sharp order, made once per n, so that
    the copies a memo holds share them."""
    return tuple(sorted(itertools.combinations(range(1, n + 1), 3), key=sharp))


def shape_copies(Y: YoungDiagram, T: Sequence[int]) -> tuple[Triple | None, tuple[Triple, ...]]:
    """The least copy of M(321) in sharp order, None when T avoids it, and
    every copy of M(213) that T holds.  They depend on Y and T alone, so a
    sweep over the triples of one shape keeps them in one memo from each of
    its transversals, which the steps take as `copies`."""
    U = j3_copies(Y, T)
    F = tuple(a for a in _triples(len(T)) if T[a[1] - 1] < T[a[0] - 1] < T[a[2] - 1])
    return (U[0] if U else None), F


def sharp(u: Triple) -> Triple:
    """Sort key for decreasing-block copies: (u3, u1, u2)."""
    return (u[2], u[0], u[1])


def classify_j(ady: ADYoungDiagram, T: Sequence[int], a: Triple) -> int:
    """Three-way type of a decreasing-block copy, driven by the required
    sets at rows a3-1 and a3.  The literal case conditions are evaluated and
    must match exactly one case."""
    a1, a2, a3 = a
    b = T
    ba1, b_prev = b[a1 - 1], b[a3 - 2]
    in_d = (a3 - 1) in ady.D
    in_a = a3 in ady.A
    c1 = (not in_d or ba1 < b_prev) and not in_a
    c2 = in_d and b_prev < ba1
    c3 = (not in_d or b_prev > ba1) and in_a
    matches = [t for t, c in ((1, c1), (2, c2), (3, c3)) if c]
    if len(matches) != 1:
        raise LemmaViolation(
            f"copy {a} of M(321) matches cases {matches}; "
            "the three-case classification must be a partition"
        )
    return matches[0]


def classify_f(ady: ADYoungDiagram, T: Sequence[int], a: Triple) -> tuple[int, Triple]:
    """Type of a 213-block copy and the slot S(a) where its removed copy of
    the decreasing block will sit."""
    a1, a2, a3 = a
    if a3 in ady.A:
        raise StepError(f"{a} is not in the selection pool: row {a3} is a required ascent")
    if (a3 - 1) not in ady.A:
        return 1, (a3, a1, a2)
    if a2 == a3 - 1:
        return 2, (a3 + 1, a1, 0)
    return 3, (a3 - 1, a1, a2)


def is_separable(ady: ADYoungDiagram, T: Sequence[int], copies: Copies | None = None) -> bool:
    """Every decreasing-block copy's sort key dominates every 213-copy's
    slot.  Transversals avoiding either block are vacuously separable."""
    return selected_copies(ady, T, copies) is not None


def selected_copies(
    ady: ADYoungDiagram, T: Sequence[int], copies: Copies | None = None
) -> tuple[Triple | None, Triple | None] | None:
    """The copies the two steps select at T, each None where T has no copy
    of that block; None when T is not separable.  The decreasing-block copy
    minimizes (a3, a1, a2) and the 213-block copy maximizes its slot S(a)
    over the copies whose bottom row is not a required ascent.  The copies
    of both blocks come from the memo `copies` of T's shape when given."""
    j, fs = shape_copies(ady.diagram, T) if copies is None else copies[T]
    pool = sorted((classify_f(ady, T, a)[1], a) for a in fs if a[2] not in ady.A)
    if j is not None and pool and sharp(j) < pool[-1][0]:
        return None
    return j, (_pick_f(pool) if pool else None)


def _pick_f(pool: list[tuple[Triple, Triple]]) -> Triple:
    """The copy of a nonempty pool of (S(a), a), ordered by slot, whose slot
    is the largest; the slot map is injective, so it is unique."""
    if len(pool) >= 2 and pool[-1][0] == pool[-2][0]:
        raise LemmaViolation(
            f"slot map not injective: {[pool[-2][1], pool[-1][1]]} share {pool[-1][0]}"
        )
    return pool[-1][1]


# ---------------------------------------------------------------------------
# Forbidden boards


def _board(ady: ADYoungDiagram, T: Sequence[int], a: Triple):
    """The forbidden board of `e_squares` as four bands (rows, first
    column, last column), each row's band still to be cut to Y."""
    a1, a2, a3 = a
    rows = ady.diagram.rows
    n = len(rows)
    lo, mid, hi = sorted(T[i - 1] for i in a)
    return (
        (range(1, a1), mid, rows[a3 - 1]),
        (range(a1 + 1, a2), lo, hi),
        (range(a2 + 1, a3), 1, mid),
        (range(a3 + 1, n + 1), mid + 1, n),
    )


def e_squares(ady: ADYoungDiagram, T: Sequence[int], a: Triple) -> set[tuple[int, int]]:
    """Squares that can hold no element of T once `a` is the selected copy
    of either block, on pain of contradicting the selection rule or
    separability.  With lo < mid < hi the copy's three columns, the board is
    rows 1..a1-1 x mid..|row a3|, rows a1+1..a2-1 x lo..hi, rows a2+1..a3-1
    x 1..mid and rows a3+1..n x mid+1..n, cut to Y."""
    rows = ady.diagram.rows
    return {
        (i, j)
        for band, first, last in _board(ady, T, a)
        for i in band
        for j in range(first, min(last, rows[i - 1]) + 1)
    }


def _board_hits(ady: ADYoungDiagram, T: Sequence[int], a: Triple) -> list[tuple[int, int]]:
    """The elements (row, column) of T on the board of `a`, by row: each
    row's one element is tested against its band."""
    rows = ady.diagram.rows
    return [
        (i, T[i - 1])
        for band, first, last in _board(ady, T, a)
        for i in band
        if first <= T[i - 1] <= min(last, rows[i - 1])
    ]


def _assert_board_empty(ady: ADYoungDiagram, T: Transversal, a: Triple, step: str) -> None:
    CHECK_STATS[f"{step}_board"] += 1
    hits = _board_hits(ady, T, a)
    if hits:
        raise LemmaViolation(f"{step} board holds transversal elements: {hits}")


def _assert_increasing(values: Sequence[int], label: str) -> None:
    if any(x >= y for x, y in zip(values, values[1:])):
        raise LemmaViolation(f"{label} not strictly increasing: {values}")


# ---------------------------------------------------------------------------
# One replacement step in each direction


def _selected(ady: ADYoungDiagram, T: Transversal, copies: Copies | None):
    """selected_copies, for a step, which is defined on separable T only."""
    selected = selected_copies(ady, T, copies)
    if selected is None:
        raise StepError("step defined on separable transversals only")
    return selected


def phi(
    ady: ADYoungDiagram, T: Sequence[int], copies: Copies | None = None
) -> Transversal | None:
    """Remove the selected decreasing-block copy; the result is a valid
    transversal whose column word is lexicographically smaller.  None when
    T has no copy to remove."""
    Y = ady.diagram
    T = tuple(T)
    a = _selected(ady, T, copies)[0]
    if a is None:
        return None
    a1, a2, a3 = a
    b = T
    ba1, ba2, ba3 = b[a1 - 1], b[a2 - 1], b[a3 - 1]
    t = classify_j(ady, T, a)
    _assert_board_empty(ady, T, a, "phi")
    if t == 1:
        out = theta(Y, T, (a1, a2, a3), (1, ba1))
    elif t == 2:
        CHECK_STATS["jtype2_geometry"] += 1
        if not (ba2 <= b[a3 - 2] and a3 - a1 >= 3):
            raise LemmaViolation(
                f"type-2 geometry violated at {a}: "
                f"b_a2={ba2}, b_(a3-1)={b[a3 - 2]}, span={a3 - a1}"
            )
        out = omega(Y, T, (a1, a3 - 1), (1, ba1))
    else:
        inner = omega(Y, T, range(a2, a3 + 1), (ba3, ba1))
        out = omega(Y, inner, list(range(1, a1 + 1)) + [a3 + 1], (ba3, ba1))
        CHECK_STATS["jtype3_orderings"] += 1
        _check_jtype3_orderings(ady, T, out, a)
    _assert_image_valid(ady, T, out, a, t, "phi")
    return out


def _assert_image_valid(
    ady: ADYoungDiagram, T: Transversal, out: Transversal, a: Triple, t: int, step: str
) -> None:
    """The step kept column 1 in row 1 and left a valid transversal."""
    if T[0] == 1:
        CHECK_STATS["pin_preserved"] += 1
        if out[0] != 1:
            raise LemmaViolation(f"column 1 of row 1 moved during {step}")
    CHECK_STATS["validity"] += 1
    if not is_valid_transversal(ady, out):
        raise LemmaViolation(f"{step} broke validity at {a} (type {t})")


def _check_jtype3_orderings(ady, T, out, a: Triple) -> None:
    a1, a2, a3 = a
    b = T
    ba1, ba2, ba3 = b[a1 - 1], b[a2 - 1], b[a3 - 1]
    g_left_open = gamma(T, range(1, a1), (ba3, ba1))
    for i in g_left_open:
        if not (b[a3] < b[i - 1] < ba2):
            raise LemmaViolation(
                f"row {i} in the left window breaks b_(a3+1) < b_i < b_a2"
            )
    g_left = gamma(T, range(1, a1 + 1), (ba3, ba1))
    _assert_increasing([b[i - 1] for i in g_left], "left-window columns")
    _assert_increasing([out[i - 1] for i in g_left], "left-window images")
    g_mid = gamma(T, range(a2, a3), (ba3, ba1))
    for i in g_mid:
        if not ba2 <= b[i - 1]:
            raise LemmaViolation(f"row {i} in the middle window breaks b_a2 <= b_i")
    _assert_increasing([b[i - 1] for i in g_mid], "middle-window columns")
    mids = [out[i - 1] for i in g_mid]
    _assert_increasing(mids, "middle-window images")
    if mids and mids[-1] >= out[a3 - 1]:
        raise LemmaViolation("middle-window images must stay left of the new a3 column")


def psi(
    ady: ADYoungDiagram, T: Sequence[int], copies: Copies | None = None
) -> Transversal | None:
    """Reverse step: reinstate a decreasing-block copy at the slot of the
    selected 213-block copy; the column word grows lexicographically.  None
    when T has no 213-block copy in the selection pool, which on a valid
    transversal means no copy of M(213) at all."""
    Y = ady.diagram
    T = tuple(T)
    a = _selected(ady, T, copies)[1]
    if a is None:
        return None
    t = classify_f(ady, T, a)[0]
    a1, a2, a3 = a
    ba2, ba3 = T[a2 - 1], T[a3 - 1]
    _assert_board_empty(ady, T, a, "psi")
    if t == 1:
        out = omega(Y, T, (a1, a2, a3), (1, ba3))
    elif t == 2:
        out = theta(Y, T, (a1, a3), (1, ba3))
    else:
        inner = theta(Y, T, list(range(1, a1 + 1)) + [a3], (ba2, ba3))
        out = theta(Y, inner, range(a2, a3), (ba2, ba3))
        CHECK_STATS["ftype3_orderings"] += 1
        _check_ftype3_orderings(ady, T, out, a)
    _assert_image_valid(ady, T, out, a, t, "psi")
    return out


def _check_ftype3_orderings(ady, T, out, a: Triple) -> None:
    a1, a2, a3 = a
    b = T
    ba1, ba2, ba3 = b[a1 - 1], b[a2 - 1], b[a3 - 1]
    g_left = gamma(T, range(1, a1 + 1), (ba2, ba3))
    for i in g_left:
        if b[i - 1] > ba1:
            raise LemmaViolation(f"row {i} in the left window breaks b_i <= b_a1")
    _assert_increasing([b[i - 1] for i in g_left], "left-window columns")
    _assert_increasing([out[i - 1] for i in g_left], "left-window images")
    # Middle window: a2 always participates (it carries the window's smallest
    # column) and absorbs the cyclic wrap, so the ordering claims apply to the
    # strictly-between rows plus the non-wrap images.
    g_between = gamma(T, range(a2 + 1, a3), (ba2, ba3))
    for i in g_between:
        if not ba1 < b[i - 1]:
            raise LemmaViolation(f"row {i} in the middle window breaks b_a1 < b_i")
    g_mid = gamma(T, range(a2, a3), (ba2, ba3))
    _assert_increasing([b[i - 1] for i in g_mid], "middle-window columns")
    mids = [out[i - 1] for i in g_mid]
    _assert_increasing(mids[:-1], "middle-window images")
    if mids and mids[-1] != ba2:
        raise LemmaViolation("cyclic wrap must hand b_a2 to the last middle row")
    if out[a3 - 1] <= ba2:
        raise LemmaViolation("the new a3 column must stay right of b_a2")
    m = g_left[0]
    Y = ady.diagram
    for i in range(a3 + 1, Y.n + 1):
        if T[i - 1] > b[m - 1]:
            raise LemmaViolation(f"southeast region of (a3, b_m) holds row {i}")


# ---------------------------------------------------------------------------
# Full bijection by iteration


def fixpoint(
    ady: ADYoungDiagram,
    T: Sequence[int],
    direction: str,
    steps: dict[Transversal, Transversal] | None = None,
    copies: Copies | None = None,
) -> Transversal:
    """Apply the step named by `direction` ("phi" or "psi") until it finds
    no copy of its block, J3 (resp. F3), to remove.  Each image is a valid
    transversal strictly past the one before in the direction's
    lexicographic order, so none repeats and the loop stops."""
    forward = direction == "phi"
    step = phi if forward else psi
    cur = tuple(T)
    while True:
        nxt = step(ady, cur, copies)
        if nxt is None:
            return cur
        if not (nxt < cur if forward else nxt > cur):
            raise LemmaViolation(
                "column word did not strictly decrease"
                if forward
                else "column word did not strictly increase"
            )
        if steps is not None:
            steps[cur] = nxt
        cur = nxt


def phi_to_fixpoint(
    ady: ADYoungDiagram,
    T: Sequence[int],
    steps: dict[Transversal, Transversal] | None = None,
    copies: Copies | None = None,
) -> Transversal:
    """Iterate the forward step until the transversal avoids M(321); the
    column word strictly decreases at each step, and a step that fails to
    decrease it raises LemmaViolation.  `steps` records each step taken."""
    return fixpoint(ady, T, "phi", steps, copies)


def psi_to_fixpoint(
    ady: ADYoungDiagram,
    T: Sequence[int],
    steps: dict[Transversal, Transversal] | None = None,
    copies: Copies | None = None,
) -> Transversal:
    """Iterate the reverse step until the transversal avoids M(213)."""
    return fixpoint(ady, T, "psi", steps, copies)


# ---------------------------------------------------------------------------
# Semialternating case via the corner embedding


def alpha_parent(ady: ADYoungDiagram) -> ADYoungDiagram:
    """One-row-larger 1-alternating triple whose transversals with column 1
    in row 1 are exactly the embedded transversals of `ady`."""
    Y = ady.diagram
    rows = (Y.rows[0] + 1,) + tuple(r + 1 for r in Y.rows)
    A = frozenset({1} | {a + 1 for a in ady.A})
    D = frozenset(d + 1 for d in ady.D)
    parent = ADYoungDiagram(YoungDiagram(rows), A, D)
    if not is_x_alternating(parent, 1):
        raise LemmaViolation("embedding target is not 1-alternating")
    return parent


def alpha(T: Sequence[int]) -> Transversal:
    return (1,) + tuple(c + 1 for c in T)


def alpha_inverse(T: Sequence[int]) -> Transversal:
    if T[0] != 1:
        raise StepError("transversal is outside the embedding's range")
    return tuple(c - 1 for c in T[1:])


def _semialternating_map(
    ady: ADYoungDiagram,
    T: Sequence[int],
    walk: Callable[..., Transversal],
    steps: dict[Transversal, Transversal] | None,
) -> Transversal:
    if not is_x_semialternating(ady, 1):
        raise StepError("defined for 1-semialternating triples")
    if 1 not in ady.D:
        return walk(ady, T, steps=steps)
    parent = alpha_parent(ady)
    image = walk(parent, alpha(T), steps=steps)
    if image[0] != 1:
        raise LemmaViolation(
            "the step moved column 1 out of row 1; the embedding does not restrict"
        )
    return alpha_inverse(image)


def semialternating_phi(
    ady: ADYoungDiagram,
    T: Sequence[int],
    steps: dict[Transversal, Transversal] | None = None,
) -> Transversal:
    """M(213)-avoiding -> M(321)-avoiding on a 1-semialternating triple.
    `steps` records each step taken, on the embedding's transversals when
    row 1 is a required descent."""
    return _semialternating_map(ady, T, phi_to_fixpoint, steps)


def semialternating_psi(
    ady: ADYoungDiagram,
    T: Sequence[int],
    steps: dict[Transversal, Transversal] | None = None,
) -> Transversal:
    """M(321)-avoiding -> M(213)-avoiding on a 1-semialternating triple."""
    return _semialternating_map(ady, T, psi_to_fixpoint, steps)
