"""Value injection and child maps on pattern-avoiding permutations of a
fixed descent type.

A permutation of descent type k is read as rows of k ascending entries with
a descent at each row boundary and a possibly incomplete final row.  The
`inject` operation inserts one value while preserving the descent type; the
`child` map picks the injected value so that avoidance of a fixed pattern
is preserved and distinct parents get distinct children.  Repetitive
patterns (those avoiding 321, 132 and 231) admit strip/insert bijections
that explain the plateaus in their counting sequences.  `has_child_map`,
`has_second_child` and `has_plateau_map` state where each map is defined;
outside that, the map raises ValueError.  `grows_strictly` states where the
avoider count provably grows strictly with length.
"""
from __future__ import annotations

from .perms import DescentType, Perm, contains, is_perm


def inject(v: int, p: Perm, k: int) -> Perm:
    """Insert the value v into p (descent type k), keeping the type.

    Values >= v are incremented and v is appended; an incomplete final row
    is then re-sorted ascending.  When the final row was complete, v starts
    a new row, except that v > p_n swaps the last two entries so the new
    row-boundary descent holds.

    >>> inject(4, (3, 5, 6, 2, 4, 7, 1, 8), 3)
    (3, 6, 7, 2, 5, 8, 1, 4, 9)
    """
    n = len(p)
    if not 1 <= v <= n + 1:
        raise ValueError(f"value {v} outside [1, {n + 1}]")
    if not DescentType(k).member(p):
        raise ValueError(f"{p} does not have descent type {k}")
    bumped = [x + 1 if x >= v else x for x in p]
    bumped.append(v)
    if n % k != 0:
        row_start = n - n % k
        tail = sorted(bumped[row_start:])
        out = bumped[:row_start] + tail
    elif n == 0 or v <= p[-1]:
        out = bumped
    else:
        out = bumped[:-2] + [bumped[-1], bumped[-2]]
    return tuple(out)


def block_function(q: Perm) -> int:
    """Length of the maximal run of positions at the end of q whose values
    ascend by exactly 1 (defined only when the last entry is the largest).

    >>> block_function((2, 1, 3, 4))
    2
    >>> block_function((1, 2, 3))
    3
    """
    b = len(q)
    if b == 0 or q[-1] != b:
        raise ValueError("block length needs the final entry to be the maximum")
    length = 1
    while length < b and q[b - length - 1] == q[b - length] - 1:
        length += 1
    return length


def has_child_map(q: Perm, k: int) -> bool:
    """Whether `child` is defined for q at descent type k: every pattern
    but 1, 21 and the identity patterns of length <= k."""
    if q == (1,) or q == (2, 1):
        return False
    return q != tuple(range(1, len(q) + 1)) or len(q) > k


def has_second_child(q: Perm, k: int) -> bool:
    """Whether `second_child` is defined for q at descent type k: the eight
    length-4 patterns that avoid the row-extension arguments, for k = 2, 3."""
    return k in (2, 3) and q in _SECOND_VALUE


def has_plateau_map(q: Perm, k: int) -> bool:
    """Whether `repetitive_insert` and `repetitive_strip` are defined for q at
    descent type k: q repetitive but not the identity, and k >= len(q) - 1."""
    return repetitive_form(q) not in (None, 1) and k >= len(q) - 1


def grows_strictly(q: Perm, k: int, n: int) -> bool:
    """Whether the q-avoiders of descent type k provably grow strictly in
    number from length n to n + 1, where there are any.

    Off row boundaries (k not dividing n) every non-repetitive pattern is
    strict.  At row boundaries the row-extension arguments miss the length-3
    patterns avoiding 213 and 312 on both case lists: 132 and 231 plateau at
    every k, and 321 plateaus when k = 2 (its consecutive-block identity
    degenerates there); everything else, repetitive included, is strict.
    """
    if n < k:
        return False
    if n % k != 0:
        return repetitive_form(q) is None
    if q in ((1, 3, 2), (2, 3, 1)):
        return False
    if q == (3, 2, 1) and k == 2:
        return False
    return True


def child(p: Perm, q: Perm, k: int) -> Perm:
    """The distinguished child of p among the q-avoiders of descent type k.

    The injected value depends on whether q ends in its maximum (then the
    block length of q against the fill level of the final row decides
    between 1 and the block's future anchor) and, at a completed row, on
    the first values of q.  Defined where `has_child_map` holds.
    """
    if not has_child_map(q, k):
        raise ValueError(f"no child map for pattern {q} at descent type {k}")
    n = len(p)
    b = len(q)
    s = n % k
    if q[-1] == b:
        B = block_function(q)
        if s < B:
            return inject(1, p, k)
        return inject(p[n - B], p, k)
    if s != 0:
        return inject(n + 1, p, k)
    if q[-1] == 1:
        if q[-2] == 2:
            return inject(n + 1, p, k)
        return inject(p[-1], p, k)
    return inject(1, p, k)


# The value the second child injects at a complete final row, by pattern,
# from the parent's length n and final entry.
_SECOND_VALUE = {
    (4, 3, 2, 1): lambda n, last: n - 1 if last == n else n,
    (3, 4, 2, 1): lambda n, last: n - 1 if last == n else n,
    (1, 4, 3, 2): lambda n, last: n + 1,
    (2, 4, 3, 1): lambda n, last: n + 1,
    (1, 2, 3, 4): lambda n, last: 2,
    (1, 2, 4, 3): lambda n, last: 2,
    (1, 3, 4, 2): lambda n, last: last,
    (2, 3, 4, 1): lambda n, last: n - 1 if last == n else last + 2,
}


def second_child(p: Perm, q: Perm, k: int) -> Perm:
    """A second q-avoiding child, at complete final rows where
    `has_second_child` holds; distinct from `child` by construction."""
    if not has_second_child(q, k):
        raise ValueError(f"no second child map for pattern {q} at descent type {k}")
    n = len(p)
    if n % k != 0 or n == 0:
        raise ValueError("second child is defined at complete final rows")
    return inject(_SECOND_VALUE[q](n, p[-1]), p, k)


# ---------------------------------------------------------------------------
# Repetitive patterns


def repetitive_form(q: Perm) -> int | None:
    """The t with q = t,1,2,...,t-1,t+1,...,b (t = 1 is the identity), or
    None when q is not of that shape: q is repetitive, that is, it avoids
    321, 132 and 231, exactly when this is not None."""
    b = len(q)
    if b == 0:
        return None
    t = q[0]
    expected = (t,) + tuple(range(1, t)) + tuple(range(t + 1, b + 1))
    return t if q == expected else None


# ---------------------------------------------------------------------------
# Bijections behind the count identities


def block_insert_321(p: Perm, k: int) -> Perm:
    """Append the run i+1, ..., km+1 before the final entry: the inverse of
    `block_remove_321` realizing |D^k_{km+1}(321)| as a sum over shorter
    lengths."""
    i = len(p)
    if contains(p, (3, 2, 1)):
        raise ValueError("insertion requires a 321-avoiding permutation")
    if not DescentType(k).member(p):
        raise ValueError(f"{p} does not have descent type {k}")
    m = (i - 2) // k + 1
    if not k * (m - 1) + 2 <= i <= k * m:
        raise ValueError(f"length {i} outside [k(m-1)+2, km] for any m")
    out = p[:-1] + tuple(range(i + 1, k * m + 2)) + (p[-1],)
    assert DescentType(k).member(out)
    return out


def block_remove_321(p: Perm, k: int) -> tuple[Perm, Perm]:
    """Remove the maximal same-row consecutive run ending at position km
    (its values are the top values km-len+1, ..., km+1) and let the final
    entry close the now-short row.  Returns (shorter permutation, run)."""
    n = len(p)
    if n % k != 1 or n < k + 1:
        raise ValueError(f"length {n} is not km+1 with m >= 1")
    if contains(p, (3, 2, 1)):
        raise ValueError("removal requires a 321-avoiding permutation")
    if not DescentType(k).member(p):
        raise ValueError(f"{p} does not have descent type {k}")
    m = n // k
    if p[k * m - 1] != n:
        raise ValueError("the largest value must close the last complete row")
    length = 1
    pos = k * m - 1
    while (
        pos - 1 >= k * (m - 1)
        and p[pos - 1] == p[pos] - 1
    ):
        length += 1
        pos -= 1
    run = p[pos : k * m]
    out = p[:pos] + (p[-1],)
    assert run == tuple(range(n - length + 1, n + 1))
    assert DescentType(k).member(out)
    return out, run


def repetitive_insert(q: Perm, p: Perm, k: int) -> Perm:
    """Forward half of the plateau bijection for a non-identity repetitive
    pattern: inject the dictated value so that the new entry sits just
    after position km + (x + t - b + 1) with a value one above it."""
    if not has_plateau_map(q, k):
        raise ValueError(f"no plateau map for pattern {q} at descent type {k}")
    t = repetitive_form(q)
    b = len(q)
    n = len(p)
    m, x = divmod(n, k)
    if not b - 2 <= x <= k - 1:
        raise ValueError(f"final row holds {x} entries, outside [b-2, k-1]")
    if t == b:
        return inject(n + 1, p, k)
    anchor = k * m + (x + t - b + 1)
    return inject(p[anchor - 1] + 1, p, k)


def repetitive_strip(q: Perm, p: Perm, k: int) -> Perm:
    """Backward half: remove the forced entry (the final one when q starts
    with its maximum, else the one right above the anchor position)."""
    if not has_plateau_map(q, k):
        raise ValueError(f"no plateau map for pattern {q} at descent type {k}")
    t = repetitive_form(q)
    b = len(q)
    n = len(p)
    m, x = divmod(n, k)
    if x == 0:
        m, x = m - 1, k
    if not b - 1 <= x <= k:
        raise ValueError(f"final row holds {x} entries, outside [b-1, k]")
    if t == b:
        if p[-1] != n:
            raise ValueError("the final entry must be the maximum")
        return p[:-1]
    pos = k * m + (x + t - b + 1)
    victim = p[pos - 1]
    if victim != p[pos - 2] + 1:
        raise ValueError("forced adjacent values are missing")
    out = tuple(v - 1 if v > victim else v for i, v in enumerate(p) if i != pos - 1)
    if not is_perm(out):
        raise ValueError("strip did not yield a permutation")
    return out
