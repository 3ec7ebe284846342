"""Named property suites driving every structural invariant at desk scale.

Each suite returns a list of (name, ok, detail) triples; the command-line
`verify` command prints one PASS/FAIL line per invariant and the acceptance
tests assert them.  `SUITES` registers each suite once, by the name
`verify` takes, with the one size keyword its size flag sets.

Sweeps are exhaustive over the stated ranges.  A sweep over the AD triples
of a shape lists the shape's transversals and their pattern containments
once, and diagrams.by_config hands each triple its valid ones; a single
triple's transversals come from the one constrained lister,
diagrams.valid_transversals.

The bijection suite runs each full round trip once, from the M(213)-avoiders:
the maps are deterministic, so once every trip returns and the images cover
the M(321)-avoiders, the trips from those are the same calls.  A step
raises StepError on a transversal that is not separable, so the single-step
check leaves that test of each image to the step back; a step or a full map
that raises StepError fails the check that called it.

The injections suite grows the q-avoiders of D^k_n for n <= n_max + 1 one
entry at a time, and every map and count claim reads those lists.  Which
patterns each map is checked on is the map's own domain, as descent_type
states it.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterable

from .perms import (
    ALTERNATING,
    DescentType,
    Perm,
    contains,
    doubling,
    perms_of,
    shortest_alternating_container,
)
from .enumeration import AvoidanceQuery, avoiders, count_avoiders, count_class, generate
from .diagrams import (
    ad_configs,
    all_diagrams,
    alternating_configs,
    by_config,
    count_avoiding_transversals,
    is_x_alternating,
    j2_canonical_transversal,
    least_x,
    semialternating_configs,
    shape2_closed_form,
    transversal_contains,
    transversals,
)
from .extension import (
    delete_to_successor,
    direct_sum,
    dominant_region,
    reinsert,
    successor_from_parts,
    successor_parts,
    successor_shape,
)
from .bijection import (
    StepError,
    e_squares,
    is_separable,
    phi,
    phi_to_fixpoint,
    psi,
    psi_to_fixpoint,
    selected_copies,
    semialternating_phi,
    semialternating_psi,
    shape_copies,
)
from . import descent_type as dt


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name: str, failures: list[str]) -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures[:5]))
    return CheckResult(name, True)


# ---------------------------------------------------------------------------
# shape2 suite


def shape2_suite(rows: int = 6) -> list[CheckResult]:
    closed_fail: list[str] = []
    shape_eq_fail: list[str] = []
    canon_fail: list[str] = []
    for Y in all_diagrams(rows):
        ts = list(transversals(Y))
        has12 = {T: transversal_contains(Y, T, (1, 2)) for T in ts}
        has21 = {T: transversal_contains(Y, T, (2, 1)) for T in ts}
        for ady, vt in by_config(ts, ad_configs(Y)):
            n12 = sum(1 for T in vt if not has12[T])
            avoid21 = [T for T in vt if not has21[T]]
            n21 = len(avoid21)
            for pat, exact in (((1, 2), n12), ((2, 1), n21)):
                if exact != shape2_closed_form(ady, pat):
                    closed_fail.append(f"{ady} pattern {pat}: {exact}")
            if is_x_alternating(ady, 1) and n12 != n21:
                shape_eq_fail.append(str(ady))
            if not ady.D:
                canon = j2_canonical_transversal(ady)
                if canon is None:
                    if Y.contains_staircase():
                        canon_fail.append(f"{ady}: rule found nothing")
                elif avoid21 != [canon]:
                    canon_fail.append(f"{ady}: rule gave {canon}")
    return [
        _result(f"closed form matches exhaustive counts, <= {rows} rows", closed_fail),
        _result("12 and 21 agree on 1-alternating triples", shape_eq_fail),
        _result("right-to-left rule builds the unique 21-avoider", canon_fail),
    ]


# ---------------------------------------------------------------------------
# doubling suite


def minimal_container_lengths(k: int) -> dict[Perm, int]:
    """Independent oracle: for each pattern p of length k, the least length
    L in k..2k-2 at which some alternating permutation contains p, read off
    the counts as |A_L(p)| < |A_L|.  Patterns contained at none of these
    lengths get 2k-1; the construction check supplies the containment
    witness at that length."""
    lengths = range(k, 2 * k - 1)
    sizes = {L: count_class(ALTERNATING, L) for L in lengths}
    found = {}
    for p in perms_of(k):
        # lone counts, not a run: stopping at the first length that holds p is 8x cheaper
        contained = (
            L for L in lengths if count_avoiders(AvoidanceQuery(p, ALTERNATING, L)).count < sizes[L]
        )
        found[p] = next(contained, 2 * k - 1)
    return found


def doubling_suite(k_max: int = 6) -> list[CheckResult]:
    length_fail: list[str] = []
    build_fail: list[str] = []
    zero_fail: list[str] = []
    for k in range(1, k_max + 1):
        oracle = minimal_container_lengths(k)
        for p in perms_of(k):
            t = doubling(p).doubling_number
            w = shortest_alternating_container(p)
            if not (
                len(w) == k + t
                and ALTERNATING.member(w)
                and contains(w, p)
            ):
                build_fail.append(f"{p}: built {w}")
            if oracle[p] != k + t:
                length_fail.append(f"{p}: oracle {oracle[p]} vs k+t {k + t}")
            if (t == 0) != ALTERNATING.member(p):
                zero_fail.append(str(p))
    return [
        _result(f"minimal container length equals k + t, k <= {k_max}", length_fail),
        _result("construction output is alternating, tight, containing", build_fail),
        _result("doubling number 0 exactly on alternating permutations", zero_fail),
    ]


# ---------------------------------------------------------------------------
# bijection suite


def _round_trip(
    ady, vt, copies, forward, backward, forward_steps, backward_steps
) -> tuple[bool, list[str]]:
    """Whether the M(213)- and M(321)-avoiders among `vt` differ in number,
    and the failures of: each M(213)-avoider maps into the M(321)-avoiders
    and back, and the images cover them.  A map that raises StepError fails
    the trip it was called on.  The maps record their steps in the two
    tables (None for no table); `copies` is the memo of the shape."""
    SF = [T for T in vt if not copies[T][1]]
    SJ = {T for T in vt if copies[T][0] is None}
    if len(SF) != len(SJ):
        return True, []
    fails = []
    images = set()
    for T in SF:
        try:
            U = forward(ady, T, steps=forward_steps)
            ok = U in SJ and backward(ady, U, steps=backward_steps) == T
        except StepError:
            ok = False
        if not ok:
            fails.append(f"{ady}: {T}")
            continue
        images.add(U)
    if images != SJ:
        fails.append(f"{ady}: image misses {len(SJ - images)}")
    return False, fails


def _stepped(steps, step, ady, T, copies):
    """step(ady, T, copies), read from the `steps` table when a walk took
    it, else computed and recorded there."""
    U = steps.get(T)
    if U is None:
        U = steps[T] = step(ady, T, copies)
    return U


def bijection_suite(rows: int = 6, semi_rows: int | None = None) -> list[CheckResult]:
    """Round trips of the replacement maps on 1-alternating triples of at
    most `rows` rows, and of the corner-embedded maps on semialternating
    triples of at most `semi_rows` rows (default min(rows, 5)).  The
    alternating trips record their steps in one table per direction per
    triple, and the single-step check reads its images there, taking a step
    only where a table misses; a transversal with a recorded step is
    separable."""
    if semi_rows is None:
        semi_rows = min(rows, 5)
    count_fail: list[str] = []
    round_fail: list[str] = []
    semi_fail: list[str] = []
    sep_fail: list[str] = []
    for Y in all_diagrams(max(rows, semi_rows)):
        ts = list(transversals(Y))
        copies = {T: shape_copies(Y, T) for T in ts}
        alt = alternating_configs(Y) if Y.n <= rows else ()
        forward = functools.partial(phi_to_fixpoint, copies=copies)
        backward = functools.partial(psi_to_fixpoint, copies=copies)
        for ady, vt in by_config(ts, alt):
            # keyed by every transversal from the start, None where no step
            # was taken, so each table is allocated once per triple
            phi_steps: dict = dict.fromkeys(vt)
            psi_steps: dict = dict.fromkeys(vt)
            differ, fails = _round_trip(
                ady, vt, copies, forward, backward, phi_steps, psi_steps
            )
            if differ:
                count_fail.append(str(ady))
            round_fail += fails
            for T in vt:
                j, fs = copies[T]
                if j is None and not fs:
                    continue
                if (
                    phi_steps[T] is None
                    and psi_steps[T] is None
                    and not is_separable(ady, T, copies)
                ):
                    continue
                for has, step, steps, back, back_steps, name in (
                    (j, phi, phi_steps, psi, psi_steps, "phi"),
                    (fs, psi, psi_steps, phi, phi_steps, "psi"),
                ):
                    if not has:
                        continue
                    try:
                        U = _stepped(steps, step, ady, T, copies)
                        ok = _stepped(back_steps, back, ady, U, copies) == T
                    except StepError:
                        ok = False
                    if not ok:
                        sep_fail.append(f"{ady}: {name} at {T}")
        if Y.n > semi_rows:
            continue
        semi = [a for a in semialternating_configs(Y) if 1 in a.D]
        for ady, vt in by_config(ts, semi):
            differ, fails = _round_trip(
                ady, vt, copies, semialternating_phi, semialternating_psi, None, None
            )
            if differ:
                semi_fail.append(str(ady))
            semi_fail += fails
    return [
        _result(f"block-avoiding counts agree on 1-alternating triples, <= {rows} rows", count_fail),
        _result("full maps are mutually inverse bijections", round_fail),
        _result("single steps invert each other on separable transversals", sep_fail),
        _result(f"semialternating case via corner embedding, <= {semi_rows} rows", semi_fail),
    ]


def eboard_suite(rows: int = 5) -> list[CheckResult]:
    """Board emptiness asserted through a standalone code path (the step
    functions assert it too while running), at each copy a step would
    select, from one listing of each block's copies per transversal of a
    shape."""
    fails: list[str] = []
    for Y in all_diagrams(rows):
        ts = list(transversals(Y))
        copies = {T: shape_copies(Y, T) for T in ts}
        for ady, vt in by_config(ts, alternating_configs(Y)):
            for T in vt:
                selected = selected_copies(ady, T, copies)
                if selected is None:
                    continue
                for a, name in zip(selected, ("phi", "psi")):
                    if a is not None:
                        board = e_squares(ady, T, a)
                        if any((i + 1, c) in board for i, c in enumerate(T)):
                            fails.append(f"{ady}: {name} board {T}")
    return [_result(f"forbidden boards hold no transversal elements, <= {rows} rows", fails)]


# ---------------------------------------------------------------------------
# extension suite


_BLOCKS = ((1,), (1, 2), (2, 1))
_PAIR = ((1, 2), (2, 1))


def extension_suite(rows: int = 5, rng_seed: int = 0) -> list[CheckResult]:
    embed_fail: list[str] = []
    alt_fail: list[str] = []
    semi_fail: list[str] = []
    tech_fail: list[str] = []
    shift_fail: list[str] = []
    roundtrip_fail: list[str] = []
    region_fail: list[str] = []
    consequence_fail: list[str] = []
    # one successor triple recurs under many transversals and triples; a
    # plain tuple key hashes faster than the triple
    child_avoiders = {}

    for Y in all_diagrams(rows):
        all_T = list(transversals(Y))
        configs = list(by_config(all_T, ad_configs(Y)))
        for C in _BLOCKS:
            parts = {T: successor_parts(Y, T, C) for T in all_T}
            # the dominant region must be recoverable from the set alone, and
            # each set's bare successor, the shape-level part of its
            # successors, is built once; deletion and reinsertion read no
            # required set, so they run once per transversal
            seen_regions: dict[frozenset, tuple[int, ...]] = {}
            bare_succs = {}
            for T, (region, nond) in parts.items():
                if seen_regions.setdefault(nond, region) != region:
                    region_fail.append(f"{Y} C={C}: ambiguous region for {sorted(nond)}")
                if nond not in bare_succs:
                    bare_succs[nond] = successor_shape(Y, region, nond)
                s = bare_succs[nond]
                if reinsert(s, delete_to_successor(s, T)) != T:
                    roundtrip_fail.append(f"{Y} C={C}: {T}")
            avoid = {}
            for P in _PAIR:
                psum = direct_sum(P, C)
                avoid[P] = {
                    T: not transversal_contains(Y, T, psum) for T in all_T
                }
            rc = len(C)
            for ady, vt in configs:
                succs = [
                    successor_from_parts(ady, bare_succs[nond])
                    for nond in dict.fromkeys(parts[T][1] for T in vt)
                ]
                lhs = {P: sum(1 for T in vt if avoid[P][T]) for P in _PAIR}
                for P in _PAIR:
                    rhs = 0
                    for s in succs:
                        c = s.child
                        key = c.diagram.rows, c.A, c.D, P
                        if key not in child_avoiders:
                            child_avoiders[key] = count_avoiding_transversals(c, P)
                        rhs += child_avoiders[key]
                    if lhs[P] != rhs:
                        embed_fail.append(f"{ady} P={P} C={C}: {lhs[P]} vs {rhs}")
                # x-alternation is monotone in x, so a triple's least x
                # settles every x
                xs = range(1, ady.n + 1 - rc)
                la, ls = least_x(ady) - rc, least_x(ady, 1) - rc
                for s in succs:
                    child = s.child
                    ca, cs = least_x(child), least_x(child, 1)
                    alt_fail += [f"{ady} C={C} x={x}" for x in xs if la <= x < ca]
                    semi_fail += [f"{ady} C={C} x={x}" for x in xs if ls <= x < cs]
                    for i in range(1, child.n):
                        if (
                            i in child.A
                            and s.row_map[i - 1] + 1 in ady.D
                            and i + 1 not in child.D
                        ):
                            tech_fail.append(f"{ady} C={C} succ ascent {i}")
                        if (
                            i in child.D
                            and s.row_map[i - 1] - 1 in ady.A
                            and i - 1 not in child.A
                        ):
                            tech_fail.append(f"{ady} C={C} succ descent {i}")
                a, b = lhs[(1, 2)], lhs[(2, 1)]
                if la <= 1 and a != b:
                    consequence_fail.append(f"{ady} C={C}: {a} vs {b}")
    rng = random.Random(rng_seed)
    shapes = list(all_diagrams(6))
    for _ in range(400):
        Y = rng.choice(shapes)
        ts = list(transversals(Y))
        if not ts:
            continue
        T = rng.choice(ts)
        C = rng.choice(_BLOCKS)
        region = dominant_region(Y, T, C)
        for j in range(1, Y.n):
            for y in range(1, region[j - 1] + 1):
                if T[j] <= y and Y.contains_square(j + 1, y) and y > region[j]:
                    shift_fail.append(f"{Y} {T} C={C} at ({j},{y})")
    return [
        _result(f"block-sum identity holds exhaustively, <= {rows} rows", embed_fail),
        _result("successors of (x+r)-alternating parents are x-alternating", alt_fail),
        _result("semialternating analogue of the successor property", semi_fail),
        _result("adjacent required-constraint transfer to successors", tech_fail),
        _result("dominant region is recoverable from the non-dominant set", region_fail),
        _result("dominance shifts down one row when the next column stays left", shift_fail),
        _result("deletion and reinsertion are mutually inverse", roundtrip_fail),
        _result("12 (+) C matches 21 (+) C on (1+r)-alternating triples", consequence_fail),
    ]


# ---------------------------------------------------------------------------
# injections suite


def injections_suite(k_values: Iterable[int] = (2, 3, 4), n_max: int = 8) -> list[CheckResult]:
    """Child maps, plateau bijections and count claims on the q-avoiders of
    D^k_n, grown once for n <= n_max + 1 by `avoiders`.  A map's image is
    checked by one lookup among the avoiders one longer, which holds
    "avoids q", "has descent type k" and "has the next length" at once.
    The secondary injections are defined only at k = 2, 3
    (`has_second_child`), so the default k = 4 runs no secondary-injection
    check."""
    child_fail: list[str] = []
    inj_fail: list[str] = []
    mono_fail: list[str] = []
    strict_fail: list[str] = []
    plateau_fail: list[str] = []
    secondary_fail: list[str] = []
    identity_fail: list[str] = []
    for k in k_values:
        for q in (*perms_of(3), *perms_of(4)):
            if not dt.has_child_map(q, k):
                continue
            avoid = avoiders(q, DescentType(k), n_max + 1)
            for n in range(1, n_max + 1):
                children = set()
                for p in avoid[n]:
                    ch = dt.child(p, q, k)
                    if ch not in avoid[n + 1] or not contains(ch, p):
                        child_fail.append(f"k={k} q={q} p={p}")
                        continue
                    if ch in children:
                        inj_fail.append(f"k={k} q={q} duplicate child {ch}")
                    children.add(ch)
                a, b = len(avoid[n]), len(avoid[n + 1])
                if a > b:
                    mono_fail.append(f"k={k} q={q} n={n}: {a} > {b}")
                if dt.grows_strictly(q, k, n) and a >= b and a > 0:
                    strict_fail.append(f"k={k} q={q} n={n}: {a} vs {b}")
            if dt.has_plateau_map(q, k):
                b_len = len(q)
                for m in range((n_max + 1) // k + 1):
                    lens = [
                        k * m + x
                        for x in range(b_len - 2, k + 1)
                        if 1 <= k * m + x <= n_max + 1
                    ]
                    vals = [len(avoid[L]) for L in lens]
                    if len(set(vals)) > 1:
                        plateau_fail.append(f"k={k} q={q} m={m}: {vals}")
                    for L in lens[:-1]:
                        for p in avoid[L]:
                            s = dt.repetitive_insert(q, p, k)
                            if s not in avoid[L + 1] or dt.repetitive_strip(q, s, k) != p:
                                plateau_fail.append(f"k={k} q={q} round trip at {p}")
            if not dt.has_second_child(q, k):
                continue
            for n in range(k, n_max + 2, k):
                for p in avoid[n]:
                    first = dt.child(p, q, k)
                    second = dt.second_child(p, q, k)
                    if contains(second, q):
                        secondary_fail.append(f"k={k} q={q} p={p}")
                    # For 2431 with the maximum closing the last full row the
                    # two prescriptions inject n and n+1, which coincide.
                    degenerate = q == (2, 4, 3, 1) and p[-1] == n
                    if second == first and not degenerate:
                        secondary_fail.append(f"k={k} q={q} p={p} collision")
        for n in range(k, n_max + 1):
            members = list(generate(DescentType(k), n))
            for b_len in range(2, k + 1):
                ident = tuple(range(1, b_len + 1))
                cnt = sum(1 for p in members if not contains(p, ident))
                if cnt != 0:
                    identity_fail.append(f"k={k} b={b_len} n={n}: {cnt}")
    return [
        _result("children avoid the pattern and extend the parent", child_fail),
        _result("the child assignment is injective", inj_fail),
        _result("avoider counts never drop with length", mono_fail),
        _result("strict growth off the repetitive plateaus", strict_fail),
        _result("repetitive plateaus are flat and realized bijectively", plateau_fail),
        _result("secondary injections give distinct avoiding children", secondary_fail),
        _result("identity patterns have no avoiders once rows reach them", identity_fail),
    ]


# Each suite by its command-line name, with the size keyword its size flag
# sets; the order is the order `verify --help` lists them in.
SUITES = {
    "bijection": (bijection_suite, "rows"),
    "eboard": (eboard_suite, "rows"),
    "extension": (extension_suite, "rows"),
    "doubling": (doubling_suite, "k_max"),
    "injections": (injections_suite, "n_max"),
    "shape2": (shape2_suite, "rows"),
}
