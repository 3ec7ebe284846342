import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altperm.diagrams import (
    ADYoungDiagram,
    YoungDiagram,
    all_diagrams,
    alternating_configs,
    parse_ad,
    parse_diagram,
    semialternating_configs,
    transversal_contains,
    transversals,
    valid_transversals,
)
from altperm import bijection
from altperm.bijection import (
    F3,
    J3,
    LemmaViolation,
    StepError,
    alpha,
    alpha_inverse,
    alpha_parent,
    classify_f,
    classify_j,
    e_squares,
    f3_copies,
    gamma,
    is_separable,
    j3_copies,
    omega,
    phi,
    phi_to_fixpoint,
    psi,
    psi_to_fixpoint,
    selected_copies,
    semialternating_phi,
    shape_copies,
    sharp,
    theta,
)
from altperm.perms import standardize

FIG_Y = YoungDiagram((6, 6, 5, 5, 5, 5))
FIG_T = (3, 6, 4, 1, 2, 5)


def test_gamma_figure_example():
    assert gamma(FIG_T, (2, 3, 5, 6), (2, 5)) == (3, 5, 6)
    assert gamma(FIG_T, (1, 2, 3), (4, 3)) == ()  # empty window
    assert gamma(FIG_T, range(1, 7), (1, 6)) == (1, 2, 3, 4, 5, 6)


def test_cyclic_shift_figure_example():
    w = omega(FIG_Y, FIG_T, (2, 3, 5, 6), (2, 5))
    t = theta(FIG_Y, FIG_T, (2, 3, 5, 6), (2, 5))
    assert w == (3, 6, 5, 1, 4, 2)
    assert t == (3, 6, 2, 1, 5, 4)
    assert theta(FIG_Y, w, (2, 3, 5, 6), (2, 5)) == FIG_T
    assert omega(FIG_Y, t, (2, 3, 5, 6), (2, 5)) == FIG_T


def test_cyclic_shift_row_length_guard():
    Y = parse_diagram("3,2,1")
    with pytest.raises(StepError):
        omega(Y, (3, 2, 1), (1, 3), (1, 3))  # row 3 has 1 square, window needs 3


@settings(max_examples=80, deadline=None)
@given(st.permutations(list(range(1, 7))))
def test_shifts_are_inverse_on_random_transversals(Tl):
    T = tuple(Tl)
    Y = YoungDiagram((6,) * 6)
    rows = (2, 3, 5)
    window = (2, 5)
    assert theta(Y, omega(Y, T, rows, window), rows, window) == T
    assert omega(Y, theta(Y, T, rows, window), rows, window) == T


def test_disjoint_windows_commute():
    Y = YoungDiagram((6,) * 6)
    rng = random.Random(11)
    perms = list(itertools.permutations(range(1, 7)))
    for _ in range(150):
        T = rng.choice(perms)
        a = omega(Y, theta(Y, T, (4, 5, 6), (4, 6)), (1, 2), (1, 3))
        b = theta(Y, omega(Y, T, (1, 2), (1, 3)), (4, 5, 6), (4, 6))
        assert a == b


def test_copy_scans_respect_corner_condition():
    # (a3, b_a1) must lie inside Y for a decreasing-block copy
    Y = parse_diagram("3,2,1")
    T = (3, 2, 1)
    assert j3_copies(Y, T) == []  # corner (3,3) is outside Y
    sq = parse_diagram("3,3,3")
    assert j3_copies(sq, T) == [(1, 2, 3)]


def test_classification_examples():
    # with empty required sets everything is type 1
    sq = YoungDiagram((5,) * 5)
    ady = ADYoungDiagram(sq, frozenset(), frozenset())
    for T in itertools.permutations(range(1, 6)):
        for a in j3_copies(sq, T):
            assert classify_j(ady, T, a) == 1
        for a in f3_copies(ady, T):
            kind, slot = classify_f(ady, T, a)
            assert kind == 1 and slot == (a[2], a[0], a[1])


def test_classify_f_left_inverses():
    # type-2 slots are recovered by (d1, d3-2, d3-1)
    for r in range(2, 6):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    for a in f3_copies(ady, T):
                        kind, slot = classify_f(ady, T, a)
                        if kind == 2:
                            d3, d1, _ = slot
                            assert a == (d1, d3 - 2, d3 - 1)
                            assert a[1] == a[2] - 1


def test_slot_map_injective_small():
    for r in range(2, 6):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    V = f3_copies(ady, T)
                    slots = [classify_f(ady, T, v)[1] for v in V]
                    assert len(slots) == len(set(slots)), (str(ady), T)


def test_selection_rules():
    sq = YoungDiagram((5,) * 5)
    ady = ADYoungDiagram(sq, frozenset(), frozenset())
    T = (5, 4, 3, 2, 1)
    assert selected_copies(ady, T) == (min(j3_copies(sq, T), key=sharp), None)
    assert selected_copies(ady, (1, 2, 3, 4, 5)) == (None, None)
    # with empty required sets the slot order is the sharp order on copies
    T2 = (3, 1, 4, 2, 5)
    j, f = selected_copies(ady, T2)
    assert j is None
    assert sharp(f) == max(sharp(v) for v in f3_copies(ady, T2))


def test_separability_vacuous_cases():
    sq = YoungDiagram((4,) * 4)
    ady = ADYoungDiagram(sq, frozenset(), frozenset())
    for T in itertools.permutations(range(1, 5)):
        has_j = transversal_contains(sq, T, J3)
        has_f = transversal_contains(sq, T, F3)
        if not has_j or not has_f:
            assert is_separable(ady, T)


def test_phi_requires_copy_and_separability():
    """A step with no copy to remove ends the walk; a step off the
    separable transversals raises."""
    ady = parse_ad("4,4,4,4;A=;D=")
    assert phi(ady, (1, 3, 2, 4)) is None  # no decreasing block
    assert psi(ady, (4, 3, 2, 1)) is None  # no 213 block
    T = (3, 2, 1, 4)  # holds both blocks, the 213 one after the other
    assert not is_separable(ady, T)
    for step in (phi, psi):
        with pytest.raises(StepError):
            step(ady, T)


def test_a_step_ends_exactly_where_the_matcher_finds_no_block():
    """The steps list their own block's copies; the matcher is the
    independent oracle for whether a transversal holds the block."""
    ends = 0
    for r in range(1, 6):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    for step, block in ((phi, J3), (psi, F3)):
                        try:
                            ended = step(ady, T) is None
                        except StepError:
                            ended = False
                        assert ended == (not transversal_contains(Y, T, block)), (ady, T, block)
                        ends += ended
    assert ends > 1000


def test_bwx_agreement_on_plain_squares():
    """With empty required sets the step is the basic 3-cycle at the copy
    minimizing the sharp key."""
    for n in range(3, 6):
        sq = YoungDiagram((n,) * n)
        ady = ADYoungDiagram(sq, frozenset(), frozenset())
        for T in itertools.permutations(range(1, n + 1)):
            if not transversal_contains(sq, T, J3) or not is_separable(ady, T):
                continue
            a1, a2, a3 = min(j3_copies(sq, T), key=sharp)
            ref = list(T)
            ref[a1 - 1], ref[a2 - 1], ref[a3 - 1] = T[a2 - 1], T[a3 - 1], T[a1 - 1]
            assert phi(ady, T) == tuple(ref)


def test_round_trips_small():
    for r in range(1, 5):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                vt = list(valid_transversals(ady))
                SF = [T for T in vt if not transversal_contains(Y, T, F3)]
                SJ = {T for T in vt if not transversal_contains(Y, T, J3)}
                assert len(SF) == len(SJ)
                images = set()
                for T in SF:
                    U = phi_to_fixpoint(ady, T)
                    assert U in SJ
                    assert psi_to_fixpoint(ady, U) == T
                    images.add(U)
                assert images == SJ


def test_lexicographic_monotonicity():
    for Y in all_diagrams(4, 4):
        for ady in alternating_configs(Y):
            for T in valid_transversals(ady):
                if not is_separable(ady, T):
                    continue
                if transversal_contains(Y, T, J3):
                    assert phi(ady, T) < T
                if transversal_contains(Y, T, F3):
                    assert psi(ady, T) > T


@pytest.mark.parametrize(
    "step, fixpoint, T",
    [("phi", phi_to_fixpoint, (3, 2, 1)), ("psi", psi_to_fixpoint, (2, 1, 3))],
)
def test_fixpoint_refuses_a_step_that_does_not_move(monkeypatch, step, fixpoint, T):
    """Only the strict-monotone check bounds the fixpoint loop: a step that
    hands back its input must raise LemmaViolation, not spin.  The fake step
    gives up after a few calls, so a missing check fails instead of hanging."""
    calls = []

    def stuck(ady, cur, copies=None):
        calls.append(cur)
        if len(calls) > 5:
            raise RuntimeError("the fixpoint loop kept calling a step that does not move")
        return tuple(cur)

    monkeypatch.setattr(bijection, step, stuck)
    ady = ADYoungDiagram(YoungDiagram((3, 3, 3)), frozenset(), frozenset())
    assert transversal_contains(ady.diagram, T, J3 if step == "phi" else F3)
    with pytest.raises(LemmaViolation, match="did not strictly"):
        fixpoint(ady, T)
    assert calls == [T]


def test_alpha_embedding_shapes():
    ady = parse_ad("3,3,2;A=;D=1")
    parent = alpha_parent(ady)
    assert parent.diagram.rows == (4, 4, 4, 3)
    assert parent.A == frozenset({1}) and parent.D == frozenset({2})
    T = (3, 1, 2)
    assert alpha(T) == (1, 4, 2, 3)
    assert alpha_inverse(alpha(T)) == T
    with pytest.raises(StepError):
        alpha_inverse((2, 1, 3, 4))


def test_semialternating_guard():
    not_semi = parse_ad("3,3,3;A=;D=1,2")  # 1 in D and 2 in D: window breaks
    with pytest.raises(StepError):
        semialternating_phi(not_semi, (3, 2, 1))


def test_pinned_first_column_is_preserved():
    # first-column pins survive each step on embedded transversals
    for Y in all_diagrams(4, 4):
        for ady in semialternating_configs(Y):
            if 1 not in ady.D:
                continue
            parent = alpha_parent(ady)
            for T in valid_transversals(ady):
                if transversal_contains(ady.diagram, T, F3):
                    continue
                cur = alpha(T)
                seen = 0
                while transversal_contains(parent.diagram, cur, J3) and seen < 50:
                    cur = phi(parent, cur)
                    assert cur[0] == 1
                    seen += 1


def test_boards_are_inside_diagram():
    for Y in all_diagrams(4, 4):
        for ady in alternating_configs(Y):
            for T in valid_transversals(ady):
                for a in j3_copies(Y, T) + f3_copies(ady, T):
                    for (i, j) in e_squares(ady, T, a):
                        assert Y.contains_square(i, j)


def _literal_board(Y, regions):
    return {
        (i, j)
        for rows, cols in regions
        for i in rows
        for j in cols
        if Y.contains_square(i, j)
    }


def phi_board_oracle(ady, T, a):
    """The decreasing-block board as the paper states it."""
    a1, a2, a3 = a
    Y, n = ady.diagram, ady.n
    ba1, ba2, ba3 = T[a1 - 1], T[a2 - 1], T[a3 - 1]
    return _literal_board(Y, [
        (range(1, a1), range(ba2, Y.row_len(a3) + 1)),
        (range(a1 + 1, a2), range(ba3, ba1 + 1)),
        (range(a2 + 1, a3), range(1, ba2 + 1)),
        (range(a3 + 1, n + 1), range(ba2 + 1, n + 1)),
    ])


def psi_board_oracle(ady, T, a):
    """The 213-block board as the paper states it."""
    a1, a2, a3 = a
    Y, n = ady.diagram, ady.n
    ba1, ba2, ba3 = T[a1 - 1], T[a2 - 1], T[a3 - 1]
    return _literal_board(Y, [
        (range(1, a1), range(ba1, Y.row_len(a3) + 1)),
        (range(a1 + 1, a2), range(ba2, ba3 + 1)),
        (range(a2 + 1, a3), range(1, ba1 + 1)),
        (range(a3 + 1, n + 1), range(ba1 + 1, n + 1)),
    ])


def test_one_board_formula_serves_both_blocks():
    copies = 0
    for r in range(1, 6):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    for a in j3_copies(Y, T):
                        assert e_squares(ady, T, a) == phi_board_oracle(ady, T, a), (ady, T, a)
                    for a in f3_copies(ady, T):
                        assert e_squares(ady, T, a) == psi_board_oracle(ady, T, a), (ady, T, a)
                    copies += len(j3_copies(Y, T)) + len(f3_copies(ady, T))
    assert copies > 1000


def test_the_board_check_tests_each_row_against_its_band():
    """The board check's hits are the elements of T on the board's square
    set, in row order, for every copy of either block: empty for the
    copies the steps select, and not always empty for the others."""
    selected = hit = 0
    for r in range(1, 6):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    chosen = selected_copies(ady, T) or (None, None)
                    for a in j3_copies(Y, T) + f3_copies(ady, T):
                        board = e_squares(ady, T, a)
                        expected = [(i, c) for i, c in enumerate(T, 1) if (i, c) in board]
                        assert bijection._board_hits(ady, T, a) == expected, (ady, T, a)
                        if a in chosen:
                            assert expected == [], (ady, T, a)
                            selected += 1
                        hit += bool(expected)
    assert selected > 500 and hit > 500


def test_traces_record_each_step():
    """A step table that starts empty is the walk's trace: its keys chain
    from the start, each value is one step from its key, and the walk ends
    where the table does, at a transversal the step finds no copy in (or
    raises at, off the separable transversals)."""
    steps = 0
    for r in range(1, 6):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    for fixpoint, step in ((phi_to_fixpoint, phi), (psi_to_fixpoint, psi)):
                        table = {}
                        try:
                            end = fixpoint(ady, T, steps=table)
                        except StepError:
                            end = StepError
                        cur = tuple(T)
                        for before, after in table.items():
                            assert before == cur
                            assert after == step(ady, cur)
                            cur = after
                        if end is StepError:
                            with pytest.raises(StepError):
                                step(ady, cur)
                        else:
                            assert cur == end and step(ady, end) is None
                        steps += len(table)
    assert steps > 1000


def test_a_semialternating_map_records_the_embedded_steps():
    recorded = 0
    for r in range(1, 6):
        for Y in all_diagrams(r, r):
            for ady in semialternating_configs(Y):
                for T in valid_transversals(ady):
                    if transversal_contains(Y, T, F3):
                        continue
                    table = {}
                    U = semialternating_phi(ady, T, steps=table)
                    walked, start = (alpha_parent(ady), alpha(T)) if 1 in ady.D else (ady, T)
                    walk = {}
                    end = phi_to_fixpoint(walked, start, steps=walk)
                    assert U == (alpha_inverse(end) if 1 in ady.D else end)
                    assert table == walk
                    recorded += len(table)
    assert recorded > 100


def test_selected_copies_are_the_selections_of_a_separable_transversal():
    def largest_slot(ady, T, copies):
        return max(copies, key=lambda a: classify_f(ady, T, a)[1], default=None)

    picked = 0
    for r in range(1, 6):
        for Y in all_diagrams(r, r):
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    expected = None
                    if is_separable(ady, T):
                        expected = (
                            min(j3_copies(Y, T), key=sharp, default=None),
                            largest_slot(ady, T, f3_copies(ady, T)),
                        )
                        picked += expected != (None, None)
                    assert selected_copies(ady, T) == expected, (ady, T)
    assert picked > 500


def _outcome(call):
    try:
        return call()
    except StepError:
        return StepError


def test_the_shape_memo_agrees_with_the_matcher_and_with_listing_per_call():
    """Over every shape with <= 5 rows, the memo of shape_copies holds
    exactly the matcher's block containments, the least M(321) copy in
    sharp order and every M(213) copy by brute force; and the steps and the
    selection read from it what they compute without it, StepError
    included, on every 1-alternating triple."""
    refused = 0
    for r in range(1, 6):
        for Y in all_diagrams(r, r):
            copies = {T: shape_copies(Y, T) for T in transversals(Y)}
            for T, (j, fs) in copies.items():
                assert (j is not None) == transversal_contains(Y, T, J3), (Y, T)
                assert bool(fs) == transversal_contains(Y, T, F3), (Y, T)
                assert j == min(j3_copies(Y, T), key=sharp, default=None), (Y, T)
                assert set(fs) == {
                    a
                    for a in itertools.combinations(range(1, r + 1), 3)
                    if standardize([T[i - 1] for i in a]) == F3
                }, (Y, T)
            for ady in alternating_configs(Y):
                for T in valid_transversals(ady):
                    for fn in (phi, psi, selected_copies, is_separable):
                        alone = _outcome(lambda: fn(ady, T))
                        assert _outcome(lambda: fn(ady, T, copies)) == alone, (fn, ady, T)
                        refused += alone is StepError
    assert refused > 100
