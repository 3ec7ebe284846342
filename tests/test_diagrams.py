
import gc
import itertools
import random
import time

import pytest

from altperm.diagrams import (
    ADYoungDiagram,
    BudgetExceeded,
    CountMemo,
    YoungDiagram,
    _count_avoiders,
    ad_configs,
    all_diagrams,
    alternating_configs,
    by_config,
    class_square,
    count_avoiding_transversals,
    eligible_indices,
    is_ad_young,
    is_valid_transversal,
    is_x_alternating,
    is_x_semialternating,
    j2_canonical_transversal,
    least_x,
    parse_ad,
    parse_diagram,
    points_contain,
    semialternating_configs,
    shape2_closed_form,
    transversal_contains,
    transversals,
    valid_transversals,
)
from altperm.enumeration import AvoidanceQuery, count_avoiders
from altperm.perms import (
    ALL,
    ALTERNATING,
    REVERSE_ALTERNATING,
    AscentSet,
    DescentSet,
    DescentType,
    contains,
    perms_of,
    standardize,
)


def list_and_filter(ady, q):
    """The triple oracle: every valid transversal, tested one by one."""
    Y = ady.diagram
    return sum(1 for T in valid_transversals(ady) if not transversal_contains(Y, T, q))


def test_diagram_construction_rules():
    assert parse_diagram("4,4,2,2").n == 4
    with pytest.raises(ValueError):
        YoungDiagram((3, 4, 2))  # not weakly decreasing
    with pytest.raises(ValueError):
        YoungDiagram((4, 3))  # fewer rows than columns
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))  # empty row
    assert YoungDiagram(()).n == 0


def test_ad_young_gate():
    Y = parse_diagram("4,4,2,2")
    assert is_ad_young(Y, set(), {3})
    assert not is_ad_young(parse_diagram("3,3,1"), {1}, {2})
    sq = parse_diagram("5,5,5,5,5")
    assert is_ad_young(sq, {1, 3}, {2, 4})
    assert not is_ad_young(sq, {1}, {1})  # not disjoint
    with pytest.raises(ValueError):
        ADYoungDiagram(Y, frozenset({9}), frozenset())


def test_parse_and_str_round_trip():
    ady = parse_ad("4,4,2,2;A=;D=3")
    assert ady.A == frozenset() and ady.D == frozenset({3})
    assert str(ady) == "4,4,2,2;A=;D=3"
    assert parse_ad(str(ady)) == ady
    # an empty field in a comma list is an error that names the list
    for text in (" , 2,,1,", "3,,3"):
        with pytest.raises(ValueError, match="empty field"):
            parse_diagram(text)
    with pytest.raises(ValueError, match="'1,,'"):
        parse_ad("3,3,3;A=1,,;D=2")


def test_alternation_predicates_worked_example():
    sq = parse_diagram("4,4,4,4")
    a = ADYoungDiagram(sq, frozenset({1}), frozenset({2}))
    assert is_x_alternating(a, 1)
    b = ADYoungDiagram(sq, frozenset({1, 3}), frozenset({2}))
    assert is_x_alternating(b, 2)
    assert not is_x_alternating(b, 1)
    # empty required sets: always 1-alternating
    for Y in all_diagrams(5):
        assert is_x_alternating(ADYoungDiagram(Y, frozenset(), frozenset()), 1)
    # 1-alternating implies 1-semialternating and x-alternating for larger x
    for Y in all_diagrams(4):
        for ady in ad_configs(Y):
            if is_x_alternating(ady, 1):
                assert is_x_semialternating(ady, 1)
                assert is_x_alternating(ady, 2)


def test_transversal_containment_figure_data():
    Y = parse_diagram("6,6,6,6,5,4")
    T = (3, 4, 6, 5, 2, 1)
    assert is_valid_transversal(ADYoungDiagram(Y, frozenset(), frozenset()), T)
    assert transversal_contains(Y, T, (2, 3, 1))
    assert not transversal_contains(Y, T, (4, 3, 2, 1))
    # on a full square the corner condition is vacuous
    sq = parse_diagram("6,6,6,6,6,6")
    for q in perms_of(3):
        assert transversal_contains(sq, T, q) == contains(T, q)


def corner_rule_oracle(rows, cols, q):
    """Transversal containment read off its definition: entries at indices
    i_1 < ... < i_r whose columns form a copy of q, with the corner square
    (row of i_r, largest column) inside the diagram; rows[i] is the length
    of the row that holds entry i."""
    return any(
        standardize([cols[i] for i in idx]) == q and max(cols[i] for i in idx) <= rows[idx[-1]]
        for idx in itertools.combinations(range(len(cols)), len(q))
    )


def test_transversal_containment_matches_the_corner_rule_oracle():
    pats = [q for k in range(1, 5) for q in perms_of(k)]
    cases = 0
    for Y in all_diagrams(5):
        for T in transversals(Y):
            for q in pats:
                assert transversal_contains(Y, T, q) == corner_rule_oracle(Y.rows, T, q), (Y, T, q)
                cases += 1
    assert cases == 35277
    # point sets: any rows of a 6-row transversal, handed over unsorted
    rng = random.Random(7)
    shapes = [(Y, ts) for Y in all_diagrams(6, 6) if (ts := list(transversals(Y)))]
    for _ in range(2000):
        Y, ts = rng.choice(shapes)
        T = rng.choice(ts)
        pts = rng.sample([(i + 1, c) for i, c in enumerate(T)], rng.randint(0, 6))
        k = rng.randint(1, 4)
        q = tuple(rng.sample(range(1, k + 1), k))
        chosen = sorted(pts)
        rows = [Y.rows[r - 1] for r, _ in chosen]
        expected = corner_rule_oracle(rows, [c for _, c in chosen], q)
        assert points_contain(pts, q, Y) == expected, (Y, pts, q)


def test_transversals_are_the_permutations_under_the_rows():
    for Y in all_diagrams(5):
        rows = Y.rows
        expected = [T for T in perms_of(Y.n) if all(T[i] <= rows[i] for i in range(Y.n))]
        assert list(transversals(Y)) == expected, Y


def fits(T, A, D):
    return all(T[i - 1] < T[i] for i in A) and all(T[i - 1] > T[i] for i in D)


def test_the_lister_is_the_filtered_permutations_on_every_triple():
    # all of S_n in lexicographic order, kept when the word fits under the
    # rows and holds A and D; shapes that lack the staircase are among them
    empty = 0
    for Y in all_diagrams(6):
        rows = Y.rows
        under = [T for T in perms_of(Y.n) if all(T[i] <= rows[i] for i in range(Y.n))]
        empty += not under
        for ady in ad_configs(Y):
            expected = [T for T in under if fits(T, ady.A, ady.D)]
            assert list(valid_transversals(ady)) == expected, ady
    assert empty > 0
    assert list(valid_transversals(parse_ad(";A=;D="))) == [()]


@pytest.mark.parametrize(
    "cls",
    [ALL, ALTERNATING, REVERSE_ALTERNATING]
    + [DescentType(k) for k in range(2, 6)]
    + [DescentSet(frozenset({2, 4})), AscentSet(frozenset({1, 3}))],
    ids=lambda c: c.label(),
)
def test_the_lister_is_the_filtered_permutations_on_class_squares(cls):
    for n in range(0, 9):
        if not cls.feasible(n):
            continue
        ady = class_square(cls, n)
        expected = [T for T in perms_of(n) if fits(T, ady.A, ady.D)]
        assert list(valid_transversals(ady)) == expected, n


def test_alternation_is_monotone_in_x():
    # the window of x-alternation shrinks as x grows, so once a triple is
    # x-alternating it stays so
    for Y in all_diagrams(6):
        k = Y.n
        for ady in ad_configs(Y):
            for start, holds in ((0, is_x_alternating), (1, is_x_semialternating)):
                got = [holds(ady, x) for x in range(1, k + 2)]
                window = [
                    all((i in ady.A) == (i + 1 in ady.D) for i in range(start, k - x + 1))
                    for x in range(1, k + 2)
                ]
                assert got == window, (ady, start)
                assert got == sorted(got), (ady, start)
                assert least_x(ady, start) == got.index(True) + 1


def test_per_shape_filter_matches_the_lister():
    # by_config filters one list of all transversals by ascent masks;
    # valid_transversals fills each triple's words under its constraints
    for Y in all_diagrams(5):
        configs = list(ad_configs(Y))
        got = list(by_config(list(transversals(Y)), configs))
        assert [ady for ady, _ in got] == configs
        for ady, vt in got:
            assert vt == list(valid_transversals(ady)), ady


def test_full_square_avoidance_bridge():
    # one counter, two readings of the class square: bottom-up with the
    # pattern reversed (the triple count) and top-down as given (the class
    # count), through different memo states
    reps = list(perms_of(3)) + [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    for cls in (ALTERNATING, REVERSE_ALTERNATING, DescentType(3)):
        for n in range(0, 8):
            enc = class_square(cls, n)
            for q in reps:
                lhs = count_avoiding_transversals(enc, q)
                rhs = count_avoiders(AvoidanceQuery(q, cls, n)).count
                assert lhs == rhs, (cls, n, q)


def test_avoider_counter_matches_the_list_and_filter_oracle():
    pats = [()] + [q for k in range(1, 4) for q in perms_of(k)]
    cases = 0
    for Y in all_diagrams(5):
        for ady in ad_configs(Y):
            for q in pats:
                assert count_avoiding_transversals(ady, q) == list_and_filter(ady, q), (ady, q)
                cases += bool(q)
    assert cases == 9441
    # relaxed triples: required sets at boundaries between rows of
    # different lengths, and longer patterns; row i is drawn from n - i..n,
    # leaning long, so the staircase and most transversals survive
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(5, 7)
        lens = (max(rng.randint(n - i, n), rng.randint(n - i, n)) for i in range(n))
        marks = [rng.choice((None, None, "A", "D")) for _ in range(n - 1)]
        A = frozenset(i for i, m in enumerate(marks, 1) if m == "A")
        D = frozenset(i for i, m in enumerate(marks, 1) if m == "D")
        ady = ADYoungDiagram(YoungDiagram(tuple(sorted(lens, reverse=True))), A, D, relaxed=True)
        k = rng.choice((4, 5))
        q = tuple(rng.sample(range(1, k + 1), k))
        assert count_avoiding_transversals(ady, q) == list_and_filter(ady, q), (ady, q)


PATTERNS_UP_TO_4 = [q for k in range(1, 5) for q in perms_of(k)]


def test_a_shared_memo_counts_every_triple_as_a_fresh_one():
    # one memo per pattern serves every AD triple with <= 5 rows, read
    # bottom-up: a triple reuses the states of the triples before it that
    # share its top rows
    triples = [ady for Y in all_diagrams(5) for ady in ad_configs(Y)]
    for q in PATTERNS_UP_TO_4:
        memo = CountMemo()
        for ady in triples:
            shared = count_avoiding_transversals(ady, q, memo=memo)
            assert shared == count_avoiding_transversals(ady, q), (ady, q)
        assert memo.states


def test_a_shared_memo_counts_every_class_square_as_a_fresh_one():
    # read top-down, the root of a smaller square has the profile of an
    # inner state of a larger one, so its key must not hold a first sign
    # that the count ignores
    for q in PATTERNS_UP_TO_4:
        memo = CountMemo()
        for cls in (ALTERNATING, REVERSE_ALTERNATING, DescentType(3)):
            for n in range(1, 10):
                signs = [cls.required(i, n) if i else 0 for i in range(n)]
                shared, _ = _count_avoiders((n,) * n, signs, q, None, memo)
                assert shared == count_avoiders(AvoidanceQuery(q, cls, n)).count, (cls, n, q)


def test_a_shared_memo_counts_every_class_square_bottom_up_as_a_fresh_one():
    # read bottom-up, the rows still to read are a square's top rows, so a
    # state of one length serves the next; the root of each square has a
    # profile of its own, with no sign on its first row
    for q in PATTERNS_UP_TO_4:
        memo = CountMemo()
        for cls in (ALTERNATING, REVERSE_ALTERNATING, DescentType(3)):
            for n in range(1, 10):
                shared = count_avoiding_transversals(class_square(cls, n), q, memo=memo)
                assert shared == count_avoiders(AvoidanceQuery(q, cls, n)).count, (cls, n, q)


def test_a_memo_counts_one_pattern():
    ady = parse_ad("4,4,2,2;A=;D=3")
    memo = CountMemo()
    assert count_avoiding_transversals(ady, (1, 2), memo=memo) == 1
    with pytest.raises(ValueError):
        count_avoiding_transversals(ady, (2, 1), memo=memo)
    # the triple's reading reverses the pattern, so the memo holds 21
    with pytest.raises(ValueError):
        _count_avoiders((2, 2), (0, 0), (1, 2), None, memo)
    assert count_avoiding_transversals(ady, (1, 2), memo=memo) == 1


def test_the_first_position_takes_no_sign():
    for sign in (1, -1):
        with pytest.raises(ValueError):
            _count_avoiders((3, 3, 3), (sign, 1, -1), (1, 2), None)
    assert _count_avoiders((3, 3, 3), (0, 1, -1), (1, 2), None)[0] == 0


def test_matchers_and_counters_leave_no_reference_cycles():
    sq = parse_diagram("6,6,6,6,5,4")
    shared = CountMemo()
    calls = [
        lambda: contains((2, 1, 4, 5, 3, 6), (1, 2, 3)),
        lambda: transversal_contains(sq, (3, 4, 6, 5, 2, 1), (2, 3, 1)),
        lambda: count_avoiders(AvoidanceQuery((1, 3, 2), ALTERNATING, 8)),
        lambda: list(valid_transversals(parse_ad("5,5,4,4,2;A=1;D=3"))),
        lambda: count_avoiding_transversals(parse_ad("4,4,2,2;A=;D=3"), (1, 2)),
        lambda: count_avoiding_transversals(parse_ad("4,4,4,4;A=1;D=2"), (1, 3, 2), memo=shared),
        lambda: count_avoiding_transversals(parse_ad("5,5,4,4,2;A=;D=3"), (1, 3, 2), memo=shared),
    ]
    gc.disable()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_triple_count_honours_its_deadline():
    ady = class_square(ALTERNATING, 12)
    with pytest.raises(BudgetExceeded):
        count_avoiding_transversals(ady, (4, 3, 2, 1), deadline=time.perf_counter())
    small = parse_ad("4,4,2,2;A=;D=3")
    assert count_avoiding_transversals(small, (1, 2), deadline=time.perf_counter() + 60) == 1


def test_class_square_required_sets():
    assert class_square(ALTERNATING, 5) == parse_ad("5,5,5,5,5;A=1,3;D=2,4")
    assert class_square(REVERSE_ALTERNATING, 4) == parse_ad("4,4,4,4;A=2;D=1,3")
    assert class_square(AscentSet(frozenset({2})), 3) == parse_ad("3,3,3;A=2;D=1")
    assert class_square(ALL, 0).n == 0
    with pytest.raises(ValueError):
        class_square(DescentSet(frozenset({5})), 3)


def test_missing_staircase_means_no_transversals():
    Y = parse_diagram("3,1,1")
    assert not Y.contains_staircase()
    assert list(valid_transversals(ADYoungDiagram(Y, frozenset(), frozenset()))) == []


def test_avoidance_counts_on_notched_shape():
    ady = parse_ad("4,4,2,2;A=;D=3")
    assert count_avoiding_transversals(ady, (1, 2)) == 1
    assert count_avoiding_transversals(ady, (2, 1)) == 0
    total = sum(1 for _ in valid_transversals(ady))
    for q in perms_of(2):
        assert count_avoiding_transversals(ady, q) <= total


def test_relaxed_triple_from_remark():
    rel = ADYoungDiagram(
        parse_diagram("3,3,1"), frozenset({1}), frozenset({2}), relaxed=True
    )
    assert count_avoiding_transversals(rel, (1, 2)) == 0
    assert count_avoiding_transversals(rel, (2, 1)) == 1
    with pytest.raises(ValueError):
        ADYoungDiagram(parse_diagram("3,3,1"), frozenset({1}), frozenset({2}))


def test_j2_canonical_rule():
    assert j2_canonical_transversal(parse_ad("4,4,2,2;A=;D=")) == (3, 4, 1, 2)
    assert j2_canonical_transversal(parse_ad("2,1;A=;D=")) == (2, 1)
    assert j2_canonical_transversal(parse_ad("3,1,1;A=;D=")) is None
    with pytest.raises(ValueError):
        j2_canonical_transversal(parse_ad("2,2;A=;D=1"))
    # on squares the rule reproduces the unique 21-avoider
    for n in range(1, 6):
        ady = ADYoungDiagram(YoungDiagram((n,) * n), frozenset(), frozenset())
        avoiders = [
            T
            for T in valid_transversals(ady)
            if not transversal_contains(ady.diagram, T, (2, 1))
        ]
        assert avoiders == [j2_canonical_transversal(ady)]


def test_closed_form_guard():
    with pytest.raises(ValueError):
        shape2_closed_form(parse_ad("2,2;A=;D="), (1, 2, 3))


def test_diagram_family_enumeration():
    assert sum(1 for _ in all_diagrams(6)) == 351
    Y = parse_diagram("4,4,2,2")
    assert eligible_indices(Y) == [1, 3]
    assert sum(1 for _ in ad_configs(Y)) == 9
    for ady in alternating_configs(Y):
        assert is_x_alternating(ady, 1)
    for ady in semialternating_configs(Y):
        assert is_x_semialternating(ady, 1)
    # every 1-alternating/semialternating config is produced
    for Yd in all_diagrams(4):
        alts = {(a.A, a.D) for a in alternating_configs(Yd)}
        semis = {(a.A, a.D) for a in semialternating_configs(Yd)}
        for ady in ad_configs(Yd):
            if is_x_alternating(ady, 1):
                assert (ady.A, ady.D) in alts
            if is_x_semialternating(ady, 1):
                assert (ady.A, ady.D) in semis
