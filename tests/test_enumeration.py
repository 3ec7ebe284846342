import itertools
import time

import pytest

from altperm import enumeration
from altperm.cache import CountCache
from altperm.diagrams import CountMemo
from altperm.enumeration import (
    AvoidanceQuery,
    BudgetExceeded,
    avoiders,
    count_avoiders,
    count_class,
    generate,
    sequence,
    sequences,
    trivial_symmetry_for,
)
from altperm.perms import (
    ALL,
    ALTERNATING,
    REVERSE_ALTERNATING,
    AscentSet,
    DescentSet,
    DescentType,
    complement,
    contains,
    parse_perm,
    perms_of,
    standardize,
)

EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]


def test_class_sizes_match_euler_numbers():
    for n in range(0, 10):
        assert count_class(ALTERNATING, n) == EULER[n]
        assert count_class(REVERSE_ALTERNATING, n) == EULER[n]
    assert count_class(ALL, 0) == 1
    assert list(generate(ALL, 0)) == [()]


def test_generator_is_lexicographic_and_matches_filter():
    classes = [
        ALL,
        ALTERNATING,
        REVERSE_ALTERNATING,
        DescentType(3),
        DescentSet(frozenset({2})),
        AscentSet(frozenset({1, 3})),
        DescentSet(frozenset({2, 4})),
        DescentSet(frozenset({9})),  # infeasible at every n here
    ]
    for cls in classes:
        for n in range(0, 7):
            got = list(generate(cls, n))
            assert got == sorted(got)
            expected = [w for w in perms_of(n) if cls.member(w)]
            assert got == expected
            assert count_class(cls, n) == len(expected)


def test_generator_empty_for_infeasible_class():
    assert list(generate(DescentSet(frozenset({5})), 3)) == []
    assert count_avoiders(AvoidanceQuery((2, 1), DescentSet(frozenset({9})), 4)).count == 0


def test_alternating_4_has_five_members():
    assert count_class(ALTERNATING, 4) == 5


def test_descent_type_generator_cross_check():
    got = sum(1 for _ in generate(DescentType(3), 5))
    expected = sum(1 for w in perms_of(5) if DescentType(3).member(w))
    assert got == expected


def test_pruned_counter_equals_filter_oracle():
    # The slow side shares no code with the counter: members come from all
    # of S_n filtered by the class predicate, and a member contains q when
    # one of its standardized subsequences equals q.
    lengths = (1, 2, 3, 4, 5)
    patterns = [q for b in lengths for q in perms_of(b)]
    classes = [
        ALL,
        ALTERNATING,
        REVERSE_ALTERNATING,
        DescentType(2),
        DescentType(3),
        DescentType(4),
        DescentSet(frozenset({1, 3})),
        AscentSet(frozenset({2})),
    ]
    for cls in classes:
        for n in range(0, 8):
            members = [w for w in perms_of(n) if cls.member(w)]
            contained = [
                {standardize(sub) for b in lengths for sub in itertools.combinations(w, b)}
                for w in members
            ]
            for q in patterns:
                fast = count_avoiders(AvoidanceQuery(q, cls, n)).count
                slow = sum(1 for pats in contained if q not in pats)
                assert fast == slow, (q, cls, n)


@pytest.mark.parametrize(
    "cls", [ALL, ALTERNATING, REVERSE_ALTERNATING, DescentType(3), DescentType(4)],
    ids=lambda cls: cls.label(),
)
def test_grown_avoiders_equal_the_filtered_members(cls):
    members = {n: list(generate(cls, n)) for n in range(9)}
    for q in (q for b in range(1, 5) for q in perms_of(b)):
        grown = avoiders(q, cls, 8)
        assert sorted(grown) == list(range(9))
        for n, level in grown.items():
            assert level == {p for p in members[n] if not contains(p, q)}, (q, n)


@pytest.mark.parametrize("cls", [DescentSet(frozenset({1, 3})), AscentSet(frozenset({2}))])
def test_avoiders_refuse_a_class_empty_at_some_length(cls):
    with pytest.raises(ValueError, match="cannot grow"):
        avoiders((2, 1), cls, 5)


def test_trivial_counts():
    for q in ((2, 1), (1, 2, 3), (4, 3, 2, 1)):
        assert count_avoiders(AvoidanceQuery(q, ALTERNATING, 1)).count == 1
    assert sequence((2, 1), ALL, range(1, 6)) == [1, 1, 1, 1, 1]


def test_reference_table_spot_values():
    assert count_avoiders(AvoidanceQuery(parse_perm("634521"), ALTERNATING, 8)).count == 1385
    assert count_avoiders(AvoidanceQuery(parse_perm("3124"), DescentType(3), 5)).count == 9
    assert sequence(parse_perm("2134"), DescentType(3), range(1, 10)) == [1, 1, 1, 3, 9, 9, 44, 153, 153]


def test_alternating_vs_reverse_complement_duality():
    for b in (2, 3, 4):
        for q in perms_of(b):
            for n in range(1, 8):
                a = count_avoiders(AvoidanceQuery(q, ALTERNATING, n)).count
                b2 = count_avoiders(AvoidanceQuery(complement(q), REVERSE_ALTERNATING, n)).count
                assert a == b2, (q, n)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        count_avoiders(AvoidanceQuery((1, 2, 3, 4), ALL, 11), deadline=time.perf_counter())


def test_deadline_stops_a_count_mid_run():
    # the count takes seconds; it must run until the deadline, then stop
    query = AvoidanceQuery(parse_perm("634521"), ALTERNATING, 16)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        count_avoiders(query, deadline=t0 + 0.3)
    elapsed = time.perf_counter() - t0
    assert 0.3 <= elapsed < 2.0


def test_states_counts_the_memo():
    small = count_avoiders(AvoidanceQuery(parse_perm("634521"), ALTERNATING, 8))
    large = count_avoiders(AvoidanceQuery(parse_perm("634521"), ALTERNATING, 10))
    assert 0 < small.states < large.states
    # nothing is counted in a class that is empty at this length
    empty = count_avoiders(AvoidanceQuery((2, 1), DescentSet(frozenset({9})), 4))
    assert empty.count == 0 and empty.states == 0


RUN_CLASSES = [
    ALL,
    ALTERNATING,
    REVERSE_ALTERNATING,
    DescentType(3),
    DescentSet(frozenset({2, 5})),  # empty below length 6
    AscentSet(frozenset({1, 3})),  # empty below length 4
]


@pytest.mark.parametrize("cls", RUN_CLASSES, ids=lambda cls: cls.label())
def test_a_run_counts_each_length_as_a_single_count_does(cls):
    # one memo serves the run's lengths, read bottom-up; the single counts
    # read top-down, each with a memo of its own
    orders = [list(range(1, 10)), [9, 3, 7, 1, 5], [6, 2, 8, 4], [5, 5, 1, 9, 9]]
    patterns = list(perms_of(3)) + [(2, 1, 4, 3), (3, 1, 4, 2), (1, 4, 2, 3), (4, 3, 2, 1)]
    for q in patterns:
        single = {n: count_avoiders(AvoidanceQuery(q, cls, n)).count for n in range(1, 10)}
        for lengths in orders:
            assert sequence(q, cls, lengths) == [single[n] for n in lengths], (q, lengths)
    if isinstance(cls, DescentSet):
        # no count below the class's largest index, and counts past it
        long, short, shorter, six = sequence((3, 2, 1), cls, [7, 5, 2, 6])
        assert short == shorter == 0 < min(long, six)


def test_a_run_reads_the_store_first_and_stores_what_it_counts(tmp_path):
    q, cls = parse_perm("2134"), DescentType(3)
    store = CountCache(tmp_path)
    # a planted record in the middle of the run is returned as it is, and
    # the lengths after it are still counted right
    store.put(q, cls, 6, 1000)
    assert sequence(q, cls, range(1, 10), store) == [1, 1, 1, 3, 9, 1000, 44, 153, 153]
    again = CountCache(tmp_path)
    assert [again.get(q, cls, n) for n in range(1, 10)] == [1, 1, 1, 3, 9, 1000, 44, 153, 153]


@pytest.mark.parametrize("cls", RUN_CLASSES, ids=lambda cls: cls.label())
def test_several_patterns_count_as_each_pattern_alone(cls):
    # alt and ralt pair patterns at every n >= 2, dk:3 at n = 2, 3 and 6,
    # dset:2,5 at n = 7 (2 and 5 swap), aset:1,3 at n = 4 and 5, all at no n
    # (both symmetries hold); the lengths come out of order and one repeats
    patterns = [p for k in range(1, 5) for p in itertools.permutations(range(1, k + 1))]
    lengths = [5, 1, 8, 2, 7, 3, 6, 4, 5]
    got = sequences(reversed(patterns), cls, lengths)
    assert list(got) == patterns[::-1]
    assert got == {q: sequence(q, cls, lengths) for q in patterns}
    paired = {"alt": range(2, 9), "ralt": range(2, 9), "dk:3": [2, 3, 6], "all": [],
              "dset:2,5": [7], "aset:1,3": [4, 5]}[cls.label()]
    assert [n for n in range(1, 9) if trivial_symmetry_for(cls, [n])] == list(paired)


def spy_runs(monkeypatch):
    """Record the (pattern, lengths) of each run that `sequences` makes."""
    runs = []

    def spy(pattern, cls, lengths, cache=None, deadline=None):
        runs.append((pattern, list(lengths)))
        return sequence(pattern, cls, lengths, cache, deadline)

    monkeypatch.setattr(enumeration, "sequence", spy)
    return runs


def test_a_symmetric_pair_is_counted_once_by_its_lesser_pattern(monkeypatch):
    runs = spy_runs(monkeypatch)
    patterns = [p for k in (3, 4) for p in itertools.permutations(range(1, k + 1))]
    sequences(patterns, ALTERNATING, range(1, 10))
    counted = [(p, n) for p, ns in runs for n in ns]
    # n = 1: all 30; odd n: 3 + 12 reversal orbits; even n: 4 + 16
    # reverse-complement orbits
    assert len(counted) == len(set(counted)) == 170
    for p, n in counted:
        sym = trivial_symmetry_for(ALTERNATING, [n])
        assert n == 1 or p <= sym(p), (p, n)
    runs.clear()
    # a pattern whose image is not asked is counted at every length, even
    # where the image is the lesser tuple
    sequences([(2, 3, 1)], ALTERNATING, range(1, 10))
    assert runs == [((2, 3, 1), list(range(1, 10)))]


def test_sequences_store_every_asked_count_once(tmp_path, monkeypatch):
    patterns = list(itertools.permutations(range(1, 4)))
    lengths = range(1, 8)
    expected = {q: sequence(q, ALTERNATING, lengths) for q in patterns}
    assert sequences(patterns, ALTERNATING, lengths, CountCache(tmp_path)) == expected
    store = CountCache(tmp_path)
    assert len(store) == 42
    assert all(store.get(q, ALTERNATING, n) == expected[q][n - 1] for q in patterns for n in lengths)
    # a replay hits the store for every counted pattern and stores nothing
    size = store.path.stat().st_size
    runs = spy_runs(monkeypatch)
    monkeypatch.setattr(enumeration, "count_avoiders", None)
    assert sequences(patterns, ALTERNATING, lengths, CountCache(tmp_path)) == expected
    assert runs and store.path.stat().st_size == size


def test_a_shared_memo_adds_only_the_states_a_length_has_not_met():
    q = parse_perm("634521")
    memo = CountMemo()
    added = []
    for n in range(2, 11, 2):
        shared = count_avoiders(AvoidanceQuery(q, ALTERNATING, n), memo=memo)
        fresh = count_avoiders(AvoidanceQuery(q, ALTERNATING, n), memo=CountMemo())
        assert shared.count == fresh.count
        added.append(shared.states)
        if n > 2:
            assert 0 < shared.states < fresh.states, n
    assert sum(added) == len(memo.states)


def test_a_run_honours_its_deadline():
    with pytest.raises(BudgetExceeded):
        sequence(parse_perm("634521"), ALTERNATING, range(1, 17), deadline=time.perf_counter() + 0.2)
