import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altperm.perms import (
    ALTERNATING,
    REVERSE_ALTERNATING,
    AscentSet,
    DescentSet,
    DescentType,
    ascent_set,
    complement,
    contains,
    contains_ending_here,
    descent_set,
    doubling,
    format_perm,
    parse_class,
    parse_perm,
    perms_of,
    reverse,
    shortest_alternating_container,
    standardize,
)


def brute_contains(w, q):
    """Independent containment oracle: scan all subsequences."""
    if not q:
        return True
    return any(
        standardize(sub) == q for sub in itertools.combinations(w, len(q))
    )


def test_parse_and_format_round_trip():
    assert parse_perm("35624718") == (3, 5, 6, 2, 4, 7, 1, 8)
    assert format_perm((3, 5, 6, 2, 4, 7, 1, 8)) == "35624718"
    big = tuple([10] + list(range(1, 10)))
    assert parse_perm("10,1,2,3,4,5,6,7,8,9") == big
    assert format_perm(big) == "10,1,2,3,4,5,6,7,8,9"
    assert parse_perm("") == ()
    with pytest.raises(ValueError):
        parse_perm("122")


def test_contains_examples():
    assert contains(parse_perm("214536"), (1, 2, 3))
    for n in range(0, 8):
        assert not contains(tuple(range(1, n + 1)), (2, 1))
    # exhaustive scan fixes the expected value
    w = parse_perm("35624718")
    assert contains(w, (2, 1, 3, 4)) == brute_contains(w, (2, 1, 3, 4))
    assert contains(w, ()) and not contains((), (1,))


def test_contains_matches_brute_force():
    patterns = [q for b in (2, 3, 4) for q in perms_of(b)]
    for n in range(0, 6):
        for w in perms_of(n):
            for q in patterns:
                assert contains(w, q) == brute_contains(w, q), (w, q)


def test_contains_ending_here_is_incremental_containment():
    for n in range(1, 6):
        for w in perms_of(n):
            for q in list(perms_of(2)) + list(perms_of(3)):
                whole = contains(w, q)
                prefix_free = not contains(w[:-1], q)
                if prefix_free:
                    assert contains_ending_here(w, q) == whole


def test_contains_ending_here_on_irregular_prefixes():
    # search prefixes are injective sequences whose values can far exceed
    # their length; the matcher must not assume a full permutation
    import random

    def brute_end(w, q):
        b = len(q)
        if b == 0:
            return True
        if b > len(w):
            return False
        return any(
            standardize(tuple(w[i] for i in rest) + (w[-1],)) == q
            for rest in itertools.combinations(range(len(w) - 1), b - 1)
        )

    rng = random.Random(5)
    for _ in range(1500):
        m = rng.randint(1, 8)
        w = tuple(rng.sample(range(1, 30), m))
        b = rng.randint(1, 6)
        q = tuple(rng.sample(range(1, b + 1), b))
        assert contains_ending_here(w, q) == brute_end(w, q), (w, q)


def test_the_ending_mode_matches_brute_force_on_random_words():
    """contains(w, q, ending=True) against the copies that end at w's last
    entry, on injective words with gapped values; the draws include b = 1,
    b = len(w), b > len(w) and the empty pattern."""
    import random

    def brute(w, q):
        if not q:
            return True
        return any(
            standardize(tuple(w[i] for i in rest) + w[-1:]) == q
            for rest in itertools.combinations(range(len(w) - 1), len(q) - 1)
        )

    rng = random.Random(11)
    for _ in range(1000):
        w = tuple(rng.sample(range(-9, 40), rng.randint(0, 9)))
        for b in (0, 1, len(w), len(w) + 1, rng.randint(2, 6)):
            q = tuple(rng.sample(range(1, b + 1), b))
            assert contains(w, q, ending=True) == brute(w, q), (w, q)


def test_contains_matches_oracle_on_irregular_sequences():
    """Seeded property test against an independent oracle: injective
    sequences with negative and gapped values, patterns of length 0-6, with
    and without random tops (a copy counts only when its largest value is at
    most the top at its last entry's position)."""
    import random

    def oracle(w, q, tops):
        if not q:
            return True
        for idx in itertools.combinations(range(len(w)), len(q)):
            sub = tuple(w[i] for i in idx)
            if standardize(sub) == q and (tops is None or max(sub) <= tops[idx[-1]]):
                return True
        return False

    rng = random.Random(9)
    seen = set()
    for _ in range(6000):
        n = rng.randint(0, 9)
        w = tuple(rng.sample(range(-25, 40), n))
        b = rng.randint(0, 6)
        q = tuple(rng.sample(range(1, b + 1), b))
        tops = None
        if rng.random() < 0.5:
            tops = tuple(rng.randint(-25, 40) for _ in range(n))
        found = contains(w, q, tops)
        assert found == oracle(w, q, tops), (w, q, tops)
        seen.add((tops is None, found))
    assert len(seen) == 4


def test_symmetries_are_involutions_and_preserve_containment():
    for w in perms_of(6):
        assert reverse(reverse(w)) == w
        assert complement(complement(w)) == w
    for w in perms_of(5):
        for q in list(perms_of(3)) + [(2, 1, 4, 3)]:
            assert contains(w, q) == contains(reverse(w), reverse(q))
            assert contains(w, q) == contains(complement(w), complement(q))


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 8))))
def test_symmetry_invariants_length_7(wl):
    w = tuple(wl)
    for q in ((1, 2, 3), (3, 1, 2), (2, 1, 4, 3)):
        assert contains(w, q) == contains(reverse(w), reverse(q))
        assert contains(w, q) == contains(complement(w), complement(q))


def test_containment_monotone_under_subpattern_extension():
    patterns = list(perms_of(2)) + list(perms_of(3))
    for n in range(2, 7):
        for w in perms_of(n):
            for drop in range(n):
                sub = standardize(w[:drop] + w[drop + 1 :])
                for q in patterns:
                    if contains(sub, q):
                        assert contains(w, q)


def test_class_membership_examples():
    assert DescentType(3).member(parse_perm("24537816"))
    assert complement((1, 2, 3)) == (3, 2, 1)
    for n in range(0, 9):
        ident = tuple(range(1, n + 1))
        for k in range(1, 6):
            assert DescentType(k).member(ident) == (n <= k)
    for n in range(0, 9):
        for w in perms_of(n):
            alt = ALTERNATING.member(w)
            assert alt == REVERSE_ALTERNATING.member(complement(w))
            if n <= 8:
                assert alt == DescentType(2).member(w)


def test_descent_and_ascent_sets():
    w = parse_perm("24537816")
    assert sorted(descent_set(w)) == [3, 6]
    assert sorted(ascent_set(w)) == [1, 2, 4, 5, 7]
    assert DescentSet(frozenset({3, 6})).member(w)
    assert AscentSet(frozenset({1, 2, 4, 5, 7})).member(w)
    assert not DescentSet(frozenset({3})).member(w)


def test_parse_class_labels():
    for label in ("all", "alt", "ralt", "dk:3", "dset:3,6", "aset:1,2"):
        assert parse_class(label).label() == label
    with pytest.raises(ValueError):
        parse_class("nope")


def test_doubling_examples():
    assert doubling((3, 2, 1)).doubling_number == 2
    for k in range(1, 7):
        dec = tuple(range(k, 0, -1))
        assert doubling(dec).doubling_number == k - 1
    assert doubling((1, 2, 3)).doubling_set == frozenset({2})
    for n in range(1, 9):
        for w in perms_of(n):
            assert (doubling(w).doubling_number == 0) == ALTERNATING.member(w)


def test_shortest_container_small():
    for p in perms_of(3):
        w = shortest_alternating_container(p)
        t = doubling(p).doubling_number
        assert len(w) == 3 + t
        assert ALTERNATING.member(w)
        assert contains(w, p)
    # alternating input comes back unchanged
    for w in perms_of(4):
        if ALTERNATING.member(w):
            assert shortest_alternating_container(w) == w
    # no alternating permutation of length 4 contains 321
    assert not any(
        ALTERNATING.member(w) and contains(w, (3, 2, 1))
        for w in perms_of(4)
    )
    assert len(shortest_alternating_container((3, 2, 1))) == 5
