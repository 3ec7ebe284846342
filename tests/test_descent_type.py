
import pytest

from altperm.descent_type import (
    block_function,
    block_insert_321,
    block_remove_321,
    child,
    has_child_map,
    has_plateau_map,
    has_second_child,
    inject,
    repetitive_form,
    repetitive_insert,
    repetitive_strip,
    second_child,
)
from altperm.enumeration import generate
from altperm.perms import DescentType, contains, parse_perm, perms_of


def D(k, n):
    return list(generate(DescentType(k), n))


def avoiders(k, n, q):
    return [p for p in D(k, n) if not contains(p, q)]


def test_inject_worked_example():
    assert inject(4, parse_perm("35624718"), 3) == parse_perm("367258149")


def test_inject_largest_value_at_incomplete_row():
    for k in (2, 3):
        for n in range(1, 8):
            if n % k == 0:
                continue
            for p in D(k, n):
                assert inject(n + 1, p, k) == p + (n + 1,)


def test_inject_preserves_type_and_containment():
    for k in (2, 3):
        for n in range(1, 7):
            for p in D(k, n):
                for v in range(1, n + 2):
                    ch = inject(v, p, k)
                    assert DescentType(k).member(ch), (p, v)
                    assert contains(ch, p)


def test_inject_rejects_bad_input():
    with pytest.raises(ValueError):
        inject(1, (2, 1, 3), 3)  # 213 is not of descent type 3
    with pytest.raises(ValueError):
        inject(9, (1, 2, 3), 3)


def test_block_function():
    assert block_function(parse_perm("2134")) == 2
    for b in range(1, 6):
        assert block_function(tuple(range(1, b + 1))) == b
    assert block_function(parse_perm("1324")) == 1
    with pytest.raises(ValueError):
        block_function(parse_perm("2143"))


def test_child_worked_examples():
    assert child(parse_perm("23514"), parse_perm("2134"), 3) == parse_perm("346125")
    assert child(parse_perm("346125"), parse_perm("2134"), 3) == parse_perm("4572361")


def test_child_rejects_excluded_patterns():
    for q, k in (((1,), 3), ((2, 1), 3), ((1, 2), 2), ((1, 2, 3), 3)):
        assert not has_child_map(q, k)
        with pytest.raises(ValueError):
            child((1, 2, 4, 3), q, k)
    # identity longer than k is admissible
    assert has_child_map((1, 2, 3), 2)
    assert child((1, 3, 2), (1, 2, 3), 2)


def test_child_total_when_block_exceeds_row_length():
    # q ending in its maximum with a long tail block: k < B(q) always takes
    # the inject-1 branch
    q = (1, 2, 3, 4)
    for p in avoiders(2, 6, q):
        ch = child(p, q, 2)
        assert not contains(ch, q)


def test_repetitive_characterizations_agree():
    for n in range(1, 7):
        for q in perms_of(n):
            # repetitive: avoids 321, 132 and 231
            avoids = not any(contains(q, bad) for bad in ((3, 2, 1), (1, 3, 2), (2, 3, 1)))
            assert avoids == (repetitive_form(q) is not None)
    assert repetitive_form(parse_perm("2134")) == 2
    assert repetitive_form(parse_perm("3124")) == 3
    assert repetitive_form((1, 2, 3)) == 1
    assert repetitive_form((3, 2, 1)) is None


def test_block_bijection_figure():
    assert block_remove_321(parse_perm("345617892"), 4) == (parse_perm("345612"), (7, 8, 9))
    assert block_insert_321(parse_perm("345612"), 4) == parse_perm("345617892")
    with pytest.raises(ValueError):
        block_remove_321(parse_perm("346125"), 3)  # length 6 is not km+1


def test_block_bijection_realizes_sum_identity():
    for k, m in ((3, 2), (2, 2), (4, 2)):
        n = k * m + 1
        target = avoiders(k, n, (3, 2, 1))
        sources = []
        for i in range(k * (m - 1) + 2, k * m + 1):
            sources.extend(avoiders(k, i, (3, 2, 1)))
        assert len(target) == len(sources)
        images = set()
        for p in sources:
            q = block_insert_321(p, k)
            assert not contains(q, (3, 2, 1))
            removed, _run = block_remove_321(q, k)
            assert removed == p
            images.add(q)
        assert images == set(target)


def test_first_entry_is_max_for_max_first_patterns():
    # patterns starting with their maximum pin the final entry
    for q in (parse_perm("4123"), (3, 1, 2)):
        b = len(q)
        k = 3 if b <= 4 else b - 1
        if k < b - 1:
            continue
        for x in range(b - 1, k + 1):
            for m in (1, 2):
                n = k * m + x
                if n > 9:
                    continue
                for p in avoiders(k, n, q):
                    assert p[-1] == n, (q, p)


def test_adjacent_values_lemma():
    for q in (parse_perm("2134"),):
        t, b = 2, 4
        k = 3
        for x in range(b - 1, k + 1):
            for m in (1, 2):
                n = k * m + x
                if n > 9:
                    continue
                for p in avoiders(k, n, q):
                    pos = k * m + (x + t - b + 1)  # 1-based
                    assert p[pos - 1] == p[pos - 2] + 1, (q, p)


def test_plateau_bijection_round_trip():
    q = parse_perm("2134")
    src = avoiders(3, 5, q)
    assert len(src) == 9
    images = set()
    for p in src:
        s = repetitive_insert(q, p, 3)
        assert not contains(s, q)
        assert repetitive_strip(q, s, 3) == p
        images.add(s)
    assert images == set(avoiders(3, 6, q))
    q2 = parse_perm("3124")
    src2 = avoiders(3, 8, q2)
    assert len(src2) == 143
    imgs2 = {repetitive_insert(q2, p, 3) for p in src2}
    assert imgs2 == set(avoiders(3, 9, q2)) and len(imgs2) == 143


def test_repetitive_bijection_guards():
    assert not has_plateau_map((3, 2, 1), 3)
    with pytest.raises(ValueError):
        repetitive_insert((3, 2, 1), (1, 2, 3), 3)  # not repetitive
    assert not has_plateau_map(parse_perm("2134"), 2)
    with pytest.raises(ValueError):
        repetitive_insert(parse_perm("2134"), (1, 2, 4, 3), 2)  # k < b-1
    assert has_plateau_map(parse_perm("2134"), 3)
    with pytest.raises(ValueError):
        repetitive_insert(parse_perm("2134"), (1, 2, 3), 3)  # x = 0 out of range


def test_second_child_rules():
    for k in (2, 3):
        n = 2 * k
        admitted = [q for q in (*perms_of(3), *perms_of(4)) if has_second_child(q, k)]
        assert len(admitted) == 8
        for q in admitted:
            for p in avoiders(k, n, q):
                s = second_child(p, q, k)
                assert not contains(s, q)
    with pytest.raises(ValueError):
        second_child((1, 3, 2), (4, 3, 2, 1), 2)  # incomplete final row
    with pytest.raises(ValueError):
        second_child((1, 2), (3, 1, 2, 4), 2)  # no rule recorded
    with pytest.raises(ValueError):
        second_child((1, 2, 3, 4), (4, 3, 2, 1), 4)  # no rule at k = 4


def test_known_equality_points():
    # the row-boundary plateaus outside the repetitive family
    for k in (2, 3):
        n = 2 * k
        for q in ((1, 3, 2), (2, 3, 1)):
            assert len(avoiders(k, k, q)) == len(avoiders(k, k + 1, q))
    assert len(avoiders(2, 4, (3, 2, 1))) == len(avoiders(2, 5, (3, 2, 1)))
    assert len(avoiders(3, 6, (3, 2, 1))) < len(avoiders(3, 7, (3, 2, 1)))
