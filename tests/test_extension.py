import random


from altperm.diagrams import (
    ADYoungDiagram,
    ad_configs,
    all_diagrams,
    parse_ad,
    parse_diagram,
    transversals,
    valid_transversals,
)
from altperm.extension import (
    delete_to_successor,
    direct_sum,
    dominant_region,
    is_dominant,
    nondominant_set,
    realizable_nondominant_sets,
    reinsert,
    successor,
    verify_embed2,
)
from altperm.verify import extension_suite


def test_direct_sum():
    assert direct_sum((2, 1), (1,)) == (2, 1, 3)
    assert direct_sum((1, 2), (2, 1)) == (1, 2, 4, 3)
    assert direct_sum((), (1, 2)) == (1, 2)


def test_dominance_single_cell_block():
    Y = parse_diagram("3,3,3")
    T = (3, 2, 1)
    for a in range(1, 4):
        for b in range(1, 4):
            expect = any(i > a and c > b for i, c in ((1, 3), (2, 2), (3, 1)))
            assert is_dominant(Y, T, (1,), a, b) == expect


def test_block_larger_than_diagram():
    Y = parse_diagram("2,2")
    ady = ADYoungDiagram(Y, frozenset(), frozenset())
    for T in transversals(Y):
        assert nondominant_set(Y, T, (1, 2, 3)) == frozenset(
            (i + 1, T[i]) for i in range(2)
        )
    assert verify_embed2(ady, (1, 2), (1, 2, 3))


def test_empty_block_makes_everything_dominant():
    Y = parse_diagram("3,2,1")
    for T in transversals(Y):
        assert nondominant_set(Y, T, ()) == frozenset()
        s = successor(ADYoungDiagram(Y, frozenset(), frozenset()), T, ())
        assert s.child.diagram == Y


def test_region_is_young_shape_and_complement_agrees():
    rng = random.Random(4)
    shapes = list(all_diagrams(6))
    for _ in range(150):
        Y = rng.choice(shapes)
        ts = list(transversals(Y))
        if not ts:
            continue
        T = rng.choice(ts)
        C = rng.choice(((), (1,), (1, 2), (2, 1)))
        region = dominant_region(Y, T, C)
        assert all(region[i] >= region[i + 1] for i in range(len(region) - 1))
        for a in range(1, Y.n + 1):
            for b in range(1, Y.rows[a - 1] + 1):
                assert (b <= region[a - 1]) == is_dominant(Y, T, C, a, b)
        nd = nondominant_set(Y, T, C)
        assert nd == frozenset(
            (i + 1, T[i]) for i in range(Y.n) if not is_dominant(Y, T, C, i + 1, T[i])
        )


def test_successor_extremes():
    Y = parse_diagram("3,3,3")
    ady = ADYoungDiagram(Y, frozenset(), frozenset())
    # all of T dominant: nothing deleted
    s = successor(ady, (3, 2, 1), ())
    assert s.child.diagram == Y and s.row_map == (1, 2, 3)
    # all of T non-dominant: empty successor
    s2 = successor(ady, (1, 2, 3), (3, 2, 1))
    # the identity transversal has no 321-block strictly southeast of anything
    assert s2.child.n == 0


def test_round_trip_delete_reinsert():
    for Y in all_diagrams(4):
        for ady in ad_configs(Y):
            for C in ((1,), (2, 1)):
                succs = realizable_nondominant_sets(ady, C)
                for T in valid_transversals(ady):
                    N = nondominant_set(Y, T, C)
                    s = succs[N]
                    down = delete_to_successor(s, T)
                    assert reinsert(s, down) == T


def test_embed2_examples():
    sq4 = ADYoungDiagram(parse_diagram("4,4,4,4"), frozenset({1, 3}), frozenset({2}))
    assert verify_embed2(sq4, (1, 2), (1,))
    for ady in (parse_ad("3,3,2;A=1;D=", ), parse_ad("4,4,3,1;A=;D=1")):
        for P in ((1, 2), (2, 1)):
            for C in ((1,), (1, 2), (2, 1)):
                assert verify_embed2(ady, P, C)


def test_extension_suite_small():
    for res in extension_suite(rows=4):
        assert res.ok, f"{res.name}: {res.detail}"
