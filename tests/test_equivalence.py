import itertools
import time

import pytest

from altperm import equivalence
from altperm.equivalence import (
    SWEEPS,
    check_conjecture,
    check_extend_inequality,
    check_ineq_12_21,
    classify,
    doubling_nonequivalence,
    extend1_hypothesis,
    extend2_hypothesis,
    trivial_symmetry_for,
)
from altperm.diagrams import BudgetExceeded, ad_configs, all_diagrams
from altperm.enumeration import AvoidanceQuery, count_avoiders
from altperm.perms import (
    ALL,
    ALTERNATING,
    REVERSE_ALTERNATING,
    AscentSet,
    DescentSet,
    DescentType,
    parse_perm,
    perms_of,
    reverse,
    reverse_complement,
)

S4 = list(itertools.permutations((1, 2, 3, 4)))


def test_classify_singleton():
    rep = classify([(1, 2, 3)], ALTERNATING, (1, 3, 5))
    assert len(rep.blocks) == 1
    assert rep.blocks[0].patterns == ((1, 2, 3),)


def test_classify_odd_s4_documented_classes():
    rep = classify(S4, ALTERNATING, (1, 3, 5, 7, 9))
    blk = rep.block_of(parse_perm("1234"))
    assert {parse_perm("1234"), parse_perm("2134"), parse_perm("3214")} <= set(blk.patterns)
    assert not blk.trivial
    blk2 = rep.block_of(parse_perm("2143"))
    assert {
        parse_perm("2143"), parse_perm("1243"), parse_perm("3421"), parse_perm("2341")
    } <= set(blk2.patterns)
    assert blk is not blk2
    # trivial blocks really are single reverse-orbits
    for blk in rep.blocks:
        if blk.trivial:
            pats = set(blk.patterns)
            assert pats == {blk.patterns[0], reverse(blk.patterns[0])}


def test_classify_uses_the_right_symmetry():
    # ralt and dk:2 force the same boundaries as alt, up to sign
    for cls in (ALTERNATING, REVERSE_ALTERNATING, DescentType(2)):
        assert trivial_symmetry_for(cls, (1, 3, 5)) is reverse
        assert trivial_symmetry_for(cls, (2, 4)) is reverse_complement
        assert trivial_symmetry_for(cls, (2, 3)) is None
    # dk:3 has descents at 3, 6, ..., n - 3 when 3 divides n
    assert trivial_symmetry_for(DescentType(3), (3, 6, 9)) is reverse_complement
    assert trivial_symmetry_for(DescentType(3), (3, 4)) is None
    # all forces no boundary, so both symmetries qualify
    assert trivial_symmetry_for(ALL, (3, 4)) is None
    S3 = list(perms_of(3))
    assert classify(S3, ALTERNATING, (3, 5, 7)).block_of((1, 3, 2)).trivial
    assert classify(S3, REVERSE_ALTERNATING, (3, 5, 7)).block_of((2, 1, 3)).trivial


def test_doubling_nonequivalence_examples():
    v = doubling_nonequivalence(parse_perm("321"), parse_perm("123"), "even")
    assert v.decided and v.witness_n == 4 and v.counts == (5, 2)
    assert not doubling_nonequivalence((2, 1), (2, 1), "even").decided
    # decreasing pattern vs everything else, k <= 5
    for k in range(2, 6):
        dec = tuple(range(k, 0, -1))
        for q in perms_of(k):
            if q == dec:
                continue
            v = doubling_nonequivalence(dec, q, "even")
            assert v.decided, (dec, q)
            assert v.counts[0] != v.counts[1]


def test_doubling_nonequivalence_odd_parity():
    # 4321 has container length 7; 1234 has 6: odd test separates at ceil level
    v = doubling_nonequivalence(parse_perm("4321"), parse_perm("1324"), "odd")
    # 1324 is alternating: t=0, container 4; 4321: container 7
    assert v.decided


def test_ineq_12_vs_21_descent_type_3():
    r = check_ineq_12_21((1, 2), 3, 9)
    assert r.holds
    ns = [row[0] for row in r.details]
    assert ns == list(range(1, 10))
    # short lengths: both sides count the whole class
    assert r.details[0][1] == r.details[0][2]


def test_ineq_complemented_form():
    # (t+2)(t+1)w vs (t+1)(t+2)w with w = (1, 2): 4312 vs 3412 over D^3
    lhs_pat = parse_perm("4312")
    rhs_pat = parse_perm("3412")
    cls = DescentType(3)
    for n in range(1, 9):
        lhs = count_avoiders(AvoidanceQuery(lhs_pat, cls, n)).count
        rhs = count_avoiders(AvoidanceQuery(rhs_pat, cls, n)).count
        assert lhs >= rhs, n


def test_descent_set_inequality_beyond_type_boundaries():
    # descent sets with no two consecutive entries in the window
    for n in (6, 7):
        for descents in ({2, 5}, {3}, set()):
            cls = DescentSet(frozenset(descents))
            a = count_avoiders(AvoidanceQuery(parse_perm("1234"), cls, n)).count
            b = count_avoiders(AvoidanceQuery(parse_perm("2134"), cls, n)).count
            assert a <= b, (n, descents)


def test_ascent_set_inequality():
    for n in (6, 7):
        for A in (frozenset({2, 5}), frozenset({3}),):
            cls = AscentSet(A)
            a = count_avoiders(AvoidanceQuery(parse_perm("1234"), cls, n)).count
            b = count_avoiders(AvoidanceQuery(parse_perm("2134"), cls, n)).count
            assert a >= b, (n, A)


def test_extend_hypotheses_and_inequalities():
    checked = 0
    for Y in all_diagrams(5):
        for ady in ad_configs(Y):
            for C in ((1,), (2, 1)):
                r = len(C)
                if extend1_hypothesis(ady, r):
                    assert check_extend_inequality(ady, C, which=1), (str(ady), C)
                    checked += 1
                if extend2_hypothesis(ady, r):
                    assert check_extend_inequality(ady, C, which=2), (str(ady), C)
                    checked += 1
    assert checked > 200


def test_conjecture_sesa_small():
    verdict = check_conjecture("sesa", k_max=3, rows_max=4)
    assert verdict.ok
    with pytest.raises(ValueError):
        check_conjecture("sesa", k_max=2)


def test_conjecture_sesa_stops_inside_a_count():
    # the sweep has no clock of its own: the overrun comes from the counter
    with pytest.raises(BudgetExceeded) as caught:
        check_conjecture("sesa", k_max=3, rows_max=2, deadline=time.perf_counter())
    assert str(caught.value) == "budget exceeded during the sesa sweep at k=3"
    assert isinstance(caught.value.__cause__, BudgetExceeded)


def test_conjecture_dk_pairs():
    assert check_conjecture("dk-2134", k_max=3, n_max=8).ok
    assert check_conjecture("dk-1243", k_max=3, n_max=7).ok


def test_conjecture_decreasing_small():
    assert check_conjecture("decreasing", k_max=3, n_max=7).ok


def planted_runs(monkeypatch, planted):
    """Make each run, alone (`sequence`) or among several (`sequences`),
    return 10 at every length for the pattern `base`, 5 for the others, and
    the planted count at a planted (pattern, n).  The planted counts need
    not respect the class's symmetry, since no pattern is counted."""

    def run(pattern, cls, lengths, cache=None, deadline=None):
        plain = 10 if pattern == planted["base"] else 5
        return [planted.get((pattern, n), plain) for n in lengths]

    def runs(patterns, cls, lengths, cache=None, deadline=None):
        return {p: run(p, cls, lengths) for p in patterns}

    monkeypatch.setattr(equivalence, "sequence", run)
    monkeypatch.setattr(equivalence, "sequences", runs)


def test_the_decreasing_sweep_reports_its_first_violation_in_n_then_q_order(monkeypatch):
    # the counts come pattern by pattern, but 123 breaks the claim at n = 6
    # and 312, a later pattern, at n = 4; so do 132 and 231 at n = 3
    planted = {"base": (3, 2, 1), ((1, 2, 3), 6): 11, ((3, 1, 2), 4): 12}
    planted_runs(monkeypatch, planted)
    verdict = check_conjecture("decreasing", k_max=3, n_max=7)
    assert verdict.counterexample == "|A_4((3, 1, 2))| = 12 > 10"
    planted.update({((2, 3, 1), 3): 14, ((1, 3, 2), 3): 13})
    verdict = check_conjecture("decreasing", k_max=3, n_max=7)
    assert verdict.counterexample == "|A_3((1, 3, 2))| = 13 > 10"


def test_a_dk_pair_sweep_reports_its_first_violation_by_length(monkeypatch):
    left, right = (2, 1, 3, 4), (4, 1, 2, 3)
    planted_runs(monkeypatch, {"base": None, (left, 5): 7, (right, 3): 8})
    verdict = check_conjecture("dk-2134", k_max=1, n_max=6)
    assert verdict.counterexample == f"|D^1_3({left})| = 5 != 8 = |D^1_3({right})|"


def test_unknown_conjecture():
    with pytest.raises(ValueError):
        check_conjecture("riemann")


@pytest.mark.parametrize("name", list(SWEEPS))
def test_each_sweep_starts_at_its_registered_block_size(name):
    _, first_k, size = SWEEPS[name]
    with pytest.raises(ValueError, match="^empty"):
        check_conjecture(name, k_max=first_k - 1, **{size: 1})
    assert check_conjecture(name, k_max=first_k, **{size: 1}).ok
