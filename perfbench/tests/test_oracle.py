"""The brute-force oracle against published values and against the
program, on sizes where both are quick."""
import itertools
import random

import pytest

import oracle
import workloads
from altperm import diagrams, enumeration
from altperm.perms import parse_class
from altperm.tables import TABLES, TABLE_CLASS, expected_count

EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385]


def test_containment_examples():
    assert oracle.contains((2, 1, 4, 5, 3, 6), (1, 2, 3))
    assert not oracle.contains((1, 2, 3, 4), (2, 1))
    assert oracle.contains((3, 1, 2), (3, 1, 2))
    assert oracle.pattern_of((5, 1, 4)) == (3, 1, 2)


def test_class_sizes():
    for n in range(1, 9):
        assert len(oracle.members("alt", n)) == EULER[n]
        assert len(oracle.members("ralt", n)) == EULER[n]
        assert oracle.members("dk:2", n) == oracle.members("alt", n)
    assert len(oracle.members("all", 6)) == 720
    # descent set exactly {} is the identity; ascent set {} the reversal
    assert oracle.members("dset:", 5) == ((1, 2, 3, 4, 5),)
    assert oracle.members("aset:", 5) == ((5, 4, 3, 2, 1),)
    assert oracle.members("dset:7", 5) == ()


@pytest.mark.parametrize("table", ["6even", "6odd", "4rep"])
def test_oracle_matches_the_published_tables(table):
    cls = TABLE_CLASS[table]
    for row in TABLES[table]:
        for n in (n for n in row.counts if n <= 8):
            want = expected_count(table, row, n)
            for p in row.patterns:
                assert oracle.count_avoiders(p, cls, n) == want, (table, p, n)


def test_oracle_agrees_with_the_program_on_random_queries():
    rng = random.Random(7)
    labels = ["all", "alt", "ralt", "dk:3", "dk:4", "dset:1,3", "aset:2", "aset:1,2,3"]
    for _ in range(60):
        k = rng.randint(2, 5)
        p = tuple(rng.sample(range(1, k + 1), k))
        label, n = rng.choice(labels), rng.randint(1, 7)
        got = enumeration.count_avoiders(
            enumeration.AvoidanceQuery(p, parse_class(label), n)).count
        assert oracle.count_avoiders(p, label, n) == got, (p, label, n)


def test_transversal_counts_agree_with_the_program():
    rng = random.Random(3)
    for n in (3, 4, 5):
        triples = list(workloads.ad_triples(n))
        for rows, A, D in rng.sample(triples, min(12, len(triples))):
            ady = diagrams.ADYoungDiagram(diagrams.YoungDiagram(tuple(rows)), A, D)
            for k in (2, 3):
                for p in itertools.permutations(range(1, k + 1)):
                    assert oracle.count_avoiding_transversals(rows, A, D, p) == \
                        diagrams.count_avoiding_transversals(ady, p), (rows, A, D, p)


def test_ad_triples_match_the_program_enumeration():
    for n in range(1, 6):
        ours = {(tuple(r), frozenset(A), frozenset(D)) for r, A, D in workloads.ad_triples(n)}
        theirs = {(ady.diagram.rows, ady.A, ady.D)
                  for Y in diagrams.all_diagrams(n, n) for ady in diagrams.ad_configs(Y)}
        assert ours == theirs


def test_fixture_records_are_real_counts():
    records = list(workloads.fixture_records())
    assert len(records) == 10800
    assert len({(p, label, n) for p, label, n, _ in records}) == len(records)
    for p, label, n, count in random.Random(1).sample(records, 40):
        got = enumeration.count_avoiders(enumeration.AvoidanceQuery(
            oracle.parse_perm(p), parse_class(label), n)).count
        assert count == got
