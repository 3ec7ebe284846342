"""Small-scale runs of every named property suite (the acceptance module
runs them at their full stated ranges)."""

import inspect
from collections import Counter

from altperm import bijection, descent_type as dt, verify
from altperm.bijection import StepError
from altperm.verify import (
    bijection_suite,
    doubling_suite,
    eboard_suite,
    injections_suite,
    minimal_container_lengths,
    shape2_suite,
)
from altperm.perms import perms_of
import pytest


def _assert_all_pass(results):
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"


def test_shape2_small():
    _assert_all_pass(shape2_suite(rows=4))


def test_doubling_small():
    _assert_all_pass(doubling_suite(k_max=4))


def test_minimal_container_oracle_agrees_with_direct_search():
    # the counting oracle must agree with a direct per-pattern search
    import itertools
    from altperm.enumeration import generate
    from altperm.perms import ALTERNATING, contains

    oracle = minimal_container_lengths(4)
    for p in perms_of(4):
        direct = None
        for L in range(4, 8):
            if any(contains(w, p) for w in generate(ALTERNATING, L)):
                direct = L
                break
        assert direct == oracle[p]


def listing_container_lengths(k):
    """The listing oracle: mark the patterns of all k-element subsequences
    of every alternating permutation, length by length up to 2k-2; patterns
    never seen get 2k-1."""
    import itertools
    from altperm.enumeration import generate
    from altperm.perms import ALTERNATING, standardize

    found = {}
    for L in range(k, 2 * k - 1):
        for w in generate(ALTERNATING, L):
            for sub in itertools.combinations(w, k):
                found.setdefault(standardize(sub), L)
    return {p: found.get(p, 2 * k - 1) for p in perms_of(k)}


def test_counting_oracle_agrees_with_the_listing_oracle():
    for k in range(1, 6):
        assert minimal_container_lengths(k) == listing_container_lengths(k), k


def test_bijection_small():
    _assert_all_pass(bijection_suite(rows=4, semi_rows=4))


def _verdicts(results):
    return {r.name.split(",")[0]: r.ok for r in results}


def _identity(ady, T, steps=None, copies=None):
    return tuple(T)


def _refuse(ady, T, steps=None, copies=None):
    raise StepError("refused")


_real_psi = bijection.psi


def _skip_a_step(ady, T, copies=None):
    # moves up, as a walk's strictness check asks, but two steps at once
    # wherever there is a second one, and raises nowhere the real step does not
    U = _real_psi(ady, T, copies)
    if U is None:
        return None
    try:
        V = _real_psi(ady, U, copies)
    except StepError:
        return U
    return U if V is None else V


FULL = "full maps are mutually inverse bijections"
SINGLE = "single steps invert each other on separable transversals"
SEMI = "semialternating case via corner embedding"

# The walks and the single-step check read one table of steps per triple,
# so a wrong step is patched where both look it up.  A step that refuses
# then stops the walks too, alternating and corner-embedded; a step that
# skips ahead along the walk leaves the full maps as they were.
_LOOKUPS = {"psi": (bijection, verify)}
_ALSO_FAILING = {("psi", _refuse): {FULL, SEMI}}


# A wrong backward map fails the check that calls it and no other, bar the
# checks `_ALSO_FAILING` names.  `_refuse` stands for a map back that rejects
# its input, as a checked step does on a transversal that is not separable.
@pytest.mark.parametrize(
    "name, wrong, failing",
    [
        ("psi_to_fixpoint", _identity, FULL),
        ("psi_to_fixpoint", _refuse, FULL),
        ("psi", _skip_a_step, SINGLE),
        ("psi", _refuse, SINGLE),
        ("semialternating_psi", _identity, SEMI),
        ("semialternating_psi", _refuse, SEMI),
    ],
)
def test_bijection_suite_fails_a_wrong_map(monkeypatch, name, wrong, failing):
    for module in _LOOKUPS.get(name, (verify,)):
        monkeypatch.setattr(module, name, wrong)
    verdicts = _verdicts(bijection_suite(rows=4, semi_rows=4))
    failed = {check for check, ok in verdicts.items() if not ok}
    assert failed == {failing} | _ALSO_FAILING.get((name, wrong), set())


def test_bijection_suite_fires_each_lemma_check_as_often_as_pinned(monkeypatch):
    # every lemma family the steps assert, counted over the full sweep, so
    # that no check can silently stop firing
    monkeypatch.setattr(bijection, "CHECK_STATS", Counter())
    _assert_all_pass(bijection_suite(6, 5))
    assert bijection.CHECK_STATS == {
        "phi_board": 6536,
        "psi_board": 6536,
        "validity": 13072,
        "pin_preserved": 1672,
        "jtype2_geometry": 756,
        "jtype3_orderings": 65,
        "ftype3_orderings": 65,
    }


def test_bijection_suite_takes_each_step_once_per_triple(monkeypatch):
    seen = Counter()
    embedded = []  # the corner-embedded trips in progress

    def spy(step):
        def spied(ady, T, copies=None):
            if not embedded:
                seen[step.__name__, ady, tuple(T)] += 1
            return step(ady, T, copies)
        return spied

    def embedding(walk):
        def walked(ady, T, steps=None):
            embedded.append(ady)
            try:
                return walk(ady, T, steps)
            finally:
                embedded.pop()
        return walked

    for step in (bijection.phi, bijection.psi):
        for module in (bijection, verify):
            monkeypatch.setattr(module, step.__name__, spy(step))
    for walk in (verify.semialternating_phi, verify.semialternating_psi):
        monkeypatch.setattr(verify, walk.__name__, embedding(walk))
    _assert_all_pass(bijection_suite(rows=4, semi_rows=4))
    assert {name for name, _, _ in seen} == {"phi", "psi"}
    assert max(seen.values()) == 1


def test_eboard_small():
    _assert_all_pass(eboard_suite(rows=4))


def test_injections_small():
    _assert_all_pass(injections_suite(k_values=(2, 3), n_max=6))


def test_secondary_injections_stop_at_the_listed_lengths(monkeypatch):
    seen = []
    real = dt.second_child

    def spy(p, q, k):
        seen.append(len(p))
        return real(p, q, k)

    monkeypatch.setattr(dt, "second_child", spy)
    _assert_all_pass(injections_suite(k_values=(3,), n_max=2))
    assert seen and max(seen) <= 3


_real_child = dt.child


def _child_past_the_row(p, q, k):
    # At a complete row, appending the maximum keeps p and, when q does not
    # end in its maximum, avoids q; but it starts no new row, so the image
    # leaves descent type k.
    if len(p) % k == 0 and q[-1] != len(q):
        return p + (len(p) + 1,)
    return _real_child(p, q, k)


def _insert_a_copy(q, p, k):
    return q + tuple(range(len(q) + 1, len(p) + 2))


# A wrong child, plateau or secondary map fails its own check and no other.
@pytest.mark.parametrize(
    "name, wrong, failing",
    [
        ("child", _child_past_the_row, "children avoid the pattern and extend the parent"),
        ("repetitive_insert", _insert_a_copy, "repetitive plateaus are flat and realized bijectively"),
        ("second_child", _real_child, "secondary injections give distinct avoiding children"),
    ],
)
def test_injections_suite_fails_a_wrong_map(monkeypatch, name, wrong, failing):
    monkeypatch.setattr(dt, name, wrong)
    verdicts = _verdicts(injections_suite(k_values=(2, 3), n_max=5))
    assert verdicts.pop(failing) is False
    assert all(verdicts.values()), verdicts


def test_each_suite_reads_the_size_keyword_it_is_registered_with():
    for name, (suite, size) in verify.SUITES.items():
        assert size in inspect.signature(suite).parameters, name
