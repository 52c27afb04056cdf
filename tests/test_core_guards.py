"""Commit guard sets (§4.1.2)."""

from repro.core.guards import GuardSet
from repro.core.guess import GuessId

X0 = GuessId("X", 0, 0)
X1 = GuessId("X", 0, 1)
Y0 = GuessId("Y", 0, 0)


def test_empty_guard_is_falsey_and_vacuously_committed():
    g = GuardSet()
    assert not g
    assert len(g) == 0


def test_add_discard_contains():
    g = GuardSet()
    g.add(X0)
    assert X0 in g
    g.discard(X0)
    assert X0 not in g
    g.discard(X0)  # idempotent


def test_copy_is_independent():
    g = GuardSet([X0])
    h = g.copy()
    h.add(Y0)
    assert Y0 not in g
    assert Y0 in h


def test_union_difference():
    g = GuardSet([X0])
    u = g.union([Y0])
    assert set(u.members()) == {X0, Y0}
    d = u.difference([X0])
    assert set(d.members()) == {Y0}


def test_new_guards_is_set_difference():
    g = GuardSet([X0])
    assert g.new_guards({X0, Y0}) == {Y0}
    assert g.new_guards({X0}) == set()


def test_iteration_and_sorted_members():
    g = GuardSet([Y0, X1, X0])
    # __iter__ is unordered (set order) for speed; sorted_members() is the
    # deterministic view for consumers that need a stable order.
    assert set(g) == {X0, X1, Y0}
    assert g.sorted_members() == [X0, X1, Y0]


def test_keys_are_string_tags():
    g = GuardSet([X0, Y0])
    assert g.keys() == frozenset({"X:i0.n0", "Y:i0.n0"})


def test_tag_size_counts_members():
    assert GuardSet().tag_size() == 0
    assert GuardSet([X0, X1, Y0]).tag_size() == 3


def guesses_of(guard, process):
    """The members of ``guard`` owned by one process."""
    return {g for g in guard if g.process == process}


def test_guesses_of_process():
    g = GuardSet([X0, X1, Y0])
    assert guesses_of(g, "X") == {X0, X1}
    assert guesses_of(g, "Z") == set()


def test_equality_with_sets():
    assert GuardSet([X0]) == {X0}
    assert GuardSet([X0]) == GuardSet([X0])
    assert GuardSet([X0]) != GuardSet([Y0])


def test_frozen_snapshot_does_not_track_mutation():
    g = GuardSet([X0])
    snap = g.frozen()
    g.add(Y0)
    assert snap == frozenset({X0})
