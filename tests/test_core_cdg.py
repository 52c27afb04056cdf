"""Commit dependency graph and cycle detection (§4.1.4)."""

from repro.core.cdg import CommitDependencyGraph
from repro.core.guards import GuardSet
from repro.core.guess import GuessId
from repro.core.history import SystemView

from .core_fakes import edge_count, find_any_cycle

A = GuessId("A", 0, 0)
B = GuessId("B", 0, 0)
C = GuessId("C", 0, 0)
D = GuessId("D", 0, 0)


def test_add_edge_and_queries():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    assert g.has_node(A) and g.has_node(B)
    assert g.successors(A) == {B}
    assert g.predecessors(B) == {A}
    assert edge_count(g) == 1


def test_add_precedence_adds_edges_from_guard():
    g = CommitDependencyGraph()
    g.add_precedence(C, [A, B])
    assert g.successors(A) == {C}
    assert g.successors(B) == {C}


def test_precedence_skips_self_edge():
    g = CommitDependencyGraph()
    g.add_precedence(A, [A, B])
    assert g.successors(A) == set()
    assert g.successors(B) == {A}


def test_no_cycle_in_dag():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    g.add_edge(B, C)
    g.add_edge(A, C)
    assert g.cycle_through(A) is None
    assert find_any_cycle(g) is None


def test_two_node_cycle_detected():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    g.add_edge(B, A)
    cycle = g.cycle_through(A)
    assert cycle is not None
    assert set(cycle) == {A, B}


def test_longer_cycle_detected_through_each_member():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    g.add_edge(B, C)
    g.add_edge(C, A)
    for node in (A, B, C):
        cycle = g.cycle_through(node)
        assert cycle is not None
        assert set(cycle) == {A, B, C}


def test_cycle_not_through_unrelated_node():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    g.add_edge(B, A)
    g.add_edge(C, D)
    assert g.cycle_through(C) is None
    assert g.cycle_through(D) is None


def test_self_loop_not_possible_via_precedence_but_detectable():
    g = CommitDependencyGraph()
    g.add_edge(A, A)
    assert g.cycle_through(A) == [A]


def test_remove_node_breaks_cycle():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    g.add_edge(B, A)
    g.remove_node(B)
    assert g.cycle_through(A) is None
    assert not g.has_node(B)
    assert g.successors(A) == set()


def test_remove_missing_node_is_noop():
    g = CommitDependencyGraph()
    g.remove_node(A)


def test_descendants():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    g.add_edge(B, C)
    g.add_edge(C, D)
    assert g.descendants(A) == {B, C, D}
    assert g.descendants(C) == {D}
    assert g.descendants(D) == set()


def test_descendants_with_cycle_terminate():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    g.add_edge(B, A)
    assert g.descendants(A) == {A, B}


def test_nodes_sorted():
    g = CommitDependencyGraph()
    g.add_node(C)
    g.add_node(A)
    g.add_node(B)
    assert g.nodes() == sorted([A, B, C])


def test_duplicate_edges_idempotent():
    g = CommitDependencyGraph()
    g.add_edge(A, B)
    g.add_edge(A, B)
    assert edge_count(g) == 1


# ------------------------------------------------------------ guard runs

X = [GuessId.make("X", 0, n) for n in range(8)]
Y = [GuessId.make("Y", 0, n) for n in range(4)]


class Events:
    """A tracer that keeps the ``cdg_edge`` events."""

    enabled = True

    def __init__(self):
        self.edges = []

    def event(self, kind, process, now, **attrs):
        self.edges.append((attrs["src"], attrs["dst"]))


def test_precedence_over_a_run_is_one_edge_per_member():
    g = CommitDependencyGraph()
    assert g.add_precedence(Y[0], GuardSet(X[1:6]))
    assert g.predecessors(Y[0]) == set(X[1:6])
    assert all(g.successors(x) == {Y[0]} for x in X[1:6])
    assert edge_count(g) == 5
    assert g.nodes() == X[1:6] + [Y[0]]
    assert not g.add_precedence(Y[0], GuardSet(X[2:4]))     # nothing new


def test_a_hole_in_a_run_is_no_node():
    g = CommitDependencyGraph()
    g.add_precedence(Y[0], GuardSet([X[0], X[1], X[3], X[4]]))
    assert not g.has_node(X[2])
    assert g.successors(X[2]) == set()
    assert g.edges() == [(x, Y[0]) for x in (X[0], X[1], X[3], X[4])]


def test_removing_a_member_splits_the_run():
    g = CommitDependencyGraph()
    g.add_precedence(Y[0], GuardSet(X[0:5]))
    g.add_precedence(X[6], GuardSet(X[0:5]))
    g.remove_node(X[2])
    assert g.nodes() == [X[0], X[1], X[3], X[4], X[6], Y[0]]
    assert g.predecessors(Y[0]) == g.predecessors(X[6]) == (
        {X[0], X[1], X[3], X[4]})
    g.remove_node(Y[0])
    assert g.successors(X[0]) == {X[6]}


def test_a_cycle_through_runs_is_found_from_each_member_on_it():
    g = CommitDependencyGraph()
    g.add_precedence(Y[2], GuardSet(X[0:4]))
    g.add_precedence(X[1], GuardSet([Y[2]]))
    assert g.cycle_through(X[1]) == [X[1], Y[2]]
    assert g.cycle_through(Y[2]) == [Y[2], X[1]]
    assert g.cycle_through(X[0]) is None


def test_the_dfs_takes_successors_in_sorted_order():
    g = CommitDependencyGraph()
    for y in reversed(Y):
        g.add_precedence(y, GuardSet([X[0]]))
    g.add_precedence(X[0], GuardSet(Y))
    assert g.cycle_through(X[0]) == [X[0], Y[0]]


def test_new_edges_are_traced_in_guard_order_and_only_once():
    tracer = Events()
    g = CommitDependencyGraph(tracer=tracer)
    g.add_precedence(X[7], GuardSet([Y[3], X[2], Y[0], X[1]]))
    g.add_precedence(X[7], GuardSet([X[0], X[1], X[2]]))
    assert tracer.edges == [(s.key(), X[7].key())
                            for s in (X[1], X[2], Y[0], Y[3], X[0])]


def test_a_streamed_chain_is_one_registration():
    """x_n preceded by x_0..x_{n-1}, n = 1..7: one run of nodes, one
    registration in the view, extended at the top each time."""
    view = SystemView()
    g = CommitDependencyGraph(view=view)
    for n in range(1, 8):
        g.add_precedence(X[n], GuardSet(X[:n]))
    assert edge_count(g) == 7 * 8 // 2
    assert [(lo, filed, holder) for _p, _i, lo, filed, holder
            in view.registrations()] == [(0, 7, g)]


def test_phase_0_drops_what_resolved_and_nothing_is_pruned_on_read():
    view = SystemView()
    g = CommitDependencyGraph(view=view)
    g.add_precedence(Y[0], GuardSet(X[0:5]))
    g.drop_resolved()
    view.note_commit(X[1])          # commits x_0 and x_1, tells nobody
    assert not g.news and g.nodes() == X[0:5] + [Y[0]]
    g.drop_resolved()
    assert g.nodes() == X[2:5] + [Y[0]]
    view.note_abort(X[3])           # aborts x_3 and x_4: the run is told
    assert g.news and g.predecessors(Y[0]) == set(X[2:5])
    g.drop_resolved()
    assert g.nodes() == [X[2], Y[0]]
    assert g.predecessors(Y[0]) == {X[2]}
    assert [(lo, filed) for peer, _i, lo, filed, _h in view.registrations()
            if peer.process == "X"] == [(2, 2)]


def test_a_node_added_resolved_leaves_in_phase_0():
    view = SystemView()
    g = CommitDependencyGraph(view=view)
    view.note_commit(X[1])
    g.drop_resolved()
    g.add_precedence(Y[0], GuardSet(X[0:4]))
    g.drop_resolved()
    assert g.nodes() == [X[2], X[3], Y[0]]
