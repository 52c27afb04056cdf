"""Property-based tests on the core data structures."""

from hypothesis import given, settings, strategies as st

from repro.core.cdg import CommitDependencyGraph
from repro.core.guards import GuardSet
from repro.core.guess import GuessId, IncarnationTable
from repro.core.history import GuessStatus, PeerView, SystemView
from repro.sim.events import EventQueue

guesses = st.builds(
    GuessId,
    process=st.sampled_from(["A", "B", "C"]),
    incarnation=st.integers(0, 3),
    index=st.integers(0, 8),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(guesses, max_size=12), st.lists(guesses, max_size=12))
def test_new_guards_is_exact_set_difference(mine, incoming):
    g = GuardSet(mine)
    assert g.new_guards(set(incoming)) == set(incoming) - set(mine)


@settings(max_examples=100, deadline=None)
@given(st.lists(guesses, max_size=12))
def test_guard_set_roundtrip_and_size(members):
    g = GuardSet(members)
    assert g.members() == set(members)
    assert g.tag_size() == len(set(members))
    assert set(g) == set(members)
    assert g.sorted_members() == sorted(set(members))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(guesses, guesses), max_size=20))
def test_cdg_cycle_detection_matches_networkx(edges):
    import networkx as nx

    cdg = CommitDependencyGraph()
    nxg = nx.DiGraph()
    for src, dst in edges:
        cdg.add_edge(src, dst)
        nxg.add_edge(src, dst)
    has_cycle_nx = not nx.is_directed_acyclic_graph(nxg)
    assert (cdg.find_any_cycle() is not None) == has_cycle_nx
    # per-node agreement
    for node in cdg.nodes():
        in_cycle_nx = any(
            node in c for c in nx.simple_cycles(nxg)
        )
        assert (cdg.cycle_through(node) is not None) == in_cycle_nx


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(guesses, guesses), max_size=20), guesses)
def test_cdg_descendants_is_reachability(edges, start):
    import networkx as nx

    cdg = CommitDependencyGraph()
    nxg = nx.DiGraph()
    for src, dst in edges:
        cdg.add_edge(src, dst)
        nxg.add_edge(src, dst)
    if not cdg.has_node(start):
        assert cdg.descendants(start) == set()
        return
    expected = set()
    for succ in nxg.successors(start):
        expected.add(succ)
        expected |= nx.descendants(nxg, succ)
    assert cdg.descendants(start) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 10)), max_size=8))
def test_incarnation_truncation_is_monotone(aborts):
    """Once implicitly aborted, learning more never resurrects a guess."""
    table = IncarnationTable()
    probe = GuessId("X", 0, 5)
    dead = False
    for inc, idx in aborts:
        table.learn_start(inc, idx)
        now_dead = table.implicitly_aborted(probe)
        if dead:
            assert now_dead
        dead = now_dead


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["commit", "abort"]),
                          st.integers(0, 6)), max_size=10))
def test_history_aborts_win_over_pending_never_flip_commits(events):
    """Explicit resolutions are stable under later unrelated updates."""
    view = PeerView("X")
    resolved = {}
    for kind, idx in events:
        g = GuessId("X", 0, idx)
        if idx in resolved:
            continue  # a real run never re-resolves the same guess
        if kind == "commit":
            view.note_commit(g)
        else:
            view.note_abort(g)
        resolved[idx] = kind
    for idx, kind in resolved.items():
        status = view.status(GuessId("X", 0, idx))
        if kind == "abort":
            assert status is GuessStatus.ABORTED
        else:
            # commit may be shadowed only by a *later-learned* abort of an
            # earlier index (incarnation truncation) — which a correct run
            # never produces; absent that, it stays committed.
            if not view.incarnations.implicitly_aborted(GuessId("X", 0, idx)):
                assert status is GuessStatus.COMMITTED


def scan_implicitly_aborted(table, guess):
    """The pre-index ``IncarnationTable.implicitly_aborted``: the oracle."""
    return any(inc > guess.incarnation and start <= guess.index
               for inc, start in table.starts.items())


class NewsLog(list):
    """A ``news`` that keeps duplicates, so a double notification shows."""

    add = list.append

    def discard(self, guess):
        self[:] = [g for g in self if g != guess]


class LoggingHolder:
    def __init__(self):
        self.news = NewsLog()


index_ops = st.lists(st.tuples(
    st.sampled_from(["commit", "abort", "unknown", "start", "hold", "hold",
                     "release"]),
    st.integers(0, 3), st.integers(0, 6), st.integers(0, 2)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(index_ops)
def test_index_notifies_the_held_guesses_whose_status_flipped_once(ops):
    """Notification == brute-force polling, over any interleaving."""
    view = SystemView()
    peer = view.peer("X")
    holders = [LoggingHolder() for _ in range(3)]
    domain = [GuessId("X", inc, idx) for inc in range(5) for idx in range(8)]
    held = set()        # the model: (guess, holder number), unresolved only
    for kind, inc, idx, who in ops:
        guess = GuessId("X", inc, idx)
        for holder in holders:
            del holder.news[:]
        resolved_before = {g for g in domain if view.status(g).resolved}
        expected = []
        if kind == "hold":
            view.hold(guess, holders[who])
            if guess in resolved_before:
                expected = [(guess, who)]
            else:
                held.add((guess, who))
        elif kind == "release":
            view.release(guess, holders[who])
            held.discard((guess, who))
        else:
            {"commit": view.note_commit, "abort": view.note_abort,
             "unknown": view.note_unknown,
             "start": lambda g: view.learn_start("X", g.incarnation, g.index),
             }[kind](guess)
            expected = [(g, n) for g, n in held
                        if view.status(g).resolved]
            held.difference_update(expected)
        told = [(g, n) for n, holder in enumerate(holders)
                for g in holder.news]
        assert sorted(told) == sorted(expected)
        assert {(g, n) for g, hs in view.held()
                for n, holder in enumerate(holders)
                if any(h is holder for h in hs)} == held
        for g in domain:
            assert (peer.incarnations.implicitly_aborted(g)
                    == scan_implicitly_aborted(peer.incarnations, g))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                          st.integers(-1, 1)), max_size=30))
def test_event_queue_pops_sorted(entries):
    q = EventQueue()
    for t, prio in entries:
        q.push(t, lambda: None, priority=prio)
    popped = []
    while True:
        ev = q.pop()
        if ev is None:
            break
        popped.append((ev.time, ev.priority, ev.seq))
    assert popped == sorted(popped)
