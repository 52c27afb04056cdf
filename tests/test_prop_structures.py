"""Property-based tests on the core data structures."""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.cdg import CommitDependencyGraph
from repro.core.guards import GuardSet
from repro.core.guess import GuessId, IncarnationTable
from repro.core.history import GuessStatus, PeerView, SystemView
from repro.core.invariants import any_aborted
from repro.sim.events import EventQueue

from .core_fakes import edge_count, find_any_cycle, held as index_of
from .reference_cdg import CommitDependencyGraph as MemberGraph

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
    assert (find_any_cycle(cdg) is not None) == has_cycle_nx
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
        assert {(g, holders.index(h)) for g, h in index_of(view)} == held
        for g in domain:
            assert (peer.incarnations.implicitly_aborted(g)
                    == scan_implicitly_aborted(peer.incarnations, g))


run_ops = st.lists(st.tuples(
    st.sampled_from(["commit", "abort", "unknown", "start", "hold", "hold",
                     "release"]),
    st.integers(0, 3), st.integers(0, 6), st.integers(0, 3),
    st.integers(0, 2)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(run_ops)
def test_index_notifies_a_run_when_it_settles_and_only_then(ops):
    """Run holders == brute force over the members, in every state.

    A holder of ``x_{i,lo..top}`` is told exactly once: when the last member
    has committed, or as soon as one aborts.  Until then the run is filed
    under its highest member that has not committed.  The only updates left
    out are those no run can make (I2): aborting a committed guess.
    """
    view = SystemView()
    peer = view.peer("X")
    holders = [LoggingHolder() for _ in range(3)]
    domain = [GuessId("X", inc, idx) for inc in range(5) for idx in range(11)]
    runs = {}           # the model: (holder number, inc, top) -> lo

    def status(inc, index):
        return view.status(GuessId("X", inc, index))

    def rest(inc, lo, top):
        return [n for n in range(lo, top + 1)
                if status(inc, n) is not GuessStatus.COMMITTED]

    for kind, inc, lo, length, who in ops:
        top = lo + length
        guess = GuessId("X", inc, lo)
        for holder in holders:
            del holder.news[:]
        if kind in ("abort", "start"):
            probe = copy.deepcopy(peer)
            (probe.note_abort(guess) if kind == "abort"
             else probe.learn_start(inc, lo))
            if any(view.status(g) is GuessStatus.COMMITTED
                   and probe.status(g) is GuessStatus.ABORTED
                   for g in domain):
                continue
        if kind == "hold":
            if (who, inc, top) in runs or any(
                    w == who and i == inc and l <= top and lo <= t
                    for (w, i, t), l in runs.items()):
                continue        # the runs of one guard are disjoint
            peer.hold_run(inc, lo, top, holders[who])
            runs[(who, inc, top)] = lo
        elif kind == "release":
            peer.release_run(inc, runs.pop((who, inc, top), lo), top,
                             holders[who])
        else:
            {"commit": view.note_commit, "abort": view.note_abort,
             "unknown": view.note_unknown,
             "start": lambda g: view.learn_start("X", g.incarnation, g.index),
             }[kind](guess)
        expected = []
        for (n, i, t), l in list(runs.items()):
            left = rest(i, l, t)
            if not left or status(i, left[-1]) is GuessStatus.ABORTED:
                expected.append((GuessId("X", i, t), n))
                del runs[(n, i, t)]
        told = [(g, n) for n, holder in enumerate(holders)
                for g in holder.news]
        assert sorted(told) == sorted(expected)
        assert sorted((holders.index(h), i, filed)
                      for _p, i, _lo, filed, h in view.registrations()
                      ) == sorted((n, i, rest(i, l, t)[-1])
                                  for (n, i, t), l in runs.items())
        assert sorted((g, holders.index(h)) for g, h in index_of(view)
                      ) == sorted((GuessId("X", i, m), n)
                                  for (n, i, t), l in runs.items()
                                  for m in rest(i, l, t))
    # a holder that pruned its guard releases what is left of the run
    for (n, i, t), l in runs.items():
        left = rest(i, l, t)
        peer.release_run(i, left[0], left[-1], holders[n])
    assert list(view.registrations()) == []


guard_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["add", "discard", "commit", "abort", "start"]),
              guesses),
    st.tuples(st.sampled_from(["union", "difference", "new_guards"]),
              st.lists(guesses, max_size=8)),
    st.tuples(st.sampled_from(["copy", "frozen"]), st.none())), max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.lists(guesses, max_size=12), guard_ops)
def test_guard_runs_behave_as_the_set_of_their_members(initial, ops):
    """``GuardSet`` (index runs) against a plain ``set`` of guesses, holes
    included, with the view pruning both: runs by ``SystemView.prune``, the
    set by brute-force ``status``."""
    view = SystemView()
    guard, model = GuardSet(initial), set(initial)
    for kind, arg in ops:
        if kind == "add":
            guard.add(arg)
            model.add(arg)
        elif kind == "discard":
            guard.discard(arg)
            model.discard(arg)
        elif kind == "union":
            guard, model = guard.union(arg), model | set(arg)
        elif kind == "difference":
            guard, model = guard.difference(GuardSet(arg)), model - set(arg)
        elif kind == "new_guards":
            assert guard.new_guards(frozenset(arg)) == set(arg) - model
            assert len(guard.new_guards(GuardSet(arg).frozen())
                       ) == len(set(arg) - model)
        elif kind == "copy":
            guard = guard.copy()
        elif kind == "frozen":
            guard = guard.frozen().copy()
        else:
            {"commit": view.note_commit, "abort": view.note_abort,
             "start": lambda g: view.learn_start(
                 g.process, g.incarnation, g.index)}[kind](arg)
        committed = {g for g in model if view.is_committed(g)}
        assert view.prune(guard) == bool(committed)
        model -= committed
        assert view.all_committed(guard) == (not model)
        assert guard.members() == model and len(guard) == len(model)
        assert bool(guard) == bool(model)
        assert guard.sorted_members() == sorted(model)
        assert guard.keys() == frozenset(g.key() for g in model)
        assert all((g in guard) == (g in model)
                   for g in model | {GuessId("A", 0, 0), GuessId("C", 3, 8)})
        frozen, again = guard.frozen(), GuardSet(sorted(model)).frozen()
        assert frozen == again and hash(frozen) == hash(again)
        assert frozen == model and guard == frozenset(model)
        assert (guard != GuardSet(model | {GuessId("D", 0, 0)}))
        latest = {}
        for g in model:
            key = (g.process, g.incarnation)
            latest[key] = max(latest.get(key, g), g)
        assert guard.compressed() == set(latest.values())
        assert view.aborted_members(guard) == {
            g for g in model if view.is_aborted(g)}
        assert min(view.aborted_members(guard),
                   default=None) == any_aborted(view, model)


cdg_guesses = st.builds(
    GuessId,
    process=st.sampled_from(["A", "B"]),
    incarnation=st.integers(0, 2),
    index=st.integers(0, 7),
)
#: a guard: a few runs ``x_{i,lo..lo+length}``, so holes and overlaps occur
cdg_guards = st.lists(st.tuples(
    st.sampled_from(["A", "B"]), st.integers(0, 2), st.integers(0, 7),
    st.integers(0, 3)), max_size=3).map(lambda runs: [
        GuessId(p, i, n) for p, i, lo, length in runs
        for n in range(lo, min(lo + length, 7) + 1)])
cdg_ops = st.lists(st.one_of(
    st.tuples(st.just("precedence"), cdg_guesses, cdg_guards),
    st.tuples(st.sampled_from(["remove", "commit", "abort", "start"]),
              cdg_guesses, st.none()),
    st.tuples(st.just("sweep"), st.none(), st.none())), max_size=40)
CDG_DOMAIN = [GuessId(p, i, n) for p in "AB" for i in range(3)
              for n in range(8)]


def assert_same_graph(cdg, oracle):
    nodes = oracle.nodes()
    assert cdg.nodes() == nodes
    assert cdg.edges() == oracle.edges()
    assert edge_count(cdg) == oracle.edge_count()
    for node in nodes + [CDG_DOMAIN[0], CDG_DOMAIN[-1]]:
        assert cdg.has_node(node) == oracle.has_node(node)
        assert cdg.successors(node) == oracle.successors(node)
        assert cdg.predecessors(node) == oracle.predecessors(node)
        assert cdg.descendants(node) == oracle.descendants(node)
        assert cdg.cycle_through(node) == oracle.cycle_through(node)


@settings(max_examples=300, deadline=None)
@given(cdg_ops)
def test_cdg_over_runs_behaves_as_the_member_graph(ops):
    """The graph over guard runs against ``tests/reference_cdg.py``, one
    edge per member, both holders in one view.

    Nodes, edges, neighbours and the path ``cycle_through`` returns agree
    after every step, sweep phase 0 or not — nothing leaves on read — and
    after phase 0 the index covers exactly the unresolved nodes.  An update
    that takes a commit implication back (a start learned above a committed
    index) comes in a run from a handler of its own, after the sweep of the
    previous one: here too, the sweep comes first.
    """
    view, shadow = SystemView(), SystemView()
    cdg, oracle = CommitDependencyGraph(view=view), MemberGraph(view=view)

    def sweep():
        cdg.drop_resolved()
        for node in list(oracle.news):
            oracle.remove_node(node)
        assert {g for g, h in index_of(view) if h is cdg} == {
            g for g in cdg.nodes() if not view.status(g).resolved}

    for kind, guess, guard in ops + [("sweep", None, None)]:
        if kind == "precedence":
            cdg.add_precedence(guess, GuardSet(guard))
            oracle.add_precedence(guess, guard)
        elif kind == "remove":
            cdg.remove_node(guess)
            oracle.remove_node(guess)
        elif kind == "sweep":
            sweep()
        else:
            committed = [g for g in CDG_DOMAIN if shadow.is_committed(g)]
            for target in (shadow, view):
                {"commit": target.note_commit, "abort": target.note_abort,
                 "start": lambda g, v=target: v.learn_start(
                     g.process, g.incarnation, g.index)}[kind](guess)
                if target is shadow and not all(map(shadow.is_committed,
                                                    committed)):
                    sweep()
        assert_same_graph(cdg, oracle)


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
