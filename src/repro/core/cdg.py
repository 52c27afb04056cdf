"""Commit dependency graph (§4.1.4, §4.2.6).

A directed graph over guesses: an edge ``g -> h`` means "g's guess event
precedes h's join" — i.e. ``h`` can only commit after ``g`` resolves.  Edges
come from two sources: a local join whose left thread terminated with a
non-empty guard, and received ``PRECEDENCE(h, Guard)`` control messages.

A *cycle* is a violation of causality — a time fault (§2).  Every guess on
the cycle must abort.

Representation
--------------
Every edge ``PRECEDENCE(h, Guard)`` adds ends at ``h``, and a guard is index
runs per (process, incarnation) (:mod:`repro.core.guards`), so the graph
keeps what it is given: the predecessors of ``h`` as runs, filed under their
(process, incarnation) — which is also the index ``successors(x)`` reads —
and the nodes as a :class:`GuardSet`.  Adding a precedence costs O(runs);
member edges are materialised only for the tracer and the queries that list
them.  The nodes are registered with the view's holder index once per run,
and leave the graph only by :meth:`remove_node` and in sweep phase 0
(:meth:`drop_resolved`) — never on read.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.guards import (GuardSet, RunKey, Runs, minus_runs, pairs,
                               union_runs)
from repro.core.guess import GuessId
from repro.core.history import SystemView


def _members(key: RunKey, runs: Runs) -> List[GuessId]:
    row = GuessId.row(key[0], key[1], runs[-1])[0]
    return [g for lo, hi in pairs(runs) for g in row[lo:hi + 1]]


class CommitDependencyGraph:
    """A graph over :class:`GuessId` kept as guard runs, with cycle
    extraction.

    ``tracer``/``process``/``clock`` are optional observability hooks: when
    a tracer is enabled, every new edge is recorded as a ``cdg_edge`` event
    stamped with the current virtual time.  With a ``view`` the graph is
    the registered holder of its nodes: ``news`` names the runs of them in
    which a member aborted or the last one committed.
    """

    def __init__(self, tracer=None, process: str = "",
                 clock: Optional[Callable[[], float]] = None,
                 view: Optional[SystemView] = None) -> None:
        #: every node, as index runs
        self._nodes = GuardSet()
        #: the predecessors of each node that has any, as index runs filed
        #: by (process, incarnation): key -> node -> runs
        self._pred: Dict[RunKey, Dict[GuessId, Runs]] = {}
        self._view = view
        self.news: Set[GuessId] = set()
        #: what can leave a resolved node with no holder told: a commit
        #: inside a run moves only the view's epoch (as seen at the last
        #: :meth:`drop_resolved`), and a node may be added resolved
        self._dropped_at = -1
        self._added = False
        self._tracer = tracer
        self._process = process
        self._clock = clock

    # ------------------------------------------------------------- building

    def _set_nodes(self, key: RunKey, runs: Runs) -> None:
        """Make ``runs`` the nodes of one (process, incarnation), moving the
        registrations of the runs that changed."""
        old = self._nodes.runs_of(key)
        if runs == old:
            return
        if self._view is not None:
            peer = self._view.peer(key[0])
            was, now = pairs(old), pairs(runs)
            if len(old) > 2 or len(runs) > 2:   # keep the runs both share
                was, now = set(was), set(now)
                was, now = was - now, now - was
            for lo, top in was:
                peer.release_run(key[1], lo, top, self)
            for lo, top in now:
                peer.hold_run(key[1], lo, top, self)
        self._nodes.set_runs(key, runs)

    def _add_nodes(self, key: RunKey, runs: Runs) -> None:
        self._set_nodes(key, union_runs(self._nodes.runs_of(key), runs))
        self._added = True

    def add_node(self, node: GuessId) -> None:
        """Ensure the guess is a node of the graph."""
        self._add_nodes((node.process, node.incarnation),
                        (node.index, node.index))

    def has_node(self, node: GuessId) -> bool:
        """True iff the guess is a node of the graph."""
        return node in self._nodes

    def add_edge(self, src: GuessId, dst: GuessId) -> None:
        """Record ``src`` precedes ``dst``."""
        self._link(dst, GuardSet((src,)))

    def add_precedence(self, guess: GuessId, guard: Iterable[GuessId]) -> bool:
        """Apply ``PRECEDENCE(guess, guard)``: each guard member precedes it.
        True if that is a new edge for some member."""
        preds = guard if isinstance(guard, GuardSet) else GuardSet(guard)
        if guess in preds:
            preds = preds.difference((guess,))
        return bool(preds) and self._link(guess, preds)

    def _link(self, dst: GuessId, preds: GuardSet) -> bool:
        """Every member of ``preds`` precedes ``dst``: one update per run.
        True if some edge is new."""
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            now = self._clock() if self._clock is not None else 0.0
            for src in self._preds_of(dst).new_guards(preds).sorted_members():
                tracer.event("cdg_edge", self._process, now,
                             name=f"{src.key()}->{dst.key()}",
                             src=src.key(), dst=dst.key())
        grew = False
        for key, runs in preds.runs():
            filed = self._pred.setdefault(key, {})
            old = filed.get(dst)
            if old is not None:
                runs = union_runs(old, runs)
                if runs == old:
                    continue
            filed[dst] = runs
            self._add_nodes(key, runs)
            grew = True
        self.add_node(dst)
        return grew

    def remove_node(self, node: GuessId) -> None:
        """Drop a resolved guess and its edges (§4.2.7)."""
        if node in self._nodes:
            self._remove((node.process, node.incarnation),
                         (node.index, node.index))

    def drop_resolved(self) -> None:
        """Sweep phase 0: drop every node that has resolved.

        A COMMIT or ABORT handler removes the guess it names; the guesses
        resolved by *implication* (a commit of a later index, an incarnation
        truncation) leave here, since a notification naming them may never
        arrive.
        """
        view = self._view
        if view is None or not (self.news or self._added
                                or self._dropped_at != view.epoch):
            return
        self.news.clear()
        self._added, self._dropped_at = False, view.epoch
        gone: List[Tuple[RunKey, Runs]] = []
        for key, runs in self._nodes.runs():
            peer = view.peer(key[0])
            dead = peer.incarnations.truncation(key[1])
            left = tuple(n for lo, hi in pairs(runs) if lo < dead
                         for n in peer.live(key[1], lo, int(min(hi, dead - 1))))
            if left != runs:
                gone.append((key, minus_runs(runs, left)))
        for key, runs in gone:
            self._remove(key, runs)

    def _remove(self, key: RunKey, gone: Runs) -> None:
        """Drop the nodes ``gone`` of one (process, incarnation) and every
        edge into or out of them."""
        nodes = _members(key, gone)
        self._set_nodes(key, minus_runs(self._nodes.runs_of(key), gone))
        for pred_key, filed in list(self._pred.items()):
            for node in nodes:
                filed.pop(node, None)
            if pred_key == key:
                for dst, runs in list(filed.items()):
                    if runs[-1] < gone[0] or gone[-1] < runs[0]:
                        continue
                    left = minus_runs(runs, gone)
                    if not left:
                        del filed[dst]
                    elif left != runs:
                        filed[dst] = left
            if not filed:
                del self._pred[pred_key]

    # -------------------------------------------------------------- queries

    def _successors(self, node: GuessId) -> List[GuessId]:
        filed = self._pred.get((node.process, node.incarnation))
        if not filed:
            return []
        n = node.index
        return [dst for dst, runs in filed.items()
                if runs[0] <= n <= runs[-1] and (len(runs) == 2 or any(
                    lo <= n <= hi for lo, hi in pairs(runs)))]

    def _preds_of(self, node: GuessId) -> GuardSet:
        preds = GuardSet()
        for key, filed in self._pred.items():
            if node in filed:
                preds.set_runs(key, filed[node])
        return preds

    def nodes(self) -> List[GuessId]:
        """All nodes, sorted."""
        return self._nodes.sorted_members()

    def successors(self, node: GuessId) -> Set[GuessId]:
        """Guesses this node directly precedes."""
        return set(self._successors(node))

    def predecessors(self, node: GuessId) -> Set[GuessId]:
        """Guesses directly preceding this node."""
        return set(self._preds_of(node))

    def descendants(self, node: GuessId) -> Set[GuessId]:
        """All guesses reachable from ``node`` (excluding itself unless cyclic)."""
        seen: Set[GuessId] = set()
        stack = self._successors(node)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._successors(cur))
        return seen

    def cycle_through(self, node: GuessId) -> Optional[List[GuessId]]:
        """A cycle containing ``node``, or ``None``.

        Returns the node list of one such cycle (a path node → … → node):
        successors are visited in sorted order, so the path is the same
        whatever order the edges came in.
        """
        if node not in self._nodes:
            return None
        succ = self._successors
        # DFS from node back to node.
        stack: List[tuple] = [(node, iter(sorted(succ(node))))]
        path: List[GuessId] = [node]
        on_path: Set[GuessId] = {node}
        visited: Set[GuessId] = set()
        while stack:
            cur, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt == node:
                    return list(path)
                if nxt in on_path or nxt in visited:
                    continue
                stack.append((nxt, iter(sorted(succ(nxt)))))
                path.append(nxt)
                on_path.add(nxt)
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
                visited.add(cur)
        return None

    def edges(self) -> List[Tuple[GuessId, GuessId]]:
        """All ``(src, dst)`` precedence edges, sorted — forensics surface."""
        return sorted((src, dst) for key, filed in self._pred.items()
                      for dst, runs in filed.items()
                      for src in _members(key, runs))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        edges = [f"{s.key()}->{d.key()}" for s, d in self.edges()]
        return f"CDG({edges})"
