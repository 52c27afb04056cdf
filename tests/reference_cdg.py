"""The member-edge commit dependency graph, preserved as a test reference.

This is :class:`repro.core.cdg.CommitDependencyGraph` as it was before the
graph was kept over guard runs: one adjacency set per node, one edge per
guard member, one holder registration per node, and sweep phase 0 written
as ``for node in list(cdg.news): cdg.remove_node(node)``.  The model test
in ``tests/test_prop_structures.py`` drives both graphs through the same
random precedences, removals and view updates and requires the same nodes,
edges, neighbours and cycle paths after every step — which is what licenses
the run form being the only one shipped.

Do not "optimize" this file — its plainness is what makes it a reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.guess import GuessId
from repro.core.history import SystemView


class CommitDependencyGraph:
    """Adjacency-set DAG over :class:`GuessId` with cycle extraction.

    ``tracer``/``process``/``clock`` are optional observability hooks: when
    a tracer is enabled, every new edge is recorded as a ``cdg_edge`` event
    stamped with the current virtual time.  With a ``view`` the graph is
    the registered holder of its nodes: ``news`` names the resolved ones.
    """

    def __init__(self, tracer=None, process: str = "",
                 clock: Optional[Callable[[], float]] = None,
                 view: Optional[SystemView] = None) -> None:
        self._succ: Dict[GuessId, Set[GuessId]] = {}
        self._pred: Dict[GuessId, Set[GuessId]] = {}
        self._view = view
        self.news: Set[GuessId] = set()
        self._tracer = tracer
        self._process = process
        self._clock = clock

    # ------------------------------------------------------------- building

    def _ensure(self, node: GuessId) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
            if self._view is not None:
                self._view.hold(node, self)

    def add_node(self, node: GuessId) -> None:
        """Ensure the guess is a node of the graph."""
        self._ensure(node)

    def has_node(self, node: GuessId) -> bool:
        """True iff the guess is a node of the graph."""
        return node in self._succ

    def add_edge(self, src: GuessId, dst: GuessId) -> None:
        """Record ``src`` precedes ``dst``."""
        self._ensure(src)
        self._ensure(dst)
        new = dst not in self._succ[src]
        self._succ[src].add(dst)
        self._pred[dst].add(src)
        if new and self._tracer is not None and self._tracer.enabled:
            now = self._clock() if self._clock is not None else 0.0
            self._tracer.event("cdg_edge", self._process, now,
                               name=f"{src.key()}->{dst.key()}",
                               src=src.key(), dst=dst.key())

    def add_precedence(self, guess: GuessId, guard: Iterable[GuessId]) -> None:
        """Apply ``PRECEDENCE(guess, guard)``: each guard member precedes it."""
        for g in guard:
            if g != guess:
                self.add_edge(g, guess)

    def remove_node(self, node: GuessId) -> None:
        """Drop a resolved guess and its edges (§4.2.7)."""
        if node not in self._succ:
            return
        if self._view is not None:
            self._view.release(node, self)
        for succ in self._succ.pop(node):
            self._pred[succ].discard(node)
        for pred in self._pred.pop(node):
            self._succ[pred].discard(node)

    # -------------------------------------------------------------- queries

    def nodes(self) -> List[GuessId]:
        """All nodes, sorted."""
        return sorted(self._succ)

    def successors(self, node: GuessId) -> Set[GuessId]:
        """Guesses this node directly precedes."""
        return set(self._succ.get(node, ()))

    def predecessors(self, node: GuessId) -> Set[GuessId]:
        """Guesses directly preceding this node."""
        return set(self._pred.get(node, ()))

    def descendants(self, node: GuessId) -> Set[GuessId]:
        """All guesses reachable from ``node`` (excluding itself unless cyclic)."""
        seen: Set[GuessId] = set()
        stack = list(self._succ.get(node, ()))
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self._succ.get(cur, ()))
        return seen

    def cycle_through(self, node: GuessId) -> Optional[List[GuessId]]:
        """A cycle containing ``node``, or ``None``.

        Returns the node list of one such cycle (a path node → … → node).
        """
        if node not in self._succ:
            return None
        # DFS from node back to node.
        stack: List[tuple] = [(node, iter(sorted(self._succ.get(node, ()))))]
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
                stack.append((nxt, iter(sorted(self._succ.get(nxt, ())))))
                path.append(nxt)
                on_path.add(nxt)
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
                visited.add(cur)
        return None

    def find_any_cycle(self) -> Optional[List[GuessId]]:
        """Some cycle in the graph, or ``None`` (used by invariant tests)."""
        for node in self.nodes():
            cyc = self.cycle_through(node)
            if cyc is not None:
                return cyc
        return None

    def edge_count(self) -> int:
        """Number of edges in the graph."""
        return sum(len(s) for s in self._succ.values())

    def edges(self) -> List[Tuple[GuessId, GuessId]]:
        """All ``(src, dst)`` precedence edges, sorted — forensics surface."""
        return [
            (s, d)
            for s in sorted(self._succ)
            for d in sorted(self._succ[s])
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        edges = [
            f"{s.key()}->{d.key()}"
            for s in sorted(self._succ)
            for d in sorted(self._succ[s])
        ]
        return f"CDG({edges})"
