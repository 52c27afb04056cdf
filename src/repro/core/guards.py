"""Commit guard sets (§4.1.2).

A guard set is the set of uncommitted guesses a computation currently
depends on.  The commit guard *predicate* is the conjunction of its members;
an empty set is vacuously true — the computation is committed.

Guard sets ride on every data message.  Their size is what experiment C4
measures, so :meth:`GuardSet.tag_size` models the per-message overhead
explicitly (one abstract unit per member).

Representation
--------------
The guesses of one incarnation of one process resolve in index order
(§4.1.2), and the guards a run produces are almost always one contiguous
index range per (process, incarnation).  So a guard is kept as *runs*:
``(process, incarnation) -> (lo0, hi0, lo1, hi1, ...)``, sorted, disjoint
and non-adjacent (holes are legal, merely rare).  ``len``, ``in``, ``add``,
copy, union, difference, equality and hashing work on the runs and cost
O(runs), not O(members); members are materialised only for the consumers
that need each one (trace keys, CDG edges, abort paths), by slicing the
interned rows of :meth:`GuessId.row`.  This is the internal form; what
``compress_guards`` puts on the wire is :meth:`compressed`.
"""

from __future__ import annotations

from itertools import chain
from typing import (AbstractSet, Any, Callable, Dict, FrozenSet, ItemsView,
                    Iterable, Iterator, List, Tuple)

from repro.core.guess import GuessId

RunKey = Tuple[str, int]            # (process, incarnation)
Runs = Tuple[int, ...]              # (lo0, hi0, lo1, hi1, ...)


def pairs(runs: Runs) -> Iterable[Tuple[int, ...]]:
    """The ``(lo, hi)`` of each run; one run — nearly every guard of every
    workload — costs no slicing."""
    return (runs,) if len(runs) == 2 else zip(runs[::2], runs[1::2])


def union_runs(a: Runs, b: Runs) -> Runs:
    """The indices in ``a`` or in ``b``."""
    if len(a) == len(b) == 2:
        if a[1] + 1 == b[0]:                        # b continues a
            return (a[0], b[1])
        if a[0] <= b[0] and b[1] <= a[1]:           # a holds b
            return a
    out: List[int] = []
    for lo, hi in sorted(chain(pairs(a), pairs(b))):
        if out and lo <= out[-1] + 1:
            if hi > out[-1]:
                out[-1] = hi
        else:
            out += (lo, hi)
    return tuple(out)


def minus_runs(a: Runs, b: Runs) -> Runs:
    """The indices in ``a`` and not in ``b``."""
    if len(a) == len(b) == 2 and b[0] <= a[0]:      # b cuts a prefix of a
        return a if b[1] < a[0] else (b[1] + 1, a[1]) if b[1] < a[1] else ()
    out: List[int] = []
    for lo, hi in pairs(a):
        for cut_lo, cut_hi in pairs(b):
            if cut_hi < lo:
                continue
            if cut_lo > hi:
                break
            if cut_lo > lo:
                out += (lo, cut_lo - 1)
            lo = cut_hi + 1
        if lo <= hi:
            out += (lo, hi)
    return tuple(out)


def _count(runs: Runs) -> int:
    if len(runs) == 2:
        return runs[1] - runs[0] + 1
    return sum(runs[1::2]) - sum(runs[::2]) + len(runs) // 2


class GuardSet:
    """A set of :class:`GuessId` kept as index runs, mutable until frozen."""

    __slots__ = ("_runs", "_len", "_frozen", "_derived")

    def __init__(self, guesses: Iterable[GuessId] = ()) -> None:
        self._runs: Dict[RunKey, Runs] = {}
        self._len = 0
        #: immutable (and hashable): the form messages carry
        self._frozen = False
        #: what is derived from the members, dropped when they change: of
        #: a mutable set its frozen twin, of a frozen one its keys, hash
        #: and compressed form by method name
        self._derived: Any = None
        if isinstance(guesses, GuardSet):
            self._runs, self._len = dict(guesses._runs), guesses._len
        else:
            for g in guesses:
                self.add(g)

    @classmethod
    def _of(cls, runs: Dict[RunKey, Runs], size: int,
            frozen: bool = False) -> "GuardSet":
        new = cls.__new__(cls)
        new._runs, new._len, new._frozen, new._derived = (
            runs, size, frozen, None)
        return new

    def _cached(self, name: str, build: Callable[["GuardSet"], Any]) -> Any:
        """``build(frozen twin)``, computed once per state of the set."""
        twin = self.frozen()
        derived = twin._derived
        if derived is None:
            derived = twin._derived = {}
        if name not in derived:
            derived[name] = build(twin)
        return derived[name]

    # ------------------------------------------------------------- set ops

    def __contains__(self, g: GuessId) -> bool:
        runs = self._runs.get((g.process, g.incarnation))
        if runs is None:
            return False
        n = g.index
        if len(runs) == 2:
            return runs[0] <= n <= runs[1]
        return any(lo <= n <= hi for lo, hi in pairs(runs))

    def __iter__(self) -> Iterator[GuessId]:
        """Materialise the members, run by run — deliberately *not* sorted
        across runs: no protocol decision depends on the order, and
        :meth:`sorted_members` serves trace recording and log output."""
        return iter(self._column(0))

    def _column(self, column: int, ordered: bool = False) -> list:
        """The members (column 0) or their keys (column 1), run by run."""
        out: list = []
        items = self._runs.items()
        for (process, incarnation), runs in sorted(items) if ordered else items:
            row = GuessId.row(process, incarnation, runs[-1])[column]
            for lo, hi in pairs(runs):
                out += row[lo:hi + 1]
        return out

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GuardSet):
            return self._runs == other._runs
        if isinstance(other, (set, frozenset)):
            return len(other) == self._len and all(g in self for g in other)
        return NotImplemented

    def __hash__(self) -> int:
        if not self._frozen:
            raise TypeError("unhashable: a GuardSet that is not frozen")
        return self._cached(
            "hash", lambda twin: hash(frozenset(twin._runs.items())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "{" + ", ".join(g.key() for g in self.sorted_members()) + "}"

    def runs(self) -> ItemsView[RunKey, Runs]:
        """The representation: ``(process, incarnation) -> index runs``."""
        return self._runs.items()

    def runs_of(self, key: RunKey) -> Runs:
        """The index runs of one (process, incarnation); ``()`` if none."""
        return self._runs.get(key, ())

    def set_runs(self, key: RunKey, runs: Runs) -> None:
        """Replace the index runs of one (process, incarnation)."""
        if self._frozen:
            raise TypeError("a frozen GuardSet is immutable")
        self._derived = None
        old = self._runs.get(key)
        self._len += _count(runs) - (_count(old) if old else 0)
        if runs:
            self._runs[key] = runs
        elif old:
            del self._runs[key]

    def add(self, g: GuessId) -> None:
        """Add a guess to the set."""
        key, n = (g.process, g.incarnation), g.index
        runs = self._runs.get(key, ())
        if runs and n == runs[-1] + 1 and not self._frozen:
            self._runs[key] = runs[:-1] + (n,)  # that process's next guess
            self._len += 1
            self._derived = None
        elif g not in self:
            self.set_runs(key, union_runs(runs, (n, n)))

    def discard(self, g: GuessId) -> None:
        """Remove a guess if present."""
        if g in self:
            key = (g.process, g.incarnation)
            self.set_runs(key, minus_runs(self._runs[key], (g.index, g.index)))

    def copy(self) -> "GuardSet":
        """An independent, mutable copy of this guard set."""
        return GuardSet._of(dict(self._runs), self._len)

    def update(self, other: "GuardSet") -> None:
        """Add every member of ``other``, in place."""
        for key, runs in other._runs.items():
            mine = self._runs.get(key)
            self.set_runs(key, runs if mine is None else union_runs(mine, runs))

    def difference_update(self, other: "GuardSet") -> None:
        """Remove every member of ``other``, in place."""
        for key, runs in other._runs.items():
            mine = self._runs.get(key)
            if mine is not None:
                self.set_runs(key, minus_runs(mine, runs))

    def union(self, other: Iterable[GuessId]) -> "GuardSet":
        """A new set with the given guesses added."""
        new = self.copy()
        new.update(GuardSet(other))
        return new

    def difference(self, other: Iterable[GuessId]) -> "GuardSet":
        """A new set with the given guesses removed."""
        return GuardSet(other).new_guards(self)

    def frozen(self) -> "GuardSet":
        """An immutable snapshot of the members (cached until a change)."""
        if self._frozen:
            return self
        if self._derived is None:
            self._derived = GuardSet._of(dict(self._runs), self._len, True)
        return self._derived

    def members(self) -> set[GuessId]:
        """A mutable copy of the member set."""
        return set(self)

    def sorted_members(self) -> List[GuessId]:
        """Members in sorted order, for determinism-sensitive consumers."""
        return self._column(0, ordered=True)

    # ------------------------------------------------------ protocol helpers

    def new_guards(self, incoming: AbstractSet[GuessId]) -> "GuardSet":
        """The paper's ``Newguards = Guard_m - Guard_x`` (§4.2.3)."""
        if not isinstance(incoming, GuardSet):
            incoming = GuardSet(incoming)
        mine, new, size = self._runs, {}, 0
        for key, runs in incoming._runs.items():
            left = minus_runs(runs, mine[key]) if key in mine else runs
            if left:
                new[key] = left
                size += _count(left)
        return GuardSet._of(new, size)

    def keys(self) -> FrozenSet[str]:
        """String tags for trace recording (cached until a change)."""
        return self._cached("keys", lambda twin: frozenset(twin._column(1)))

    def tag_size(self) -> int:
        """Abstract wire size of this guard tag (C4 overhead accounting)."""
        return self._len

    def compressed(self) -> "GuardSet":
        """One representative guess per (process, incarnation) — §4.1.2.

        Within one incarnation, a dependence on ``x_{i,n}`` subsumes every
        earlier index: if any of them aborts, incarnation truncation
        implicitly aborts ``x_{i,n}`` too, so holders of the representative
        roll back exactly when holders of the full set would.

        The subsumption does NOT extend across incarnations: a guard can
        transiently hold guesses from two incarnations of one process
        (the abort separating them not yet known here), and the newer
        incarnation's guess says nothing about the older one's fate —
        collapsing them to a single representative loses a real
        dependency (found by randomized search).  Hence one entry per
        incarnation, not one per process.

        The result is frozen and cached until a change: a thread sending a
        burst of messages between guard changes computes it once.
        """
        return self._cached("compressed", lambda twin: GuardSet._of(
            {key: runs[-1:] * 2 for key, runs in twin._runs.items()},
            len(twin._runs), True))
