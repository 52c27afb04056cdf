"""Guess identifiers and incarnation bookkeeping (§4.1.2, §4.1.5).

A guess ``x_{i,n}`` is identified by the owning process, an *incarnation
number* ``i`` and a *thread index* ``n``.  The incarnation number is
incremented every time the process aborts one of its own threads, and the
thread index is reset to the index of the aborted thread — so identifier
pairs never collide even though indices are reused across incarnations.

The :class:`IncarnationTable` records where each incarnation starts, which
lets any process infer *implicit aborts*: guess ``(i, n)`` is dead as soon
as some later incarnation ``i' > i`` is known to start at an index
``<= n`` (the paper's example: if incarnation 2 begins at index 3, receipt
of ``C_{2,3}`` is an implicit abort of ``x_{1,3}``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple


@dataclass(frozen=True, order=True)
class GuessId:
    """Identifier of one optimistic guess ``x_{incarnation, index}``.

    Instances are hash-cached (a guess sits in many guard sets, pools and
    views, so its hash is taken far more often than it is built) and the
    runtime creates them through :meth:`make`, which interns: one Python
    object per distinct identifier, so repeated tagging of the same guess
    allocates nothing.
    """

    process: str
    incarnation: int
    index: int

    _interned: ClassVar[Dict[Tuple[str, int, int], "GuessId"]] = {}
    #: (process, incarnation) -> (guesses by index, their keys by index):
    #: a run of guesses is a slice of the first list, not a loop
    _rows: ClassVar[Dict[Tuple[str, int],
                         Tuple[List["GuessId"], List[str]]]] = {}

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.process, self.incarnation, self.index))
        )
        object.__setattr__(
            self, "_key", f"{self.process}:i{self.incarnation}.n{self.index}"
        )

    @classmethod
    def make(cls, process: str, incarnation: int, index: int) -> "GuessId":
        """Interned constructor: the canonical instance for this identity."""
        ident = (process, incarnation, index)
        guess = cls._interned.get(ident)
        if guess is None:
            guess = cls(process, incarnation, index)
            cls._interned[ident] = guess
        return guess

    @classmethod
    def row(cls, process: str, incarnation: int,
            upto: int) -> Tuple[List["GuessId"], List[str]]:
        """Interned guesses ``x_{incarnation,0..upto}`` (at least) of one
        process and their keys, both indexed by thread index."""
        row = cls._rows.get((process, incarnation))
        if row is None or len(row[0]) <= upto:
            guesses, keys = row = cls._rows.setdefault(
                (process, incarnation), ([], []))
            for index in range(len(guesses), upto + 1):
                guesses.append(cls.make(process, incarnation, index))
                keys.append(guesses[-1].key())
        return row

    def key(self) -> str:
        """Stable string form used in trace tags and debug output."""
        return self._key  # type: ignore[attr-defined]

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self._key  # type: ignore[attr-defined]


def _cached_hash(self: GuessId) -> int:
    return self._hash  # type: ignore[attr-defined]


# @dataclass(frozen=True) installs a field-tuple __hash__ after the class
# body runs, so the cached variant must be attached afterwards.
GuessId.__hash__ = _cached_hash  # type: ignore[assignment]


class IncarnationTable:
    """Incarnation start indices for one remote (or local) process.

    ``starts[i]`` is the thread index at which incarnation ``i`` began.
    Incarnation 0 implicitly starts at index 0.
    """

    def __init__(self) -> None:
        self.starts: Dict[int, int] = {0: 0}
        #: truncation bound: ``_bound[i]`` is the lowest known start of any
        #: incarnation after ``i`` (non-decreasing in ``i``)
        self._bound: List[float] = []

    def learn_start(self, incarnation: int, index: int) -> bool:
        """Record that ``incarnation`` starts at ``index``; True if news.

        Conflicting information keeps the smaller start (the earliest point
        at which the incarnation is known to have begun is the truth; a
        larger reported start can only come from stale inference).
        """
        cur = self.starts.get(incarnation)
        if cur is not None and index >= cur:
            return False
        self.starts[incarnation] = index
        bound = self._bound
        bound.extend([math.inf] * (incarnation - len(bound)))
        for earlier in range(incarnation - 1, -1, -1):
            if bound[earlier] <= index:
                break
            bound[earlier] = index
        return True

    def truncation(self, incarnation: int) -> float:
        """Lowest index of ``incarnation`` known dead (``inf``: none is)."""
        bound = self._bound
        return bound[incarnation] if incarnation < len(bound) else math.inf

    def implicitly_aborted(self, guess: GuessId) -> bool:
        """True if a known later incarnation truncates this guess's index."""
        return guess.index >= self.truncation(guess.incarnation)

    def max_known_incarnation(self) -> int:
        return max(self.starts)

    def start_of(self, incarnation: int) -> Optional[int]:
        return self.starts.get(incarnation)
