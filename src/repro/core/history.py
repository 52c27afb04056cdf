"""Commit histories (§4.1.5) and the per-process view of the system.

Each process maintains, for every peer it has heard about, the resolution
status of that peer's guesses plus the peer's incarnation start table.
``SystemView`` is that collection; every status question the runtime asks
("is this message an orphan?", "is this guard set fully committed?") goes
through it so the implicit-abort and implicit-commit inference rules live in
exactly one place:

* ``COMMIT(x_{i,n})`` implies commit of every earlier index of the same
  incarnation (left threads join in order), and — via the incarnation start
  table — implicit *abort* of truncated guesses of earlier incarnations.
* ``ABORT(x_{i,n})`` starts incarnation ``i+1`` at index ``n``, implicitly
  aborting every ``x_{i,m}`` with ``m >= n``.

It is also the one place a status *changes*, so it keeps the holder index:
which threads, pooled envelopes, buffered emissions and CDG hold each
unresolved guess.  A holder is any object with a ``news`` set; the update
that resolves a held guess, explicitly or by implication, adds it to the
``news`` of exactly its holders and forgets the entry — nobody polls.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.core.guess import GuessId, IncarnationTable


class GuessStatus(enum.Enum):
    """Resolution state of a guess, from this process's point of view."""

    PENDING = "pending"      # in doubt, no news
    UNKNOWN = "unknown"      # a PRECEDENCE arrived: resolution in progress
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def resolved(self) -> bool:
        return self in (GuessStatus.COMMITTED, GuessStatus.ABORTED)


class PeerView:
    """History + incarnation table for one peer process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.incarnations = IncarnationTable()
        #: explicit resolutions: (incarnation, index) -> status
        self._explicit: Dict[tuple, GuessStatus] = {}
        #: highest committed index per incarnation (commit implication)
        self._committed_upto: Dict[int, int] = {}
        #: holder index, unresolved guesses only:
        #: incarnation -> index -> (guess, {id(holder): holder})
        self._held: Dict[int, Dict[int, Tuple[GuessId, Dict[int, Any]]]] = {}

    # ------------------------------------------------------------- updates

    def note_commit(self, guess: GuessId) -> None:
        """Record an explicit COMMIT of the guess."""
        inc, index = guess.incarnation, guess.index
        self._explicit[(inc, index)] = GuessStatus.COMMITTED
        upto = self._committed_upto.get(inc, -1)
        if index > upto:
            self._committed_upto[inc] = index
        # A commit of incarnation i proves incarnation i is live; anything
        # this peer told us about later incarnations still stands (commits
        # of dead guesses are impossible, so no conflict can arise).
        self._settle(inc, range(min(upto + 1, index), index + 1))

    def note_abort(self, guess: GuessId) -> None:
        """Record an explicit ABORT (starts the next incarnation)."""
        self._explicit[(guess.incarnation, guess.index)] = GuessStatus.ABORTED
        self._settle(guess.incarnation, (guess.index,))
        self.learn_start(guess.incarnation + 1, guess.index)

    def learn_start(self, incarnation: int, index: int) -> None:
        """Record that ``incarnation`` starts at ``index``.

        A lowered start truncates the tail of every earlier incarnation
        (implicit abort) and widens its own commit implication downwards.
        """
        if self.incarnations.learn_start(incarnation, index):
            for inc, held in self._held.items():
                if inc <= incarnation:
                    self._settle(inc, [n for n in held if n >= index])

    def _settle(self, incarnation: int, indices: Iterable[int]) -> None:
        """Notify the holders of those candidates that are now resolved."""
        held = self._held.get(incarnation)
        if not held:
            return
        for index in indices:
            entry = held.get(index)
            if entry is not None and self.status(entry[0]).resolved:
                del held[index]
                for holder in entry[1].values():
                    holder.news.add(entry[0])

    # -------------------------------------------------------- holder index

    def hold(self, guess: GuessId, holder: Any) -> None:
        """``holder`` now depends on ``guess``: told at once if resolved."""
        if self.status(guess).resolved:
            holder.news.add(guess)
        else:
            held = self._held.setdefault(guess.incarnation, {})
            held.setdefault(guess.index, (guess, {}))[1][id(holder)] = holder

    def release(self, guess: GuessId, holder: Any) -> None:
        """``holder`` no longer depends on ``guess``, read or unread."""
        holder.news.discard(guess)
        held = self._held.get(guess.incarnation, {})
        entry = held.get(guess.index)
        if entry is not None:
            entry[1].pop(id(holder), None)
            if not entry[1]:
                del held[guess.index]

    def note_unknown(self, guess: GuessId) -> None:
        """Record that a PRECEDENCE put the guess in doubt."""
        key = (guess.incarnation, guess.index)
        if self._explicit.get(key) not in (
            GuessStatus.COMMITTED,
            GuessStatus.ABORTED,
        ):
            self._explicit[key] = GuessStatus.UNKNOWN

    # -------------------------------------------------------------- queries

    def status(self, guess: GuessId) -> GuessStatus:
        """Resolution status, including implicit inference (§4.1.5)."""
        if self.incarnations.implicitly_aborted(guess):
            return GuessStatus.ABORTED
        explicit = self._explicit.get((guess.incarnation, guess.index))
        if explicit in (GuessStatus.COMMITTED, GuessStatus.ABORTED):
            return explicit
        upto = self._committed_upto.get(guess.incarnation)
        start = self.incarnations.start_of(guess.incarnation)
        if (
            upto is not None
            and guess.index <= upto
            and (start is None or guess.index >= start)
        ):
            return GuessStatus.COMMITTED
        return explicit if explicit is not None else GuessStatus.PENDING


class SystemView:
    """All peer views held by one process."""

    def __init__(self) -> None:
        self._peers: Dict[str, PeerView] = {}

    def peer(self, process: str) -> PeerView:
        """The (lazily created) view of one peer process."""
        view = self._peers.get(process)
        if view is None:
            view = PeerView(process)
            self._peers[process] = view
        return view

    def status(self, guess: GuessId) -> GuessStatus:
        """Resolution status via the owning peer's view."""
        return self.peer(guess.process).status(guess)

    def is_committed(self, guess: GuessId) -> bool:
        """True iff the guess is known committed."""
        return self.status(guess) is GuessStatus.COMMITTED

    def is_aborted(self, guess: GuessId) -> bool:
        """True iff the guess is known aborted (explicitly or implicitly)."""
        return self.status(guess) is GuessStatus.ABORTED

    def any_aborted(self, guesses: Iterable[GuessId]) -> Optional[GuessId]:
        """Lowest aborted guess among ``guesses``: the orphan test (§4.2.3)
        by brute force, which the pool's reading of the index is judged by
        (invariant I4)."""
        found: Optional[GuessId] = None
        for g in guesses:
            if (found is None or g < found) and self.is_aborted(g):
                found = g
        return found

    def note_commit(self, guess: GuessId) -> None:
        """Record an explicit COMMIT with the owning peer's view."""
        self.peer(guess.process).note_commit(guess)

    def note_abort(self, guess: GuessId) -> None:
        """Record an explicit ABORT with the owning peer's view."""
        self.peer(guess.process).note_abort(guess)

    def note_unknown(self, guess: GuessId) -> None:
        """Record an in-doubt (PRECEDENCE) marker with the peer's view."""
        self.peer(guess.process).note_unknown(guess)

    def learn_start(self, process: str, incarnation: int, index: int) -> None:
        """Record an incarnation start with the owning peer's view."""
        self.peer(process).learn_start(incarnation, index)

    def hold(self, guess: GuessId, holder: Any) -> None:
        """Register ``holder`` (an object with a ``news`` set) for ``guess``."""
        self.peer(guess.process).hold(guess, holder)

    def release(self, guess: GuessId, holder: Any) -> None:
        """Forget that ``holder`` depends on ``guess``."""
        self.peer(guess.process).release(guess, holder)

    def held(self) -> Iterator[Tuple[GuessId, Iterable[Any]]]:
        """Every unresolved guess somebody here holds, with its holders."""
        for view in self._peers.values():
            for held in view._held.values():
                for guess, holders in held.values():
                    yield guess, holders.values()
