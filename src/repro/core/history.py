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
which threads, pooled envelopes, buffered emissions and CDG hold which
unresolved guesses.  A holder is any object with a ``news`` set, and it
registers a whole *run* ``x_{i,lo..top}`` of its guard at once, under the
top.  The update that commits the run's last member, or aborts any member,
adds ``x_{i,top}`` to the ``news`` of exactly the run's holders and forgets
the registration — nobody polls, and a COMMIT that only advances the
watermark through a run visits nobody: the committed prefix drops out of a
guard when it is next read (:meth:`SystemView.prune`).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.core.guards import GuardSet, minus_runs, pairs, union_runs
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
        #: holder index.  A holder registers a run ``x_{i,lo..top}`` once;
        #: it is filed under ``live(i, lo, top)[-1]``, the highest member
        #: not yet committed (``top`` itself until a known start lets a
        #: commit skip members below it):
        #: incarnation -> that index -> {id(holder): (holder, lo, top)}
        self._held: Dict[int, Dict[int, Dict[int, Tuple[Any, int, int]]]] = {}

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

    def note_abort(self, guess: GuessId) -> bool:
        """Record an explicit ABORT (starts the next incarnation); True
        as for :meth:`learn_start`."""
        self._explicit[(guess.incarnation, guess.index)] = GuessStatus.ABORTED
        self._settle(guess.incarnation, (guess.index,))
        return self.learn_start(guess.incarnation + 1, guess.index)

    def learn_start(self, incarnation: int, index: int) -> bool:
        """Record that ``incarnation`` starts at ``index``.

        A lowered start truncates the tail of every earlier incarnation
        (implicit abort) and widens its own commit implication downwards:
        True if that may have committed a guess.
        """
        if not self.incarnations.learn_start(incarnation, index):
            return False
        for inc, held in self._held.items():
            if inc <= incarnation:
                self._settle(inc, [n for n in held if n >= index])
        return incarnation in self._committed_upto

    def _settle(self, incarnation: int, indices: Iterable[int]) -> None:
        """Re-file the runs filed under those candidates that are now
        resolved: their holders hear of it unless a member is left."""
        held = self._held.get(incarnation)
        if not held:
            return
        dead = self.incarnations.truncation(incarnation)
        for index in indices:
            if index in held and (index >= dead or not self.live(
                    incarnation, index, index)):
                for holder, lo, top in held.pop(index).values():
                    self.hold_run(incarnation, lo, top, holder)

    # -------------------------------------------------------- holder index

    def live(self, incarnation: int, lo: int, hi: int) -> Tuple[int, ...]:
        """The members of ``x_{incarnation,lo..hi}`` that have not
        committed, as index runs ``(lo0, hi0, ...)``; dead ones count."""
        upto = self._committed_upto.get(incarnation)
        if upto is None or upto < lo:
            return (lo, hi)
        dead = self.incarnations.truncation(incarnation)
        if hi >= dead:      # an aborted member never counts as committed
            below = self.live(incarnation, lo, int(dead) - 1) if lo < dead \
                else ()
            return union_runs(below, (max(lo, int(dead)), hi))
        start = self.incarnations.starts.get(incarnation)
        if start is None or start <= lo:    # the implication covers lo..upto
            return (upto + 1, hi) if upto < hi else ()
        # The run reaches below a known (possibly stale-high) start, where
        # only an explicit COMMIT counts: member by member on that part.
        cut, above = min(hi, start - 1), max(start, upto + 1)
        below = minus_runs((lo, cut), tuple(
            n for n in range(lo, cut + 1)
            if self._explicit.get((incarnation, n)) is GuessStatus.COMMITTED
            for _both_ends in (0, 1)))
        return union_runs(below, (above, hi)) if above <= hi else below

    def hold_run(self, incarnation: int, lo: int, top: int,
                 holder: Any) -> None:
        """``holder`` now depends on ``x_{incarnation,lo..top}``.

        It is told — the guess ``x_{incarnation,top}`` lands in its
        ``news`` — once: when the last member has committed, or as soon as
        any member aborts.  At once, if that is already so.
        """
        live = () if top >= self.incarnations.truncation(incarnation) \
            else self.live(incarnation, lo, top)
        if not live:
            holder.news.add(GuessId.make(self.process, incarnation, top))
            return
        held = self._held.get(incarnation)
        if held is None:
            held = self._held[incarnation] = {}
        if live[-1] not in held:
            held[live[-1]] = {}
        held[live[-1]][id(holder)] = (holder, lo, top)

    def release_run(self, incarnation: int, lo: int, top: int,
                    holder: Any) -> None:
        """``holder`` no longer depends on ``x_{incarnation,lo..top}``, the
        run as registered or as pruned since; news of it read or unread."""
        if holder.news:
            holder.news.discard(GuessId.make(self.process, incarnation, top))
        held = self._held.get(incarnation)
        live = self.live(incarnation, lo, top)
        if held and live and id(holder) in held.get(live[-1], ()):
            del held[live[-1]][id(holder)]
            if not held[live[-1]]:
                del held[live[-1]]

    def unresolved(self, incarnation: int, lo: int, hi: int) -> List[GuessId]:
        """The members of ``x_{incarnation,lo..hi}`` of unknown fate."""
        hi = int(min(hi, self.incarnations.truncation(incarnation) - 1))
        runs = self.live(incarnation, lo, hi) if lo <= hi else ()
        row = GuessId.row(self.process, incarnation, hi)[0]
        return [g for a, b in pairs(runs) for g in row[a:b + 1]]

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
        #: bumped by every update that can commit a guess: a guard pruned
        #: at this epoch has nothing to prune until it moves
        self.epoch = 0

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

    def note_commit(self, guess: GuessId) -> None:
        """Record an explicit COMMIT with the owning peer's view."""
        self.epoch += 1
        self.peer(guess.process).note_commit(guess)

    def note_abort(self, guess: GuessId) -> None:
        """Record an explicit ABORT with the owning peer's view."""
        self.epoch += self.peer(guess.process).note_abort(guess)

    def note_unknown(self, guess: GuessId) -> None:
        """Record an in-doubt (PRECEDENCE) marker with the peer's view."""
        self.peer(guess.process).note_unknown(guess)

    def learn_start(self, process: str, incarnation: int, index: int) -> None:
        """Record an incarnation start with the owning peer's view."""
        self.epoch += self.peer(process).learn_start(incarnation, index)

    # ------------------------------------------------------- holder index

    def hold(self, guess: GuessId, holder: Any) -> None:
        """Register ``holder`` (it has a ``news`` set) for the run ``guess``."""
        self.peer(guess.process).hold_run(
            guess.incarnation, guess.index, guess.index, holder)

    def release(self, guess: GuessId, holder: Any) -> None:
        """Forget that ``holder`` depends on ``guess``, read or unread."""
        self.peer(guess.process).release_run(
            guess.incarnation, guess.index, guess.index, holder)

    def hold_all(self, guard: GuardSet, holder: Any) -> None:
        """Register ``holder`` once per run of ``guard``."""
        for (process, incarnation), runs in guard.runs():
            hold_run = self.peer(process).hold_run
            for lo, top in pairs(runs):
                hold_run(incarnation, lo, top, holder)

    def release_all(self, guard: GuardSet, holder: Any) -> None:
        """Undo :meth:`hold_all`: before ``guard`` changes, or for good."""
        for (process, incarnation), runs in guard.runs():
            release_run = self.peer(process).release_run
            for lo, top in pairs(runs):
                release_run(incarnation, lo, top, holder)

    def registrations(self) -> Iterator[Tuple[PeerView, int, int, int, Any]]:
        """Every run somebody here holds with a member unresolved, as
        ``(peer, incarnation, lo, index filed under, holder)``; the members
        above that index have committed."""
        for peer in self._peers.values():
            for incarnation, held in peer._held.items():
                for index, entry in held.items():
                    for holder, lo, _top in entry.values():
                        yield peer, incarnation, lo, index, holder

    # -------------------------------------------------- run-level queries

    def prune(self, guard: GuardSet) -> bool:
        """Drop the committed members of ``guard`` in place; True if any."""
        pruned = False
        for key, runs in list(guard.runs()):
            live = self.peer(key[0]).live
            left = live(key[1], *runs) if len(runs) == 2 else tuple(
                n for lo, hi in pairs(runs) for n in live(key[1], lo, hi))
            if left != runs:
                guard.set_runs(key, left)
                pruned = True
        return pruned

    def all_committed(self, guard: GuardSet) -> bool:
        """True iff no member of ``guard`` is left to wait for."""
        return not any(
            self.peer(process).live(incarnation, lo, hi)
            for (process, incarnation), runs in guard.runs()
            for lo, hi in pairs(runs))

    def aborted_members(self, guard: GuardSet) -> GuardSet:
        """The members of ``guard`` known aborted — the orphan test
        (§4.2.3) on runs: the tail of each run from the first index a later
        incarnation truncates."""
        out = GuardSet()
        for key, runs in guard.runs():
            dead = self.peer(key[0]).incarnations.truncation(key[1])
            if runs[-1] >= dead:
                out.set_runs(key, minus_runs(runs, (0, int(dead) - 1)))
        return out
