"""Output commit (§3.2): external output waits until its guesses commit.

An ``Emit`` performed under unresolved guesses cannot be undone once it
reaches its sink, so :class:`OutputCommit` buffers it: released — in
program order — when every guess it depends on has committed; dropped when
one aborts, when its thread is destroyed, or when a rollback discards the
``Emit`` itself.  A buffered emission is a registered holder of its pending
guesses in the view's index; :meth:`OutputCommit.sweep` reads its ``news``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Set, Tuple

from repro.core.guess import GuessId
from repro.core.history import SystemView
from repro.core.thread import OptimisticThread
from repro.csp.effects import Emit
from repro.errors import ProgramError, ProtocolError
from repro.obs import spans as ob


@dataclass
class Emission:
    """One buffered external output awaiting commit."""

    emission_id: int
    tid: int
    sink: str
    payload: Any
    size: int
    porder: Tuple[int, int]
    pending: Set[GuessId]
    released: bool = False
    dropped: bool = False
    #: pending guesses the view has reported resolved, not yet swept
    news: Set[GuessId] = field(default_factory=set)


class OutputCommit:
    """The external output of one process: released, buffered or dropped."""

    def __init__(self, process: str, view: SystemView, system: Any) -> None:
        self.process = process
        self._view = view
        self._sys = system  # OptimisticSystem (untyped: it imports us)
        self._m = system.runtime_metrics
        #: buffered emissions only: released and dropped ones leave the list
        self.emissions: List[Emission] = []
        self._next_id = 0

    def emit(self, thread: OptimisticThread, effect: Emit,
             porder: Tuple[int, int]) -> int:
        """Release ``effect`` now or buffer it until its guards commit."""
        system = self._sys
        if effect.sink not in system.sinks:
            raise ProgramError(
                f"{self.process}: Emit to unknown sink {effect.sink!r}")
        self._next_id += 1
        emission = Emission(
            emission_id=self._next_id, tid=thread.tid, sink=effect.sink,
            payload=effect.payload, size=effect.size, porder=porder,
            pending={
                g for g in thread.guard if not self._view.is_committed(g)
            },
        )
        now = system.backend.now
        system.recorder.record_external(
            self.process, effect.sink, effect.payload, now,
            guards=thread.guard.keys(), porder=porder,
        )
        if system.tracer.enabled:
            system.tracer.event(
                ob.EMIT, self.process, now, name=effect.sink,
                tid=thread.tid, buffered=bool(emission.pending),
            )
        if system.access is not None:
            system.access.note_emit(thread._access_rec, effect.sink)
        if emission.pending:
            self.emissions.append(emission)
            self._m.emissions_buffered.inc()
            for g in emission.pending:
                self._view.hold(g, emission)
        else:
            self._release(emission)
        return emission.emission_id

    def _release(self, emission: Emission) -> None:
        emission.released = True
        self._sys.network.send(self.process, emission.sink,
                               emission.payload, size=emission.size)
        self._m.emissions_released.inc()

    def _drop(self, emission: Emission) -> None:
        emission.dropped = True
        for g in emission.pending:
            self._view.release(g, emission)

    def unsettled(self) -> List[Emission]:
        """Emissions neither released nor dropped (none at a clean end)."""
        return [em for em in self.emissions
                if not em.released and not em.dropped]

    def drop(self, emission_id: int) -> None:
        """A rollback discarded the ``Emit`` that produced this emission.

        Counter quirk, kept because counters are part of the pinned run
        digests: this path does not bump ``opt.emissions_dropped``; the
        other two drop paths (:meth:`drop_thread`, :meth:`sweep`) do.
        """
        for em in self.emissions:
            if em.emission_id == emission_id:
                if em.released:
                    raise ProtocolError(
                        f"{self.process}: rollback reached a released "
                        f"external emission {emission_id} — output commit "
                        "violated"
                    )
                self._drop(em)
        self.emissions = [em for em in self.emissions if not em.dropped]

    def drop_thread(self, tid: int) -> None:
        """Thread ``tid`` was destroyed: its buffered output dies with it."""
        kept = []
        for em in self.emissions:
            if em.tid == tid and not em.released:
                self._drop(em)
                self._m.emissions_dropped.inc()
            else:
                kept.append(em)
        self.emissions = kept

    def sweep(self) -> bool:
        """Apply known resolutions; True when any emission settled."""
        changed = False
        still: List[Emission] = []
        for em in self.emissions:
            if em.released or em.dropped:
                continue
            news, em.news = em.news, set()
            if any(self._view.is_aborted(g) for g in news):
                self._drop(em)
                self._m.emissions_dropped.inc()
                changed = True
                continue
            if news:
                em.pending -= {g for g in news if self._view.is_committed(g)}
                changed |= not em.pending
            still.append(em)
        for em in sorted((em for em in still if not em.pending),
                         key=lambda em: em.porder):
            self._release(em)  # all committed: out, in program order
        self.emissions = [em for em in still if em.pending]
        return changed
