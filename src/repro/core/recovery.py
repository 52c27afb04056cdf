"""Recovery: lost resolutions, crashes and restarts (resilience, §4.1.5).

:class:`Recovery` owns what one process needs to survive an unreliable
substrate.  While it depends on foreign guesses of unknown fate it runs a
periodic *orphan scan* that QUERYs their owners, and it answers such
QUERYs itself, so a lost COMMIT or ABORT costs a delay instead of a hang.
It also holds the process's up/down state: a crash freezes the process, a
restart aborts what was in doubt and rebuilds the rest from the journals;
and it records the segment labor a worker pool failed to earn.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Mapping, Optional, Protocol

from repro.core.guess import GuessId
from repro.core.history import GuessStatus, SystemView
from repro.core.messages import AbortMsg, CommitMsg, DataEnvelope, QueryMsg
from repro.core.thread import OptimisticThread

#: Period (virtual time) of the orphan re-detection scan under resilience.
ORPHAN_SCAN_INTERVAL = 120.0
#: Consecutive no-progress scan rounds before the scanner disarms.
ORPHAN_SCAN_MAX_IDLE = 3


class RecoveryHost(Protocol):
    """The part of the fork/join state machine that recovery drives."""

    @property
    def threads(self) -> Mapping[int, OptimisticThread]: ...

    @property
    def records(self) -> Mapping[GuessId, Any]: ...

    def abort_own(self, records: List[Any], reason: str) -> None: ...

    def resolve_sweep(self) -> None: ...


class Recovery:
    """Orphan scan, QUERY answering and crash/restart of one process."""

    def __init__(self, process: str, view: SystemView, system: Any,
                 host: RecoveryHost) -> None:
        self.process = process
        self._view = view
        self._sys = system  # OptimisticSystem (untyped: it imports us)
        self._m = system.runtime_metrics
        self._host = host
        #: True while the simulated process is down (crash fault).
        self.crashed = False
        self._scan_timer: Optional[Any] = None
        self._scan_last: FrozenSet[GuessId] = frozenset()
        self._scan_idle = 0

    def _log(self, kind: str, **detail: Any) -> None:
        self._sys.log_protocol_event(self.process, kind, detail)

    # ---------------------------------------------------------- orphan scan

    def answer_query(self, msg: QueryMsg, src: str) -> None:
        """Answer a peer's fate probe for a guess we know about.

        The dependent's periodic scan sends a QUERY and we re-send the
        resolution (the receiver's idempotence layer makes the re-send
        harmless even when the original eventually arrives too).  A
        still-pending guess gets no answer — the scan asks again next round.
        """
        status = self._view.status(msg.guess)
        if status is GuessStatus.COMMITTED:
            reply: Any = CommitMsg(guess=msg.guess)
        elif status is GuessStatus.ABORTED:
            reply = AbortMsg(guess=msg.guess)
        else:
            return
        self._m.query_replies.inc()
        self._log("query_reply", guess=msg.guess.key(), to=src)
        self._sys.send_control(self.process, src, reply)

    def unresolved_foreign(self) -> FrozenSet[GuessId]:
        """Foreign guesses of unknown fate that a live thread or a pooled
        envelope holds, read off the view's holder index."""
        return frozenset(
            g for peer, incarnation, lo, index, holder
            in self._view.registrations()
            if peer.process != self.process
            and isinstance(holder, (OptimisticThread, DataEnvelope))
            for g in peer.unresolved(incarnation, lo, index)
        )

    def arm_scan(self) -> None:
        """Arm the periodic orphan scan while unresolved foreign doubt exists.

        The timer exists only when needed: the scheduler runs until its
        queue drains, so an unconditional periodic timer would keep every
        run alive forever.
        """
        if self._sys.config.resilience is None or self.crashed:
            return
        t = self._scan_timer
        if t is not None and not t.cancelled and not t.fired:
            return
        if not self.unresolved_foreign():
            self._scan_last = frozenset()
            self._scan_idle = 0
            return
        self._scan_timer = self._sys.backend.timer(
            ORPHAN_SCAN_INTERVAL, self._scan,
            label=f"{self.process}.orphan_scan",
        )

    def _scan(self) -> None:
        """One scan round: QUERY the owner of every unresolved dependency."""
        if self.crashed:
            return
        unresolved = self.unresolved_foreign()
        if not unresolved:
            self._scan_last = frozenset()
            self._scan_idle = 0
            return
        self._m.orphan_scans.inc()
        if unresolved == self._scan_last:
            self._scan_idle += 1
        else:
            self._scan_last = unresolved
            self._scan_idle = 0
        if self._scan_idle >= ORPHAN_SCAN_MAX_IDLE:
            # The same doubt survived several answered rounds: the owners
            # really are undecided (e.g. a deadlocked workload), not silent.
            # Disarm so the run can reach quiescence; new arrivals re-arm.
            self._log("orphan_scan_idle",
                      unresolved=sorted(g.key() for g in unresolved))
            return
        for g in sorted(unresolved):
            self._m.orphan_queries.inc()
            self._sys.send_control(self.process, g.process,
                                    QueryMsg(guess=g))
        self.arm_scan()

    def on_exec_failure(self, failure: Any) -> None:
        """A pool task carrying this process's segment labor failed.

        Labor is effect-free by construction, so the substrate already
        recovered (retry, quarantine, or fallback) and the segment's
        virtual completion stands — this records the abort-and-fallback
        in the process's protocol events and metrics, never a crash.
        """
        self._m.exec_failures.inc()
        self._log("exec_failure", label=failure.label, failure=failure.kind,
                  attempts=failure.attempts, quarantined=failure.quarantined)

    # ------------------------------------------------------ crash / restart

    def crash(self) -> None:
        """Simulated process failure: freeze and lose uncommitted progress.

        Every pending timer and scheduled resume owned by this process is
        cancelled — a down process does nothing — and deliveries are
        dropped while down.  Committed facts survive (peer views, journals,
        released output); :meth:`restart` rebuilds the rest.
        """
        if self.crashed:
            return
        self.crashed = True
        self._m.crashes.inc()
        self._log("crash")
        for thread in self._host.threads.values():
            thread._cancel_pending()
        for record in self._host.records.values():
            record.cancel_timer()
        if self._scan_timer is not None:
            self._scan_timer.cancel()

    def restart(self) -> None:
        """Recover after a crash: abort own pending guesses, replay threads.

        Speculative state is volatile: every guess still in doubt at crash
        time is aborted — its tagged messages orphan everywhere, and the
        incarnation bump lets peers infer the abort even if the ABORT
        message itself is lost (§4.1.5).  Each surviving thread is then
        rebuilt by a *full-journal* replay: the journal is the stable log
        and replay suppresses already-performed sends, so recovery repeats
        nothing that was externally visible (the Optimistic Recovery
        position on logged inputs).
        """
        if not self.crashed:
            return
        self.crashed = False
        self._m.restarts.inc()
        self._log("restart")
        host = self._host
        pending = [r for r in host.records.values() if r.status == "pending"]
        if pending:
            host.abort_own(pending, reason="crash")
        for thread in list(host.threads.values()):
            if not thread.alive or not thread.active:
                continue
            self._m.crash_replays.inc()
            thread.rollback_to(len(thread.journal.slots), charge_retry=False)
            thread.replay()
        host.resolve_sweep()
