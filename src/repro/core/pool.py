"""The message pool (§4.2.3): arrival, orphan test, matching, delivery.

:class:`MessagePool` holds the data envelopes of one process until a thread
can consume them.  It discards orphans (envelopes guarded by an aborted
guess) on arrival and at each dispatch pass, matches replies to the caller
and requests to a blocked receiver chosen by the delivery heuristic,
extends the consumer's guard, and takes back what a rolled-back thread had
consumed.  :meth:`MessagePool.taker` is the one "which thread, if any,
takes this envelope" predicate.  A pooled envelope is a registered holder
of the runs of its guard in the view's index, so the orphan test of a
dispatch pass reads the envelope's ``news`` and costs nothing while there
is none.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Set, Tuple

from repro.core.config import DeliveryHeuristic
from repro.core.guess import GuessId
from repro.core.history import SystemView
from repro.core.journal import RESULT, Slot
from repro.core.messages import DataEnvelope
from repro.core.thread import OptimisticThread, ThreadStatus
from repro.csp.payloads import CallRequest, CallResponse, OneWay, Request
from repro.errors import ProtocolError
from repro.obs import spans as ob


class MessagePool:
    """Undelivered data envelopes of one process."""

    def __init__(self, process: str, view: SystemView, system: Any) -> None:
        self.process = process
        self._view = view
        self._sys = system  # OptimisticSystem (untyped: it imports us)
        self._m = system.runtime_metrics
        self.envelopes: List[DataEnvelope] = []
        #: msg_ids already accepted — duplicate suppression, kept only when
        #: the network can duplicate (a resilience configuration)
        self._seen: Optional[Set[int]] = (
            set() if system.config.resilience is not None else None)

    # -------------------------------------------------------------- arrival

    def accept(self, envelope: DataEnvelope) -> bool:
        """Pool an arriving envelope; False for a duplicate or an orphan."""
        if self._seen is not None:
            if envelope.msg_id in self._seen:
                self._m.data_dups.inc()
                return False
            self._seen.add(envelope.msg_id)
        self._view.hold_all(envelope.guard, envelope)
        aborted = self._orphaned_by(envelope)
        if aborted is not None:
            self._discard_orphan(envelope, aborted)
            return False
        self.envelopes.append(envelope)
        return True

    def _orphaned_by(self, envelope: DataEnvelope) -> Optional[GuessId]:
        """Read the envelope's news: its lowest aborted guard member."""
        if not envelope.news:
            return None
        envelope.news.clear()
        return min(self._view.aborted_members(envelope.guard), default=None)

    def _discard_orphan(self, envelope: DataEnvelope, aborted: GuessId) -> None:
        self._view.release_all(envelope.guard, envelope)
        self._m.orphans_discarded.inc()
        system = self._sys
        system.log_protocol_event(self.process, "orphan_discard", {
            "msg_id": envelope.msg_id, "src": envelope.src})
        # msg_id is a process-global counter (not per-run), so it stays out
        # of the span attrs to keep traces byte-deterministic.
        if system.tracer.enabled:
            system.tracer.event(ob.ORPHAN, self.process, system.backend.now,
                                src=envelope.src,
                                guard=sorted(envelope.guard_keys()),
                                aborted=aborted.key())

    def requeue(self, slots: List[Slot]) -> None:
        """Take back what discarded journal ``slots`` had consumed.

        The envelopes go to the front in msg_id order so the re-execution
        can receive them again; those orphaned meanwhile are filtered at
        the next dispatch pass.
        """
        requeued = [
            s.envelope for s in slots
            if s.kind == RESULT and s.envelope is not None
        ]
        if requeued:
            requeued.sort(key=lambda e: e.msg_id)
            self.envelopes[:0] = requeued
            for envelope in requeued:
                self._view.hold_all(envelope.guard, envelope)

    # ------------------------------------------------------------- matching

    def taker(self, envelope: DataEnvelope,
              threads: Mapping[int, OptimisticThread]
              ) -> Optional[OptimisticThread]:
        """The thread of ``threads`` (tid -> thread, in tid order) that
        takes ``envelope``.

        A reply goes to the thread blocked on that call — a call id is
        ``(tid, n)`` and a replay reuses the journalled id, so that is the
        one thread to look at; a request to a
        thread blocked in a matching ``Receive``, chosen by the delivery
        heuristic, where a thread in pessimistic fallback (§3.3) takes only
        fully committed requests.  That filter deliberately does NOT apply
        to replies.  A
        reply is a forced move — the thread must consume exactly this
        message — so withholding it until its guards commit can deadlock:
        the reply may be guarded by this very process's downstream guesses,
        whose commits transitively wait on this thread's progress (found by
        randomized search).
        """
        payload = envelope.payload
        if isinstance(payload, CallResponse):
            t = threads.get(payload.call_id[0])
            waiting = (t is not None and t.status is ThreadStatus.BLOCKED_CALL
                       and t.waiting_call_id == payload.call_id)
            return t if waiting else None
        if not isinstance(payload, (CallRequest, OneWay)):
            raise ProtocolError(
                f"{self.process}: bad request payload {payload!r}")
        eligible = [
            t for t in threads.values()
            if t.status is ThreadStatus.BLOCKED_RECV
            and t.waiting_receive is not None
            and (t.waiting_receive.ops is None
                 or payload.op in t.waiting_receive.ops)
            and (not t.pessimistic
                 or self._view.all_committed(envelope.guard))
        ]
        if not eligible:
            return None
        heuristic = self._sys.config.delivery_heuristic
        if heuristic is DeliveryHeuristic.MIN_NEW_DEPS:
            return min(
                eligible,
                key=lambda t: (len(t.guard.new_guards(envelope.guard)), t.tid),
            )
        return max(eligible, key=lambda t: t.tid)

    def next_delivery(self, threads: Mapping[int, OptimisticThread]
                      ) -> Optional[Tuple[DataEnvelope, OptimisticThread]]:
        """The first pooled envelope some thread takes, with that thread.

        Orphans met on the way are discarded; nothing is delivered yet.
        """
        for envelope in list(self.envelopes):
            aborted = self._orphaned_by(envelope)
            if aborted is not None:
                self.envelopes.remove(envelope)
                self._discard_orphan(envelope, aborted)
                continue
            target = self.taker(envelope, threads)
            if target is not None:
                return envelope, target
        return None

    def deliver(self, envelope: DataEnvelope,
                target: OptimisticThread) -> None:
        """Hand ``envelope`` to ``target``, which resumes with it."""
        self.envelopes.remove(envelope)
        self._view.release_all(envelope.guard, envelope)
        payload = envelope.payload
        if isinstance(payload, CallResponse):
            target.deliver_reply(envelope, payload.value, payload.op)
        elif isinstance(payload, CallRequest):
            target.deliver_request(envelope, Request(
                src=envelope.src, op=payload.op, args=payload.args,
                call_id=payload.call_id, reply_to=payload.reply_to))
        else:
            target.deliver_request(envelope, Request(
                src=envelope.src, op=payload.op, args=payload.args))

    def acquire_guards(self, thread: OptimisticThread,
                       envelope: DataEnvelope, before_position: int) -> None:
        """Extend the consuming thread's guard with the envelope's new guards."""
        view = self._view
        aborted = view.aborted_members(envelope.guard)
        if aborted:
            raise ProtocolError(
                f"{self.process}: consuming orphan envelope {envelope.msg_id}"
                f" (guard member {min(aborted).key()} aborted)"
            )
        # What the thread already holds is unresolved (its guard prunes on
        # read); of the rest, the committed members need no guarding.
        new = thread.guard.new_guards(envelope.guard)
        view.prune(new)
        if new:
            thread.interval += 1
            view.release_all(thread.guard, thread)
            thread.guard.update(new)
            view.hold_all(thread.guard, thread)
            thread.rollbacks.append((before_position, new))
            self._m.guards_acquired.inc(len(new))
