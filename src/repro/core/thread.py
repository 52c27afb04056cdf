"""Optimistic threads (§4.1, §4.2).

A thread executes a contiguous range of program segments over its own copy
of the process state.  It owns a commit guard set, the ``Rollbacks[g]``
positions of the guards it acquired, and a :class:`~repro.core.journal.Journal`
that makes it recoverable: rollback truncates the journal and re-executes
the thread from its initial state, replaying logged results and suppressing
already-performed side effects.

Threads never touch the network or the trace directly — every externally
visible action goes through the owning
:class:`~repro.core.runtime.ProcessRuntime`, which is where the protocol
(guard propagation, orphan tests, commit/abort handling) lives.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import EffectError, ProtocolError
from repro.core.config import CheckpointPolicy
from repro.core.guards import GuardSet
from repro.core.guess import GuessId
from repro.core.snapshot import StateSnapshot, live_state
from repro.core.journal import (
    COMPUTE,
    
    FORK,
    
    RESULT,
    SEND,
    Journal,
    Slot,
)
from repro.csp.effects import (
    Call,
    Compute,
    Emit,
    GetTime,
    Receive,
    Reply,
    Send,
)
from repro.csp.payloads import Request


class ThreadStatus(enum.Enum):
    RUNNING = "running"          # executing (transiently, inside advance())
    BLOCKED_CALL = "blocked_call"   # waiting for a call reply
    BLOCKED_RECV = "blocked_recv"   # waiting in Receive
    COMPUTING = "computing"      # waiting for a Compute timer
    REPLAYING = "replaying"      # rollback replay in progress / paying debt
    TERMINATED = "terminated"    # finished its segment range
    DESTROYED = "destroyed"      # aborted and discarded


#: sentinel: the effect blocked; advance() must stop.
_BLOCKED = object()


class OptimisticThread:
    """One guarded thread of an optimistically parallelized process."""

    def __init__(
        self,
        runtime,  # ProcessRuntime; untyped to avoid a circular import
        tid: int,
        seg_start: int,
        seg_end: int,
        state: Dict[str, Any],
        guard: GuardSet,
        own_guess: Optional[GuessId] = None,
        initial_snapshot: Optional[StateSnapshot] = None,
    ) -> None:
        self.runtime = runtime
        self.tid = tid
        self.seg_start = seg_start
        self.seg_end = seg_end  # exclusive; shrinks when this thread forks
        #: live state, version-tracked so snapshots of an unchanged state
        #: are free; replay restores from ``initial_snapshot``.  With an
        #: access tracker attached the state is additionally observed, so
        #: every key read/write lands in the current segment's record.
        self.state: Dict[str, Any] = live_state(state)
        if runtime.access is not None:
            self.state = runtime.access.observe(self.state)
        self.initial_snapshot: StateSnapshot = (
            initial_snapshot
            if initial_snapshot is not None
            else runtime.snap.capture(self.state)
        )
        self._guard = guard
        self._pruned_at = runtime.view.epoch
        #: Rollbacks[g] of the guards acquired since birth, oldest first:
        #: (journal position to roll back to when one aborts, the guards
        #: acquired there).  Birth guards are conditions of this thread's
        #: existence: they roll back to 0 (full re-execution, still under
        #: them) and no rollback sheds them, so they are not listed.
        self.rollbacks: List[Tuple[int, GuardSet]] = []
        #: runs of the guard, named by their top guess, that the view has
        #: reported settled and the runtime has not acted on yet (this
        #: thread is a holder in its index)
        self.news: Set[GuessId] = set()
        #: The guess whose S1 this thread runs (left threads only).
        self.own_guess = own_guess

        self.journal = Journal()
        self.status = ThreadStatus.RUNNING
        self.seg_idx = seg_start - 1
        self.step = 0
        self.gen: Optional[Generator] = None
        self.waiting_call_id: Optional[Tuple[int, int]] = None
        self.waiting_receive: Optional[Receive] = None
        self.interval = 0
        self.rollback_count = 0
        self.pessimistic = False
        self._call_counter = 0
        self._pending_event = None      # cancellable Compute/resume event
        self._replay_debt = 0.0
        self._in_rollback_walk = False
        self.finished = False           # reached seg_end at least once
        # journal-compaction bases (set by rebase): replay restarts the
        # porder step and call-id counters here instead of at zero
        self._step_base = 0
        self._call_counter_base = 0
        # interval checkpoints (§3.1): replay re-charges compute only from
        # this slot index on; the restore itself may cost extra
        self._replay_charge_from = 0
        self._replay_restore_extra = 0.0
        self._seg_span = -1             # open tracer span of the current segment
        self._access_rec = None         # open SegmentAccess record, if tracking
        #: guess key blamed for the next discard of this thread's current
        #: segment (set by the runtime before rollback/destroy) — it lands
        #: on the segment span so wasted time is attributable per guess.
        self.discard_cause: Optional[str] = None

    # ----------------------------------------------------------- properties

    @property
    def guard(self) -> GuardSet:
        """The commit guard set, committed members dropped.

        Every reader comes through here: a COMMIT visits no holder, the
        committed prefix of a run falls out of the guard when it is next
        read — at most once per update of the view.
        """
        view = self.runtime.view
        if self._pruned_at != view.epoch:
            self._pruned_at = view.epoch
            if self._guard and view.prune(self._guard) and not self._guard:
                self.rollbacks.clear()      # committed: nothing to roll back
        return self._guard

    def rollback_position(self, dead: GuardSet) -> int:
        """``min(Rollbacks[g] for g in dead)``; 0 for a birth guard."""
        first: Optional[int] = None
        for position, acquired in self.rollbacks:
            rest = dead.difference(acquired)
            if len(rest) != len(dead):
                first, dead = position if first is None else first, rest
                if not dead:
                    return first
        return 0

    @property
    def alive(self) -> bool:
        return self.status not in (ThreadStatus.DESTROYED,)

    @property
    def active(self) -> bool:
        """Still executing (not terminated/destroyed)."""
        return self.status not in (
            ThreadStatus.TERMINATED,
            ThreadStatus.DESTROYED,
        )

    def porder(self) -> Tuple[int, int]:
        """Program-order stamp for the next recorded event."""
        p = (self.seg_idx, self.step)
        self.step += 1
        return p

    def _position(self) -> int:
        return self.journal.position

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin executing this thread's segment range."""
        if self.status is ThreadStatus.DESTROYED:  # aborted before starting
            return
        self._pending_event = None
        self._advance_loop(None)

    def destroy(self, cause: Optional[str] = None) -> None:
        """Abort-discard this thread; it never runs again."""
        self._cancel_pending()
        self.status = ThreadStatus.DESTROYED
        self.runtime.view.release_all(self.guard, self)
        if cause is not None:
            self.discard_cause = cause
        self._end_seg_span(outcome="destroyed")
        self._end_access("destroyed")

    def _end_seg_span(self, **attrs: Any) -> None:
        if self._seg_span >= 0:
            if attrs.get("outcome") in ("destroyed", "rolled_back") \
                    and self.discard_cause is not None:
                attrs.setdefault("cause", self.discard_cause)
            self.runtime.tracer.end_span(
                self._seg_span, self.runtime.backend.now, **attrs)
            self._seg_span = -1
        if "outcome" in attrs:
            self.discard_cause = None

    def _end_access(self, outcome: str) -> None:
        """Close the current segment's access record, if tracking."""
        rec = self._access_rec
        if rec is not None:
            self._access_rec = None
            self.runtime.access.end_segment(
                rec, self.runtime.backend.now, outcome, state=self.state)

    def _cancel_pending(self) -> None:
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None

    # -------------------------------------------------------- the main loop

    def _advance_loop(self, value: Any) -> None:
        """Drive the generator until it blocks or the thread finishes."""
        self.status = ThreadStatus.RUNNING
        while True:
            if self.gen is None:
                if not self._enter_next_segment():
                    return  # blocked on fork-cost compute or finished
                continue
            try:
                effect = self.gen.send(value)
            except StopIteration:
                self.gen = None
                value = None
                continue
            # Pay accumulated replay debt before the first live effect.
            if self.journal.live and self._replay_debt > 0:
                self._defer_effect(effect, self._replay_debt)
                self._replay_debt = 0.0
                return
            value = self._execute(effect)
            if value is _BLOCKED:
                return

    def resume(self, value: Any) -> None:
        """Unblock with ``value`` (a reply, a request, or a timer firing)."""
        self._pending_event = None
        self._advance_loop(value)

    def _defer_effect(self, effect: Any, delay: float) -> None:
        """Hold ``effect`` while virtual time catches up (replay debt)."""
        self.status = ThreadStatus.REPLAYING

        def fire() -> None:
            self._pending_event = None
            self.status = ThreadStatus.RUNNING
            value = self._execute(effect)
            if value is not _BLOCKED:
                self._advance_loop(value)

        self._pending_event = self.runtime.backend.after(
            delay, fire, label=f"{self.runtime.name}.t{self.tid}.replay-debt"
        )

    # ----------------------------------------------------- segment handling

    def _enter_next_segment(self) -> bool:
        """Advance to the next segment; returns False when control stopped.

        Handles the fork protocol: if the segment about to start is marked
        in the plan (and retries remain), the runtime forks — this thread
        becomes the left thread of the new guess and its range shrinks to
        end at the join point.
        """
        self.seg_idx += 1
        self.step = self._step_base if self.seg_idx == self.seg_start else 0
        if self.seg_idx >= self.seg_end:
            self._finish()
            return False
        # Fork decision at this boundary.  A thread entering a plan-marked
        # segment becomes the left thread of a new guess (range shrinks to
        # end at the join point) and a right thread takes the continuation —
        # including at a right thread's very first segment, which is what
        # produces the paper's right-branching fork structure for streaming.
        replay_slot = self.journal.next_replay_slot()
        if replay_slot is not None and replay_slot.kind == FORK:
            # Replaying past a fork that still stands: restore the shrunken
            # range, do not create a second child.
            self.journal.consume_replay_slot(FORK, replay_slot.signature)
            self.seg_end = self.seg_idx + 1
        elif self.journal.live:
            forked = self.runtime.maybe_fork(self, self.seg_idx)
            if forked:
                self.seg_end = self.seg_idx + 1
        seg = self.runtime.program.segments[self.seg_idx]
        self.gen = seg.instantiate(self.state)
        if self.runtime.tracer.enabled:
            self._end_seg_span()
            self._seg_span = self.runtime.tracer.start_span(
                "segment", self.runtime.name, self.runtime.backend.now,
                name=seg.name, tid=self.tid, seg=self.seg_idx,
                speculative=bool(self.guard), replaying=not self.journal.live,
            )
        access = self.runtime.access
        if access is not None:
            self._end_access("completed")
            self._access_rec = access.begin_segment(
                self.state, process=self.runtime.name, tid=self.tid,
                seg=self.seg_idx, name=seg.name,
                start=self.runtime.backend.now,
                replaying=not self.journal.live,
            )
        if seg.compute > 0:
            blocked = self._do_compute(seg.compute, ("segcompute", self.seg_idx))
            if blocked:
                return False
        return True

    def _finish(self) -> None:
        self.status = ThreadStatus.TERMINATED
        self.finished = True
        self.gen = None
        self._end_seg_span(outcome="terminated")
        self._end_access("terminated")
        self.runtime.on_thread_finished(self)

    def _block(self, status: ThreadStatus) -> Any:
        """Enter a blocked state, first paying any outstanding replay debt.

        Masking the status as REPLAYING until the debt elapses prevents the
        dispatcher from delivering a message to a thread whose (modelled)
        state restoration has not finished yet.
        """
        if self._replay_debt > 0:
            debt, self._replay_debt = self._replay_debt, 0.0
            self.status = ThreadStatus.REPLAYING

            def unblock() -> None:
                self._pending_event = None
                self.status = status
                self.runtime.dispatch()

            self._pending_event = self.runtime.backend.after(
                debt, unblock, label=f"{self.runtime.name}.t{self.tid}.debt"
            )
        else:
            self.status = status
            self.runtime.dispatch()
        return _BLOCKED

    # ------------------------------------------------------ effect handling

    def _execute(self, effect: Any) -> Any:
        """Perform (or replay) one effect; returns its value or _BLOCKED."""
        if isinstance(effect, Compute):
            sig = ("compute", self.seg_idx)
            blocked = self._do_compute(effect.duration, sig,
                                       work=effect.work)
            return _BLOCKED if blocked else None
        if isinstance(effect, Call):
            return self._do_call(effect)
        if isinstance(effect, Send):
            return self._do_send(effect)
        if isinstance(effect, Reply):
            return self._do_reply(effect)
        if isinstance(effect, Receive):
            return self._do_receive(effect)
        if isinstance(effect, Emit):
            return self._do_emit(effect)
        if isinstance(effect, GetTime):
            return self._do_gettime()
        raise EffectError(
            f"{self.runtime.name}.t{self.tid}: unknown effect {effect!r}"
        )

    # -- compute ------------------------------------------------------------

    def _do_compute(self, duration: float, sig: Tuple,
                    work: Any = None) -> bool:
        """Returns True when blocked on a (backend-mediated) timer.

        Live computes are submitted as segment tasks: on a real backend
        the ``work`` payload (or a realized sleep standing in for the
        modelled duration) runs on a pool worker while the placeholder
        event keeps virtual ordering identical to the oracle.  The replay
        path below never resubmits — already-performed labor is a logged
        duration, not work to redo.
        """
        if not self.journal.live:
            slot_index = self.journal.cursor
            slot = self.journal.consume_replay_slot(COMPUTE, sig)
            if (
                self.runtime.config.checkpoint_policy is CheckpointPolicy.REPLAY
                and slot_index >= self._replay_charge_from
            ):
                self._replay_debt += slot.duration
            return False
        self.journal.append(Slot(kind=COMPUTE, signature=sig, duration=duration))
        # Outstanding replay debt is paid together with the first live
        # compute (it is CPU time either way).
        wall = duration + self._replay_debt
        self._replay_debt = 0.0
        if wall <= 0 and work is None:
            return False
        self.status = ThreadStatus.COMPUTING
        self._pending_event = self.runtime.backend.submit_segment(
            wall,
            lambda: self.resume(None),
            label=f"{self.runtime.name}.t{self.tid}.compute",
            work=work,
            span_sid=self._seg_span,
        )
        return True

    # -- call ---------------------------------------------------------------

    def _do_call(self, effect: Call) -> Any:
        self._call_counter += 1
        call_id = (self.tid, self._call_counter)
        sig = ("call", effect.dst, effect.op, self.seg_idx)
        if not self.journal.live:
            send_slot = self.journal.consume_replay_slot(SEND, sig)
            call_id = send_slot.data  # reuse the original id
            result_slot = self.journal.next_replay_slot()
            if (
                result_slot is not None
                and result_slot.kind == RESULT
                and result_slot.signature == sig
            ):
                self.journal.consume_replay_slot(RESULT, sig)
                self.step += 1  # the original receive recorded a trace event
                return result_slot.result
            # Reply consumption was rolled back: wait for redelivery.
            self.waiting_call_id = call_id
            return self._block(ThreadStatus.BLOCKED_CALL)
        self.journal.append(Slot(kind=SEND, signature=sig, data=call_id))
        self.runtime.send_call(self, effect, call_id)
        self.waiting_call_id = call_id
        return self._block(ThreadStatus.BLOCKED_CALL)

    def deliver_reply(self, envelope, value: Any, op: str) -> None:
        """Runtime hands over the reply this thread is blocked on."""
        if self.status is not ThreadStatus.BLOCKED_CALL:
            raise ProtocolError(
                f"{self.runtime.name}.t{self.tid}: reply delivered while "
                f"{self.status}"
            )
        sig = ("call", envelope.src, op, self.seg_idx)
        self.waiting_call_id = None
        self.runtime.inbox.acquire_guards(self, envelope,
                                          before_position=self._position())
        self.journal.append(
            Slot(kind=RESULT, signature=sig, result=value, envelope=envelope,
                 porder=(self.seg_idx, self.step))
        )
        self.runtime.record_recv(
            self, envelope.src, ("reply", op, value), self.porder()
        )
        self._advance_loop(value)

    # -- one-way send / reply ------------------------------------------------

    def _do_send(self, effect: Send) -> Any:
        sig = ("send", effect.dst, effect.op, self.seg_idx)
        if not self.journal.live:
            self.journal.consume_replay_slot(SEND, sig)
            self.step += 1  # the original send recorded a trace event
            return None
        self.journal.append(Slot(kind=SEND, signature=sig))
        self.runtime.send_oneway(self, effect)
        return None

    def _do_reply(self, effect: Reply) -> Any:
        req = effect.request
        if not isinstance(req, Request) or not req.is_call:
            raise EffectError(
                f"{self.runtime.name}.t{self.tid}: Reply to non-call {req!r}"
            )
        sig = ("reply", req.reply_to, req.op, self.seg_idx)
        if not self.journal.live:
            self.journal.consume_replay_slot(SEND, sig)
            self.step += 1
            return None
        self.journal.append(Slot(kind=SEND, signature=sig))
        self.runtime.send_reply(self, req, effect)
        return None

    # -- receive --------------------------------------------------------------

    def _do_receive(self, effect: Receive) -> Any:
        sig = ("receive", self.seg_idx)
        if not self.journal.live:
            slot = self.journal.consume_replay_slot(RESULT, sig)
            self.step += 1
            return slot.result
        self.waiting_receive = effect
        return self._block(ThreadStatus.BLOCKED_RECV)

    def deliver_request(self, envelope, request: Request) -> None:
        """Runtime hands over a matching request while in BLOCKED_RECV."""
        if self.status is not ThreadStatus.BLOCKED_RECV:
            raise ProtocolError(
                f"{self.runtime.name}.t{self.tid}: request delivered while "
                f"{self.status}"
            )
        sig = ("receive", self.seg_idx)
        self.waiting_receive = None
        self.runtime.inbox.acquire_guards(self, envelope,
                                          before_position=self._position())
        self.journal.append(
            Slot(kind=RESULT, signature=sig, result=request, envelope=envelope,
                 porder=(self.seg_idx, self.step))
        )
        self.runtime.record_recv(
            self, envelope.src, ("req", request.op, request.args), self.porder()
        )
        self._advance_loop(request)

    # -- emit / gettime --------------------------------------------------------

    def _do_emit(self, effect: Emit) -> Any:
        sig = ("emit", effect.sink, self.seg_idx)
        if not self.journal.live:
            self.journal.consume_replay_slot(SEND, sig)
            self.step += 1
            return None
        emission_id = self.runtime.output.emit(
            self, effect, porder=(self.seg_idx, self.step))
        self.step += 1
        self.journal.append(Slot(kind=SEND, signature=sig, data=emission_id))
        return None

    def _do_gettime(self) -> Any:
        sig = ("gettime", self.seg_idx)
        if not self.journal.live:
            return self.journal.consume_replay_slot(RESULT, sig).result
        now = self.runtime.backend.now
        self.journal.append(Slot(kind=RESULT, signature=sig, result=now))
        return now

    # -------------------------------------------------------------- rollback

    def rollback_to(self, position: int, *, charge_retry: bool = True) -> list:
        """Roll back to journal ``position``; returns the discarded slots.

        The caller (runtime) requeues consumed envelopes, destroys forked
        children and drops emissions found in the discarded suffix, then
        calls :meth:`replay`.  ``charge_retry=False`` exempts the rollback
        from the §3.3 pessimistic-fallback accounting — crash-recovery
        replay is environmental, not evidence of misspeculation.
        """
        self._cancel_pending()
        config = self.runtime.config
        if charge_retry:
            self.rollback_count += 1
            if self.rollback_count >= config.max_optimistic_retries:
                self.pessimistic = True
        # §3.1 interval checkpoints: restore the nearest checkpoint at or
        # below the rollback point; compute before it is not re-paid.
        if (
            config.checkpoint_policy is CheckpointPolicy.REPLAY
            and config.checkpoint_interval
        ):
            self._replay_charge_from = (
                position // config.checkpoint_interval
            ) * config.checkpoint_interval
            self._replay_restore_extra = (
                config.restore_cost if self._replay_charge_from > 0 else 0.0
            )
        else:
            self._replay_charge_from = 0
            self._replay_restore_extra = 0.0
        discarded = self.journal.begin_replay(position)
        # Guards acquired at or after the rollback point are gone.
        guard, view, rollbacks = self.guard, self.runtime.view, self.rollbacks
        if rollbacks and rollbacks[-1][0] >= position:
            view.release_all(guard, self)
            while rollbacks and rollbacks[-1][0] >= position:
                guard.difference_update(rollbacks.pop()[1])
            view.hold_all(guard, self)
        self.status = ThreadStatus.REPLAYING
        self.finished = False
        return discarded

    def replay(self) -> None:
        """Re-execute from the initial state, replaying the retained journal.

        Runs synchronously in zero virtual time; compute charges become
        *replay debt* paid before the first live effect (REPLAY policy) or a
        fixed restore cost (EAGER_COPY policy).
        """
        # Close the access record first: restoration writes are recovery
        # bookkeeping, not program accesses (the record is detached, so the
        # clear/restore below goes unobserved).
        self._end_access("rolled_back")
        self.state.clear()
        self.runtime.snap.restore(self.initial_snapshot, into=self.state)
        if self.runtime.tracer.enabled:
            self._end_seg_span(outcome="rolled_back")
            self.runtime.tracer.event(
                "replay", self.runtime.name, self.runtime.backend.now,
                tid=self.tid, position=self.journal.cursor,
            )
        self.gen = None
        self.seg_idx = self.seg_start - 1
        self.step = 0
        self._call_counter = self._call_counter_base
        self.waiting_call_id = None
        self.waiting_receive = None
        self._replay_debt = (
            self.runtime.config.restore_cost
            if self.runtime.config.checkpoint_policy is CheckpointPolicy.EAGER_COPY
            else self._replay_restore_extra
        )
        self._advance_loop(None)

    def rebase_refusal(self) -> Optional[str]:
        """Why :meth:`rebase` would refuse now; None when it may compact.

        Compaction is legal only while blocked at a receive of a
        ``rebase_safe`` single-segment range with an empty guard and no
        fork of its own in the journal: a future replay then
        re-instantiates the (re-entrant) segment generator over the
        rebased state and the first replayed effect is again the receive.
        """
        if self.status is not ThreadStatus.BLOCKED_RECV:
            return "rebase requires a thread blocked in Receive"
        if self.guard or not self.journal.live:
            return "rebase requires an empty, live guard state"
        if self.own_guess is not None:
            return "rebase cannot compact a left thread's fork"
        if self.seg_end - self.seg_start != 1:
            return "rebase supports single-segment ranges only"
        segment = self.runtime.program.segments[self.seg_idx]
        if not segment.rebase_safe:
            return f"segment {segment.name!r} is not declared rebase_safe"
        if segment.compute > 0:
            return "rebase cannot compact a segment with entry compute time"
        return None

    def rebase(self) -> int:
        """Journal compaction: make the current state the replay base.

        Raises :class:`ProtocolError` unless :meth:`rebase_refusal` is
        None.  Returns the number of journal slots reclaimed.
        """
        refusal = self.rebase_refusal()
        if refusal is not None:
            raise ProtocolError(refusal)
        reclaimed = len(self.journal.slots)
        self.initial_snapshot = self.runtime.snap.capture(self.state)
        self.journal.slots.clear()
        self.journal.cursor = 0
        self._step_base = self.step
        self._call_counter_base = self._call_counter
        self.rollbacks.clear()
        return reclaimed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        own = f" own={self.own_guess.key()}" if self.own_guess else ""
        return (
            f"<Thread {self.runtime.name}.t{self.tid} "
            f"segs[{self.seg_start}:{self.seg_end}) {self.status.value}"
            f" guard={self.guard!r}{own}>"
        )
