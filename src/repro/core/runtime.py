"""Per-process optimistic runtime: the fork/join state machine of §4.2.

One :class:`ProcessRuntime` owns all threads of one process, its guess
records, its view of every peer's commit history and its commit dependency
graph.  It implements:

* fork (§4.2.1) with predictor, timeout, and the right-branching structure;
* guard tagging on sends (§4.2.2);
* join evaluation (§4.2.5): value fault, self-cycle time fault, immediate
  commit, or the PRECEDENCE protocol (§4.2.6);
* COMMIT/ABORT processing (§4.2.7/§4.2.8) including rollback of dependent
  threads to their ``Rollbacks[g]`` positions;
* incarnation numbering on local aborts (§4.1.2);
* reclamation of settled threads and records where they settle (§3.2);
* the two fixpoint drivers, ``dispatch`` and ``resolve_sweep``.

The other mechanisms each have one owner that the runtime holds and calls:
output commit (§3.2) in :mod:`~repro.core.output`, the message pool
(§4.2.3) in :mod:`~repro.core.pool`, control notification (§4.2.5) in
:mod:`~repro.core.control`, orphan re-detection and crash/restart in
:mod:`~repro.core.recovery`, the ``static_effects`` shortcuts in
:mod:`~repro.core.certificates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProgramError, ProtocolError
from repro.core.cdg import CommitDependencyGraph
from repro.core.certificates import EffectCertificates
from repro.core.config import OptimisticConfig
from repro.core.control import ControlRelay
from repro.core.guards import GuardSet
from repro.core.guess import GuessId
from repro.core.history import SystemView
from repro.core.journal import FORK, JOIN, SEND, Slot
from repro.core.messages import (
    AbortMsg,
    CommitMsg,
    DataEnvelope,
    PrecedenceMsg,
    QueryMsg,
)
from repro.core.output import OutputCommit
from repro.core.pool import MessagePool
from repro.core.recovery import Recovery
from repro.core.snapshot import Snapshotter, StateSnapshot
from repro.core.thread import OptimisticThread, ThreadStatus
from repro.obs import spans as ob
from repro.csp.effects import Call, Reply, Send
from repro.csp.payloads import CallRequest, CallResponse, OneWay, Request
from repro.csp.plan import ForkSpec, ParallelizationPlan
from repro.csp.process import Program

#: Left-thread timeout ("implementation-defined duration", §3.2) of a fork
#: whose ``ForkSpec.timeout`` is None.
DEFAULT_FORK_TIMEOUT = 1000.0


@dataclass
class GuessRecord:
    """Local bookkeeping for one of our own guesses."""

    guess: GuessId
    site: str                       # guessed segment name (S1)
    site_seg: int                   # its index
    range_end: int                  # right thread's segment range end
    spec: ForkSpec
    guessed: Dict[str, Any]
    left_tid: int
    right_tid: int
    status: str = "pending"         # pending | committed | aborted
    continuation_tid: Optional[int] = None
    timer: Any = None
    forked_at: float = 0.0          # virtual time of the fork
    span_sid: int = -1              # tracer span of the in-doubt interval
    #: snapshot of the left thread's state at fork, for strict_exports —
    #: shared with the fork's other captures, not a separate copy
    fork_snapshot: Optional[StateSnapshot] = None
    last_precedence: Optional[GuardSet] = None
    #: True when a rollback of the forking thread discarded the FORK slot:
    #: the (former) left thread re-executes the whole range itself, so no
    #: continuation must ever be spawned for this record.
    fork_undone: bool = False
    #: exports statically certified unused by the continuation: excluded
    #: from the guess at fork, captured from the left thread at commit
    deferred_keys: Tuple[str, ...] = ()
    #: exports statically certified bump-only downstream: a guess mismatch
    #: records a repair delta instead of aborting
    certified_keys: frozenset = frozenset()
    #: per-key repair deltas computed at the latest join (certified keys)
    repair: Optional[Dict[str, Any]] = None

    def cancel_timer(self) -> None:
        """Stop the §3.2 divergence timer, if one was ever armed."""
        if self.timer is not None:
            self.timer.cancel()


class ProcessRuntime:
    """The fork/join/abort/rollback state machine of one process."""

    #: re-entrancy latches of the two fixpoint drivers: set on the
    #: instance while :meth:`dispatch` / :meth:`resolve_sweep` run
    _in_dispatch = _dispatch_again = _in_sweep = _sweep_again = False
    #: fork-order cycle scans in progress (:meth:`_check_own_cycles`)
    _cycle_scans = 0

    def __init__(
        self,
        system,  # OptimisticSystem
        program: Program,
        plan: Optional[ParallelizationPlan],
        config: OptimisticConfig,
    ) -> None:
        self.system = system
        self.name = program.name
        self.program = program
        self.plan = plan or ParallelizationPlan()
        self.plan.validate(program)
        self.config = config
        #: the execution substrate, spoken to only through the backend
        #: facade (scheduling, timers, segment-task submission)
        self.backend = system.backend
        self.tracer = system.tracer
        #: typed handles for the opt.* instrument set (same Stats keys)
        self.m = system.runtime_metrics
        #: opt-in per-segment access recording (None = off, zero cost)
        self.access = system.access
        #: state capture/restore layer (COW snapshots)
        self.snap = Snapshotter(system.stats)
        self.view = SystemView()
        self.cdg = CommitDependencyGraph(
            tracer=self.tracer, process=self.name,
            clock=lambda: self.backend.now, view=self.view,
        )
        self.threads: Dict[int, OptimisticThread] = {}
        self.children: Dict[int, List[int]] = {}
        self._next_tid = 0
        self.incarnation = 0
        self.next_fork_index = 0
        self.records: Dict[GuessId, GuessRecord] = {}
        #: the records that can still act — everything not settled — in
        #: fork order: what the sweep and the cycle check walk
        self.open_records: Dict[GuessId, GuessRecord] = {}
        #: pending ``records``, and the thread that last finished the main
        #: line: maintained so ``_check_completion`` scans neither table
        self._pending_records = 0
        self._main_line: Optional[OptimisticThread] = None
        self.site_attempts: Dict[str, int] = {}
        self.tentative_completion: Optional[float] = None
        self.committed_completion: Optional[float] = None
        #: static-effects shortcuts (built only on opt-in: default runs
        #: never import the analyzer and pay nothing)
        self.certs = EffectCertificates(program, system)
        #: buffered external output (§3.2)
        self.output = OutputCommit(self.name, self.view, system)
        #: undelivered data envelopes (§4.2.3)
        self.inbox = MessagePool(self.name, self.view, system)
        #: dependents, fan-out and idempotence of control messages (§4.2.5)
        self.control = ControlRelay(self.name, system)
        #: orphan scan, QUERY answering, crash/restart
        self.recovery = Recovery(self.name, self.view, system, self)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Create and launch the process's main thread."""
        base = self.snap.capture(self.program.initial_state)
        main = self._create_thread(
            seg_start=0,
            seg_end=len(self.program.segments),
            state=self.snap.restore(base),
            guard=GuardSet(),
            initial_snapshot=base,
        )
        self.backend.at(0.0, main.start, label=f"start {self.name}")

    def _create_thread(
        self,
        seg_start: int,
        seg_end: int,
        state: Dict[str, Any],
        guard: GuardSet,
        initial_snapshot: Optional[StateSnapshot] = None,
    ) -> OptimisticThread:
        tid = self._next_tid
        self._next_tid += 1
        thread = OptimisticThread(
            runtime=self,
            tid=tid,
            seg_start=seg_start,
            seg_end=seg_end,
            state=state,
            guard=guard,
            initial_snapshot=initial_snapshot,
        )
        self.threads[tid] = thread
        self.children[tid] = []
        self.view.hold_all(guard, thread)
        return thread

    def log_event(self, kind: str, **detail: Any) -> None:
        """Record one protocol event for this process."""
        self.system.log_protocol_event(self.name, kind, detail)

    # ----------------------------------------------------------------- fork

    def maybe_fork(self, thread: OptimisticThread, seg_idx: int) -> bool:
        """Fork at the boundary where ``thread`` is about to run ``seg_idx``.

        On success ``thread`` becomes the left thread (caller shrinks its
        range) and a right thread takes the continuation under a new guess.
        """
        seg = self.program.segments[seg_idx]
        spec = self.plan.fork_for(seg.name)
        if spec is None:
            return False
        if self.site_attempts.get(seg.name, 0) >= self.config.max_optimistic_retries:
            self.m.fork_fallback.inc()
            self.log_event("fork_fallback", site=seg.name)
            return False
        governor = self.system.governor
        if governor is not None and not governor.allow_fork(
            self.name, self.backend.now
        ):
            # Denied fork == sequential execution of the segment, exactly
            # like the §3.3 fallback: a pure throughput decision.
            self.log_event("fork_throttled", site=seg.name)
            return False
        if thread.own_guess is not None:
            raise ProtocolError(
                f"{self.name}.t{thread.tid} already guards {thread.own_guess}"
            )

        guess = GuessId.make(self.name, self.incarnation, self.next_fork_index)
        self.next_fork_index += 1
        guessed = dict(self._predict_unobserved(spec, thread))
        missing = [k for k in guessed if k not in seg.exports]
        if missing:
            raise ProgramError(
                f"predictor for segment {seg.name!r} guesses non-exported "
                f"keys {missing}; exports are {seg.exports}"
            )
        deferred, certified = self.certs.trim(seg_idx, seg.name, guessed)
        # One capture of the forking thread's state backs everything the
        # fork needs: the right thread's birth state (plus the guessed
        # overlay), its replay base, and the strict_exports reference.
        base_snap = self.snap.capture(thread.state)
        right_snap = self.snap.derive(base_snap, guessed)
        right_state = self.snap.restore(right_snap)
        right_guard = thread.guard.copy()
        right_guard.add(guess)

        prev_end = thread.seg_end
        right = self._create_thread(
            seg_start=seg_idx + 1,
            seg_end=prev_end,
            state=right_state,
            guard=right_guard,
            initial_snapshot=right_snap,
        )
        record = GuessRecord(
            guess=guess,
            site=seg.name,
            site_seg=seg_idx,
            range_end=prev_end,
            spec=spec,
            guessed=guessed,
            left_tid=thread.tid,
            right_tid=right.tid,
            fork_snapshot=(
                base_snap if self.config.strict_exports else None
            ),
            deferred_keys=deferred,
            certified_keys=certified,
        )
        self.records[guess] = self.open_records[guess] = record
        self._pending_records += 1
        thread.own_guess = guess
        thread.journal.append(
            Slot(kind=FORK, signature=("fork", seg_idx),
                 data=(right.tid, guess, prev_end))
        )
        self.children[thread.tid].append(right.tid)

        self._arm_fork_timeout(record, "timeout")
        overhead = self.config.fork_overhead(spec.copy_state)
        # Track the start event so destroying the thread before it launches
        # cancels the launch (no zombie threads).
        right._pending_event = self.backend.after(
            overhead, right.start, label=f"start {self.name}.t{right.tid}"
        )
        if governor is not None:
            governor.on_fork(self.name)
        self.m.forks.inc()
        now = self.backend.now
        record.forked_at = now
        self.m.speculation_depth.add(1, now)
        if self.tracer.enabled:
            # guard= lists the guesses the new right thread is born under
            # (excluding its own): the fork-time dependence edges of the
            # provenance graph.
            record.span_sid = self.tracer.start_span(
                ob.GUESS, self.name, now, name=guess.key(),
                site=seg.name, left=thread.tid, right=right.tid,
                incarnation=guess.incarnation, index=guess.index,
                guard=sorted(g.key() for g in right_guard if g != guess),
            )
            # Dual clock: stamp the in-doubt window on the driver's wall
            # lane too (real backends only; virtual has no wall clock).
            wall = self.backend.wall_now()
            if wall is not None:
                self.tracer.annotate_wall(record.span_sid, start=wall,
                                          worker="driver")
        self.log_event("fork", guess=guess.key(), site=seg.name,
                       left=thread.tid, right=right.tid)
        return True

    def _predict_unobserved(self, spec: ForkSpec,
                            thread: OptimisticThread) -> Dict[str, Any]:
        """Run the predictor with access recording detached.

        Predictor reads are planner bookkeeping, not segment accesses —
        recording them would charge them to whichever segment's record
        happens to be attached at the fork boundary and break the
        static-superset property the soundness monitor audits.
        """
        state = thread.state
        rec = getattr(state, "_rec", None)
        if rec is None:
            return spec.predict(state)
        state._rec = None
        try:
            return spec.predict(state)
        finally:
            state._rec = rec

    def _arm_fork_timeout(self, record: GuessRecord, tag: str) -> None:
        """(Re)start the §3.2 divergence timer of ``record``'s left thread."""
        guess, timeout = record.guess, record.spec.timeout
        record.timer = self.backend.timer(
            DEFAULT_FORK_TIMEOUT if timeout is None else timeout,
            lambda: self._on_fork_timeout(guess),
            label=f"{self.name}.{guess.key()}.{tag}",
        )

    def _on_fork_timeout(self, guess: GuessId) -> None:
        record = self.records[guess]
        if record.status != "pending":
            return
        self.m.aborts_timeout.inc()
        self.log_event("timeout_abort", guess=guess.key())
        self.abort_own([record], reason="timeout")

    # ------------------------------------------------------------- sending

    def send_call(self, thread: OptimisticThread, effect: Call, call_id) -> None:
        """Send a call request tagged with the thread's guard."""
        payload = CallRequest(
            op=effect.op, args=tuple(effect.args), call_id=call_id,
            reply_to=self.name, size=effect.size,
        )
        self._send_data(thread, effect.dst, payload,
                        ("call", effect.op, tuple(effect.args)), effect.size)

    def send_oneway(self, thread: OptimisticThread, effect: Send) -> None:
        """Send a one-way message tagged with the thread's guard."""
        payload = OneWay(op=effect.op, args=tuple(effect.args), size=effect.size)
        self._send_data(thread, effect.dst, payload,
                        ("send", effect.op, tuple(effect.args)), effect.size)

    def send_reply(self, thread: OptimisticThread, req: Request,
                   effect: Reply) -> None:
        """Send a call reply tagged with the thread's guard."""
        payload = CallResponse(call_id=req.call_id, value=effect.value,
                               op=req.op, size=effect.size)
        self._send_data(thread, req.reply_to, payload,
                        ("reply", req.op, effect.value), effect.size)

    def _send_data(self, thread: OptimisticThread, dst: str, payload: Any,
                   trace_data: Tuple, size: int) -> None:
        guard = (thread.guard.compressed() if self.config.compress_guards
                 else thread.guard.frozen())
        envelope = DataEnvelope(src=self.name, dst=dst, payload=payload,
                                guard=guard, size=size)
        self.control.note_tagged(guard, dst)
        self.system.recorder.record_send(
            self.name, dst, trace_data, self.backend.now,
            guards=envelope.guard_keys(), porder=thread.porder(),
        )
        self.m.guard_tag_units.inc(len(envelope.guard))
        if self.tracer.enabled:
            self.tracer.event(
                ob.SEND, self.name, self.backend.now,
                name=f"{trace_data[0]}:{trace_data[1]}", dst=dst,
                tid=thread.tid, guards=len(envelope.guard),
                guard=sorted(envelope.guard_keys()),
            )
        if self.access is not None:
            self.access.note_send(thread._access_rec, self.name, dst,
                                  trace_data[1])
        self.system.send_data(envelope)

    def record_recv(self, thread: OptimisticThread, src: str,
                    trace_data: Tuple, porder: Tuple[int, int]) -> None:
        """Record a consumption in the trace, tagged with the guard."""
        self.system.recorder.record_recv(
            src, self.name, trace_data, self.backend.now,
            guards=thread.guard.keys(), porder=porder,
        )
        if self.tracer.enabled:
            self.tracer.event(
                ob.RECV, self.name, self.backend.now,
                name=f"{trace_data[0]}:{trace_data[1]}", src=src,
                tid=thread.tid, guards=len(thread.guard),
                guard=sorted(thread.guard.keys()),
            )
        if self.access is not None:
            self.access.note_recv(thread._access_rec, src, self.name,
                                  trace_data[1])

    # ------------------------------------------------------ message arrival

    def on_network(self, src: str, payload: Any) -> None:
        """Network delivery entry point: route by message type."""
        if self.recovery.crashed:
            # A down process loses in-flight deliveries; the reliable
            # transport (when on) withholds the ack so the sender retries.
            self.m.messages_lost_down.inc()
            return
        if isinstance(payload, CommitMsg):
            self._handle_commit(payload, src)
        elif isinstance(payload, AbortMsg):
            self._handle_abort(payload, src)
        elif isinstance(payload, PrecedenceMsg):
            self._handle_precedence(payload, src)
        elif isinstance(payload, QueryMsg):
            self.recovery.answer_query(payload, src)
        elif isinstance(payload, DataEnvelope):
            if self.inbox.accept(payload):
                self.dispatch()
                self.recovery.arm_scan()
        else:
            raise ProtocolError(f"{self.name}: bad payload {payload!r}")

    # ------------------------------------------------------------- dispatch

    def dispatch(self) -> None:
        """Deliver pool messages to eligible threads until a fixpoint."""
        if self._in_dispatch:
            self._dispatch_again = True
            return
        self._in_dispatch = True
        try:
            progress = True
            while progress or self._dispatch_again:
                self._dispatch_again = False
                progress = self._deliver_next()
        finally:
            self._in_dispatch = False

    def _deliver_next(self) -> bool:
        """Deliver the pool's next deliverable envelope; False when none."""
        match = self.inbox.next_delivery(self.threads)
        if match is None:
            return False
        envelope, target = match
        # §4.2.3 early-abort: a reply that depends on the waiting thread's
        # own (future) guess proves a causal cycle — abort it right away.
        own = target.own_guess
        if (
            self.config.early_reply_abort
            and own is not None
            and own in envelope.guard
            and isinstance(envelope.payload, CallResponse)
        ):
            record = self._own_pending(target)
            if record is not None:
                self.m.aborts_time_fault.inc()
                self.log_event("early_reply_time_fault", guess=own.key())
                self.abort_own([record], reason="time_fault",
                               detail={"cycle": [own.key()]})
                return True  # envelope is now an orphan; next pass drops it
        self.inbox.deliver(envelope, target)
        return True

    # ------------------------------------------------------------ join logic

    def on_thread_finished(self, thread: OptimisticThread) -> None:
        """A thread completed its segment range: join or completion handling."""
        if thread.own_guess is not None:
            self.evaluate_join(self.records[thread.own_guess], thread)
        else:
            if thread.seg_end >= len(self.program.segments):
                self._main_line = thread
                self.tentative_completion = self.backend.now
                self.log_event("tentative_complete", tid=thread.tid)
                if self.tracer.enabled:
                    self.tracer.event(ob.COMPLETE, self.name,
                                      self.backend.now,
                                      name="tentative_complete",
                                      tid=thread.tid)
            self._check_completion()

    def evaluate_join(self, record: GuessRecord,
                      left: OptimisticThread) -> None:
        """§4.2.5: ``left``, the left thread of ``record``, has (re)terminated."""
        record.cancel_timer()
        if record.status == "aborted":
            self._spawn_continuation(record)
            return
        if record.status == "committed":
            return

        seg = self.program.segments[record.site_seg]
        # An export the left thread never wrote must stay *absent*, not
        # become an explicit None — the default verifier distinguishes the
        # two (a guessed None against a missing export is a value fault).
        actual = {k: left.state[k] for k in seg.exports if k in left.state}
        self._strict_exports_check(record, left, seg)

        repairs = self.certs.verify(record.guess, record.spec.verifier,
                                    record.certified_keys, record.guessed,
                                    actual)
        if repairs is None:
            self.m.aborts_value_fault.inc()
            self.log_event("value_fault", guess=record.guess.key(),
                           guessed=record.guessed, actual=actual)
            # repr() keeps arbitrary guessed values JSON-safe in span attrs.
            wrong = sorted(
                k for k in record.guessed
                if record.guessed.get(k) != actual.get(k)
            ) or sorted(record.guessed)
            self.abort_own([record], reason="value_fault", detail={
                "mispredicted": [
                    [k, repr(record.guessed.get(k)), repr(actual.get(k))]
                    for k in wrong
                ],
            })
            return
        record.repair = repairs or None
        if record.guess in left.guard:
            # The left thread causally depends on its own fork: time fault —
            # a causal cycle of length one, through the guess itself.
            self.m.aborts_time_fault.inc()
            self.log_event("join_time_fault", guess=record.guess.key())
            self.abort_own([record], reason="time_fault",
                           detail={"cycle": [record.guess.key()]})
            return
        if not left.guard:      # pruned of what has committed, as on any read
            self.commit_own(record, actual)
            return
        # Unresolved foreign guesses: the PRECEDENCE protocol (§4.2.6).
        snapshot = left.guard.frozen()
        if record.last_precedence != snapshot:
            record.last_precedence = snapshot
            grew = self.cdg.add_precedence(record.guess, snapshot)
            self.control.originate(
                PrecedenceMsg(guess=record.guess, guard=snapshot)
            )
            self.m.precedence_sent.inc()
            self.log_event("precedence_sent", guess=record.guess.key(),
                           guard=sorted(snapshot.keys()))
            self._check_own_cycles(record.guess, grew)

    def _left_done(self, record: GuessRecord) -> Optional[OptimisticThread]:
        """The record's left thread, if it has run S1 to the join point."""
        left = self.threads.get(record.left_tid)
        done = (left is not None and left.finished
                and left.status is ThreadStatus.TERMINATED)
        return left if done else None

    def _own_pending(self, thread: OptimisticThread) -> Optional[GuessRecord]:
        """The record of the guess ``thread`` is left thread of, if pending."""
        record = self.records.get(thread.own_guess)
        pending = record is not None and record.status == "pending"
        return record if pending else None

    def _strict_exports_check(self, record: GuessRecord,
                              left: OptimisticThread, seg) -> None:
        """Cheap snapshot comparison replacing the old full-state deepcopy.

        ``fork_snapshot`` shares the capture the fork already paid for, and
        the per-key comparison touches only frozen forms — scalar keys (the
        common case) compare directly, with no state copy at all.
        """
        if not self.config.strict_exports or record.fork_snapshot is None:
            return
        snap = record.fork_snapshot
        for key, value in left.state.items():
            if key in seg.exports:
                continue
            if self.snap.key_changed(snap, key, value):
                raise ProgramError(
                    f"segment {seg.name!r} of {self.name!r} changed "
                    f"non-exported state key {key!r}; add it to exports= "
                    "or the continuation will run against a stale value"
                )

    def commit_own(self, record: GuessRecord,
                   actual: Dict[str, Any]) -> None:
        """Commit one of our guesses and notify dependents (§4.2.7);
        ``actual`` holds the exports the join verified, for the log."""
        record.status = "committed"
        del self.open_records[record.guess]
        self._pending_records -= 1
        record.cancel_timer()
        if record.deferred_keys or record.repair:
            self.certs.bank(record.deferred_keys, record.repair,
                            self.threads.get(record.left_tid))
        self.view.note_commit(record.guess)
        self.cdg.remove_node(record.guess)
        self.control.originate(CommitMsg(guess=record.guess))
        self.m.commits.inc()
        self._resolve_metrics(record, outcome="commit")
        self.log_event("commit", guess=record.guess.key(), actual=actual)
        self._reclaim_if_settled(record.guess)
        self.resolve_sweep()

    def _resolve_metrics(self, record: GuessRecord, outcome: str,
                         reason: Optional[str] = None,
                         **extra: Any) -> None:
        """Shared commit/abort accounting: depth gauge, doubt histogram, span."""
        now = self.backend.now
        self.m.speculation_depth.add(-1, now)
        self.m.doubt_time.observe(now - record.forked_at)
        if self.system.governor is not None:
            self.system.governor.on_resolution(self.name, outcome, now)
        if self.tracer.enabled and record.span_sid >= 0:
            attrs: Dict[str, Any] = {"outcome": outcome}
            if reason is not None:
                attrs["reason"] = reason
            for k, v in extra.items():
                if v is not None:
                    attrs[k] = v
            self.tracer.end_span(record.span_sid, now, **attrs)
            wall = self.backend.wall_now()
            if wall is not None:
                self.tracer.annotate_wall(record.span_sid, end=wall,
                                          worker="driver")

    # ------------------------------------------------------------ own aborts

    def abort_own(self, records: List[GuessRecord], reason: str,
                  root: Optional[str] = None,
                  detail: Optional[Dict[str, Any]] = None) -> None:
        """Abort our own guesses: destroy right subtrees, renumber, notify.

        ``root`` names the guess whose failure caused this abort (cascade
        provenance); guesses discovered while destroying right subtrees are
        cascade orphans of the record being torn down.  ``detail`` carries
        fault forensics (mispredictions, CDG cycle) onto the *initial*
        records' guess spans.
        """
        to_abort: List[GuessRecord] = []
        #: cascade root per aborted record: None for the genuine roots.
        roots: Dict[GuessId, Optional[str]] = {}
        stack: List[Tuple[GuessRecord, Optional[str]]] = [
            (r, root) for r in records
        ]
        while stack:
            record, cascade_root = stack.pop()
            if record.status != "pending":
                continue
            record.status = "aborted"
            self._pending_records -= 1
            record.cancel_timer()
            to_abort.append(record)
            roots[record.guess] = cascade_root
            nested_root = cascade_root or record.guess.key()
            for t in self._destroy_subtree(record.right_tid,
                                           cause=record.guess.key()):
                nested = self._own_pending(t)
                if nested is not None:
                    stack.append((nested, nested_root))
        if not to_abort:
            return

        # §4.1.2: bump the incarnation, reset the index to the abort point.
        self.incarnation += 1
        reset_index = min(r.guess.index for r in to_abort)
        self.next_fork_index = reset_index
        self.view.learn_start(self.name, self.incarnation, reset_index)
        for record in to_abort:
            self.view.note_abort(record.guess)
            self.system.recorder.mark_aborted(record.guess.key())
            self.site_attempts[record.site] = (
                self.site_attempts.get(record.site, 0) + 1
            )
            self.control.originate(AbortMsg(guess=record.guess))
            self.m.aborts.inc()
            fault_detail = detail if roots.get(record.guess) is None else None
            self._resolve_metrics(record, outcome="abort", reason=reason,
                                  root=roots.get(record.guess),
                                  **(fault_detail or {}))
            self.log_event("abort", guess=record.guess.key(), reason=reason)
        for record in to_abort:
            self._rollback_for_abort(record.guess)
            self.cdg.remove_node(record.guess)
        self.resolve_sweep()
        for record in to_abort:
            if self._left_done(record) is not None:
                self._spawn_continuation(record)
            self._reclaim_if_settled(record.guess)

    def _destroy_subtree(self, tid: int,
                         cause: Optional[str] = None) -> List[OptimisticThread]:
        """Destroy a thread and its descendants, requeue their clean
        inputs, and drop them from the tables.

        ``cause`` names the aborted guess on whose behalf the subtree dies;
        it lands on the destroyed segment spans for wasted-work attribution.
        """
        thread = self.threads.get(tid)
        if thread is None:
            return []
        destroyed = [thread]
        thread.destroy(cause=cause)
        self.inbox.requeue(thread.journal.slots)
        self.output.drop_thread(tid)
        for child in self.children[tid]:
            destroyed.extend(self._destroy_subtree(child, cause=cause))
        del self.threads[tid], self.children[tid]
        # An aborted guess whose left thread is gone is settled; a pending
        # one is aborted by the caller, which settles it then.
        self._reclaim_if_settled(thread.own_guess)
        self.m.threads_destroyed.inc()
        return destroyed

    def _abort_orphaned_records(self, destroyed: List[OptimisticThread],
                                reason: str = "parent_rollback",
                                root: Optional[str] = None) -> None:
        """Abort pending guesses whose left threads were just destroyed.

        A destroyed left thread can never reach its join, so leaving its
        guess pending would stall every dependent forever.
        """
        pending = [r for r in map(self._own_pending, destroyed)
                   if r is not None]
        if pending:
            self.abort_own(pending, reason=reason, root=root)

    def _continuation_alive(self, record: GuessRecord) -> bool:
        """Spawned, and not destroyed since: only the left thread's
        rollback past its JOIN slot (or its own destruction) destroys a
        continuation, and a reclaimed one is not destroyed."""
        return record.continuation_tid is not None

    def _spawn_continuation(self, record: GuessRecord) -> None:
        # fork undone: the former left thread re-executes the range itself
        if record.fork_undone or self._continuation_alive(record):
            return
        left = self.threads[record.left_tid]
        base = self.snap.capture(left.state)
        cont = self._create_thread(
            seg_start=record.site_seg + 1,
            seg_end=record.range_end,
            state=self.snap.restore(base),
            guard=left.guard.copy(),
            initial_snapshot=base,
        )
        record.continuation_tid = cont.tid
        left.journal.append(
            Slot(kind=JOIN, signature=("join", record.guess.key()),
                 data=cont.tid)
        )
        self.children[left.tid].append(cont.tid)
        self.m.continuations.inc()
        self.log_event("continuation", guess=record.guess.key(), tid=cont.tid)
        if self.tracer.enabled:
            self.tracer.event(ob.CONTINUATION, self.name, self.backend.now,
                              name=record.guess.key(), tid=cont.tid)
        cont._pending_event = self.backend.after(
            0.0, cont.start, label=f"start {self.name}.t{cont.tid} (cont)"
        )
        self._reclaim_if_settled(record.guess)

    # ---------------------------------------------------------- reclamation

    def _reclaim_if_settled(self, guess: Optional[GuessId]) -> None:
        """Forget the record of ``guess`` once no later event can read it
        (§3.2: commit "discards any state it created for purposes of
        rolling back").

        A committed record is settled at once; an aborted one when its fork
        was undone, its left thread is gone, or that thread has terminated
        with an empty guard and its continuation runs.  A terminated left
        thread with an empty guard can never roll back again, so it leaves
        with its record, journal and snapshots.
        """
        record = self.records.get(guess)
        if record is None or record.status == "pending":
            return
        left = self._left_done(record)
        final = (left is not None and left.own_guess == record.guess
                 and not left.guard)
        settled = (record.fork_undone or record.left_tid not in self.threads
                   or (final and (record.status == "committed"
                                  or self._continuation_alive(record))))
        if not settled:
            return
        del self.records[guess]
        self.open_records.pop(guess, None)
        if final:
            del self.threads[left.tid], self.children[left.tid]

    # --------------------------------------------------- control processing

    def _handle_commit(self, msg: CommitMsg, src: str) -> None:
        if not self.control.admit(msg, src):
            return
        self.view.note_commit(msg.guess)
        self.cdg.remove_node(msg.guess)
        self.log_event("commit_received", guess=msg.guess.key())
        self.resolve_sweep()

    def _handle_abort(self, msg: AbortMsg, src: str) -> None:
        if not self.control.admit(msg, src):
            return
        self.view.note_abort(msg.guess)
        self.log_event("abort_received", guess=msg.guess.key())
        self._rollback_for_abort(msg.guess)
        self.cdg.remove_node(msg.guess)
        self.resolve_sweep()

    def _rollback_for_abort(self, guess: GuessId) -> None:
        """One-shot §4.2.8 processing for ``ABORT(guess)``.

        Rolls back every thread whose guard holds the aborted guess or —
        with ``eager_cdg_rollback`` — any guard member that *follows* it in
        the local CDG (the paper's Abortset).  Applied once per abort:
        re-acquiring a follower afterwards is legitimate, since the
        follower's own fate is still open.

        The view has just recorded the abort, so every thread holding the
        guess has news of the run it sits in (I9), and a rollback that
        re-registers a guard still holding a dead guess is told again at
        once; a thread without news is skipped.  CDG followers are not
        aborted and nobody is told of them: with ``eager_cdg_rollback``
        every thread is tested.
        """
        dead = {guess}
        eager = self.config.eager_cdg_rollback
        if eager:
            dead |= self.cdg.descendants(guess)
        for thread in list(self.threads.values()):
            if not (thread.news or eager) or not thread.alive:
                continue
            affected = [g for g in dead if g in thread.guard]
            if affected:
                self._perform_rollback(
                    thread, thread.rollback_position(GuardSet(affected)),
                    cause=guess.key())

    def _handle_precedence(self, msg: PrecedenceMsg, src: str) -> None:
        if not self.control.admit(msg, src):
            return
        guard = GuardSet(msg.guard)
        self.log_event("precedence_received", guess=msg.guess.key(),
                       guard=sorted(guard.keys()))
        if self.view.status(msg.guess).resolved:
            return  # stale: the guess already committed or aborted
        self.view.note_unknown(msg.guess)
        # Edges from already-resolved guard members carry no information:
        # committed ones are satisfied, aborted ones resolve via the abort
        # path — and re-adding them would leak nodes the resolution already
        # removed from the graph.
        self.view.prune(guard)
        guard.difference_update(self.view.aborted_members(guard))
        grew = self.cdg.add_precedence(msg.guess, guard)
        self._check_own_cycles(msg.guess, grew)
        self.resolve_sweep()

    def _check_own_cycles(self, guess: GuessId, grew: bool) -> None:
        """Abort any of our pending guesses caught in a CDG cycle (§4.2.6).

        ``guess`` has just been given predecessors (new edges if ``grew``),
        and every new edge ends at it.  Each check leaves none of our
        pending guesses on a cycle, so a cycle that is new runs through
        ``guess``: no new edge, no new cycle, and otherwise one DFS from
        ``guess`` settles the common, acyclic case.  Only when it finds a
        cycle is every pending guess checked, in fork order.  An abort
        inside that scan may replay a join that checks again; while a scan
        is in progress, that nested check scans in full as well, so a
        second guess on an older cycle aborts at the point, and in the
        order, a full scan would abort it.
        """
        if not self._cycle_scans and (
                not grew or self.cdg.cycle_through(guess) is None):
            return
        self._cycle_scans += 1
        try:
            for record in list(self.open_records.values()):
                if record.status != "pending":
                    continue
                cycle = self.cdg.cycle_through(record.guess)
                if cycle is not None:
                    keys = [g.key() for g in cycle]
                    self.m.aborts_cycle.inc()
                    self.log_event("cycle_abort", guess=record.guess.key(),
                                   cycle=keys)
                    self.abort_own([record], reason="cycle",
                                   detail={"cycle": keys})
        finally:
            self._cycle_scans -= 1

    # -------------------------------------------------------- resolve sweep

    def resolve_sweep(self) -> None:
        """Propagate every known resolution through local state.

        Prunes committed guesses from guards, rolls back threads holding
        aborted guesses (§4.2.8), re-evaluates waiting joins, releases or
        drops buffered emissions, purges orphans, and re-checks completion.
        Idempotent; safe to call after any history change.
        """
        if self._in_sweep:
            self._sweep_again = True
            return
        self._in_sweep = True
        try:
            again = True
            while again or self._sweep_again:
                self._sweep_again = False
                again = self._sweep_once()
        finally:
            self._in_sweep = False
        self.dispatch()
        self._check_completion()
        self.recovery.arm_scan()

    def _sweep_once(self) -> bool:
        changed = False
        # 0. prune CDG nodes resolved by *implication* (commit of a later
        # index implies earlier ones; incarnation truncation implies
        # aborts) — explicit notifications for them may never arrive,
        # especially under the targeted control plane.
        self.cdg.drop_resolved()
        # 1. prune committed guesses; collect rollback targets.  No news:
        # no run of the guard newly settled (a destroyed thread holds none).
        for thread in list(self.threads.values()):
            if not thread.news:
                continue
            # Forget the runs that committed (reading ``thread.guard`` is
            # what prunes).  What is left names runs with a member known
            # aborted; the CDG-follower part of §4.2.8's Abortset was
            # applied one-shot in _rollback_for_abort.
            thread.news -= {g for g in thread.news
                            if self.view.is_committed(g)}
            affected = thread.news and self.view.aborted_members(thread.guard)
            if affected:
                self._perform_rollback(thread,
                                       thread.rollback_position(affected),
                                       cause=min(g.key() for g in affected))
                changed = True
                continue
            thread.news.clear()     # of runs the thread has shed
            # an aborted guess's left thread may have just settled
            self._reclaim_if_settled(thread.own_guess)
        # 2. re-evaluate joins of pending guesses whose left thread is done.
        for record in list(self.open_records.values()):
            if record.status == "committed":    # by a join earlier in this pass
                continue
            left = self._left_done(record)
            if left is None:
                continue
            if record.status == "pending":
                self.evaluate_join(record, left)
                changed |= record.status != "pending"
            elif not self._continuation_alive(record):
                self._spawn_continuation(record)
                changed = True
        # 3. emissions.
        changed |= self.output.sweep()
        return changed

    def _perform_rollback(self, thread: OptimisticThread, position: int,
                          cause: Optional[str] = None) -> None:
        self.m.rollbacks.inc()
        self.log_event("rollback", tid=thread.tid, position=position)
        if self.tracer.enabled:
            extra = {"cause": cause} if cause is not None else {}
            self.tracer.event(ob.ROLLBACK, self.name, self.backend.now,
                              tid=thread.tid, position=position, **extra)
        thread.discard_cause = cause
        discarded = thread.rollback_to(position)
        self.inbox.requeue(discarded)
        for slot in discarded:
            if slot.kind == FORK:
                child_tid, guess, prev_end = slot.data
                thread.seg_end = prev_end
                thread.own_guess = None
                if child_tid in self.children.get(thread.tid, []):
                    self.children[thread.tid].remove(child_tid)
                record = self.records.get(guess)
                if record is not None:
                    # The fork itself is undone: the thread re-executes the
                    # whole range, so this record may never spawn a
                    # continuation (it would duplicate the range's effects).
                    record.fork_undone = True
                    if record.status == "pending":
                        self.abort_own([record], reason="parent_rollback",
                                       root=cause)
                    else:
                        # Already aborted; just make sure the subtree is
                        # gone (and no pending nested guess leaks with it).
                        self._abort_orphaned_records(self._destroy_subtree(
                            record.right_tid, cause=cause), root=cause)
                        self._reclaim_if_settled(guess)
            elif slot.kind == JOIN:
                cont_tid = slot.data
                record = self.records.get(thread.own_guess)
                if record is not None:
                    record.continuation_tid = None
                self._abort_orphaned_records(
                    self._destroy_subtree(cont_tid, cause=cause), root=cause)
                if cont_tid in self.children.get(thread.tid, []):
                    self.children[thread.tid].remove(cont_tid)
            elif slot.kind == SEND and slot.signature[0] == "emit":
                self.output.drop(slot.data)
        if thread.seg_end >= len(self.program.segments) and thread.own_guess is None:
            # The main line is running again: completion is no longer final.
            self.tentative_completion = None
        # A left thread rolled back past its join is re-executing S1: the
        # §3.2 divergence timeout must cover the re-execution too (the
        # original timer was cancelled when S1 first terminated).
        record = self._own_pending(thread)
        if record is not None and (
            record.timer is None or record.timer.cancelled
            or record.timer.fired
        ):
            self._arm_fork_timeout(record, "retimeout")
        thread.replay()

    # ------------------------------------------------------------ completion

    def _check_completion(self) -> None:
        if self.committed_completion is not None:
            return
        if self.tentative_completion is None:
            return
        main = self._main_line_done()
        if main is None or main.guard or self._pending_records:
            return
        if self.output.unsettled():
            return
        self.committed_completion = self.backend.now
        self.log_event("committed_complete")
        if self.tracer.enabled:
            self.tracer.event(ob.COMPLETE, self.name, self.backend.now,
                              name="committed_complete")

    # ---------------------------------------------------------------- state

    def _main_line_done(self) -> Optional[OptimisticThread]:
        """The thread that last finished the main line, while that stands."""
        t = self._main_line
        done = (
            t is not None
            and t.finished
            and t.status is ThreadStatus.TERMINATED
            and t.own_guess is None
            and t.seg_end >= len(self.program.segments)
        )
        return t if done else None

    def final_state(self) -> Optional[Dict[str, Any]]:
        """State of the completed main-line thread, if any, with what the
        effect certificates banked at commit overlaid."""
        main = self._main_line_done()
        return None if main is None else self.certs.overlay(main.state)
