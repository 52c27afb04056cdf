"""The Time Warp executor.

Logical processes (LPs) run on the discrete-event substrate: *physical*
time models wall-clock on a distributed testbed (message transit has
jittered physical latency; processing an event costs physical time), while
*virtual* time is the application-assigned timestamp order Time Warp must
end up respecting.

Implemented mechanisms: aggressive processing in local virtual-time order,
per-event state checkpoints, straggler rollback, anti-message cancellation
(both for in-queue and already-processed positives), lazy re-insertion of
rolled-back inputs, and end-of-run GVT/fossil accounting.
"""

from __future__ import annotations

import copy
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError, SimulationError
from repro.obs import spans as ob
from repro.obs.spans import Span
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.stats import Stats

#: An LP handler: (state, payload, recv_time) -> list of
#: (dst, virtual_delay, payload) output events.  Must be deterministic.
Handler = Callable[[Dict[str, Any], Any, float], List[Tuple[str, float, Any]]]


@dataclass(order=True)
class TWEvent:
    """One timestamped (anti-)message."""

    recv_time: float
    uid: int                       # orders ties; pairs anti-messages
    sign: int = field(compare=False, default=1)
    dst: str = field(compare=False, default="")
    src: str = field(compare=False, default="")
    send_time: float = field(compare=False, default=0.0)
    payload: Any = field(compare=False, default=None)

    def anti(self) -> "TWEvent":
        return TWEvent(recv_time=self.recv_time, uid=self.uid, sign=-1,
                       dst=self.dst, src=self.src,
                       send_time=self.send_time, payload=self.payload)

    def key(self) -> Tuple[float, int]:
        return (self.recv_time, self.uid)


@dataclass
class _Processed:
    """A processed input event with everything needed to undo it."""

    event: TWEvent
    pre_state: Dict[str, Any]
    outputs: List[TWEvent]
    span_sid: int = -1             # open GUESS span until commit/rollback


class TimeWarpLP:
    """One logical process."""

    def __init__(self, name: str, handler: Handler,
                 initial_state: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.handler = handler
        self.state: Dict[str, Any] = dict(initial_state or {})
        self.lvt = 0.0
        self.pending: List[TWEvent] = []   # heap by (recv_time, uid)
        self.processed: List[_Processed] = []
        self.anti_first: set = set()       # uids of negatives that beat positives
        self.busy_until = 0.0              # physical time

    def push_pending(self, event: TWEvent) -> None:
        heapq.heappush(self.pending, event)

    def pop_pending(self) -> Optional[TWEvent]:
        return heapq.heappop(self.pending) if self.pending else None

    def min_pending_time(self) -> Optional[float]:
        return self.pending[0].recv_time if self.pending else None


@dataclass
class TimeWarpResult:
    """Outcome and accounting of one Time Warp run."""

    completion_time: float         # physical makespan of the run
    gvt: float
    final_states: Dict[str, Dict[str, Any]]
    committed_events: Dict[str, List[Tuple[float, Any]]]
    stats: Stats
    trace: List[Any] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)


class TimeWarpKernel:
    """Drives a set of LPs over the physical substrate."""

    def __init__(
        self,
        *,
        physical_latency: float = 1.0,
        physical_jitter: float = 0.0,
        processing_time: float = 0.5,
        seed: int = 0,
        max_steps: int = 2_000_000,
        cancellation: str = "aggressive",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if cancellation not in ("aggressive", "lazy"):
            raise SimulationError(
                f"cancellation must be 'aggressive' or 'lazy', "
                f"got {cancellation!r}"
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.scheduler = Scheduler(max_steps=max_steps, tracer=self.tracer)
        self.stats = Stats()
        self.rng = RngRegistry(seed)
        self.physical_latency = physical_latency
        self.physical_jitter = physical_jitter
        self.processing_time = processing_time
        self.cancellation = cancellation
        self.lps: Dict[str, TimeWarpLP] = {}
        self._uid = itertools.count(1)
        self._in_flight: Dict[int, float] = {}  # uid -> recv_time (for GVT)
        #: lazy cancellation: outputs of undone events, held back until
        #: re-execution proves them wrong (keyed by input event uid).
        self._suspects: Dict[str, Dict[int, List[TWEvent]]] = {}

    # ------------------------------------------------------------- assembly

    def add_lp(self, name: str, handler: Handler,
               initial_state: Optional[Dict[str, Any]] = None) -> TimeWarpLP:
        if name in self.lps:
            raise SimulationError(f"duplicate LP {name!r}")
        lp = TimeWarpLP(name, handler, initial_state)
        self.lps[name] = lp
        self._suspects[name] = {}
        return lp

    def schedule_initial(self, dst: str, recv_time: float, payload: Any) -> None:
        """Inject an external event at virtual time ``recv_time``."""
        event = TWEvent(recv_time=recv_time, uid=next(self._uid), sign=1,
                        dst=dst, src="__env__", send_time=0.0, payload=payload)
        self._transmit(event, physical_delay=0.0)

    # ------------------------------------------------------------ transport

    def _physical_delay(self) -> float:
        if self.physical_jitter <= 0:
            return self.physical_latency
        return self.physical_latency + self.rng.uniform(
            "tw-jitter", 0, self.physical_jitter)

    def _transmit(self, event: TWEvent, physical_delay: Optional[float] = None) -> None:
        if event.dst not in self.lps:
            raise SimulationError(f"no LP named {event.dst!r}")
        delay = self._physical_delay() if physical_delay is None else physical_delay
        self._in_flight[event.uid * event.sign] = event.recv_time
        kind = "anti" if event.sign < 0 else "event"
        self.stats.incr(f"tw.msgs.{kind}")
        if self.tracer.enabled:
            ekind = ob.CONTROL if event.sign < 0 else ob.SEND
            self.tracer.event(
                ekind, event.src, self.scheduler.now,
                name=f"{kind}:u{event.uid}", dst=event.dst,
                vt=event.recv_time,
            )
        self.scheduler.after(
            delay, lambda: self._deliver(event),
            label=f"tw deliver {kind} -> {event.dst}",
        )

    # ------------------------------------------------------------- delivery

    def _deliver(self, event: TWEvent) -> None:
        self._in_flight.pop(event.uid * event.sign, None)
        lp = self.lps[event.dst]
        if event.sign < 0:
            self._deliver_anti(lp, event)
        else:
            self._deliver_positive(lp, event)
        self._schedule_processing(lp)

    def _deliver_positive(self, lp: TimeWarpLP, event: TWEvent) -> None:
        if event.uid in lp.anti_first:
            # its anti-message arrived first: annihilate silently
            lp.anti_first.discard(event.uid)
            self.stats.incr("tw.annihilated_pre")
            return
        if event.recv_time < lp.lvt:
            self.stats.incr("tw.stragglers")
            self._rollback(lp, event.recv_time, cause_uid=event.uid)
        lp.push_pending(event)

    def _deliver_anti(self, lp: TimeWarpLP, anti: TWEvent) -> None:
        # 1. matching positive still pending → annihilate both.
        for i, ev in enumerate(lp.pending):
            if ev.uid == anti.uid:
                lp.pending[i] = lp.pending[-1]
                lp.pending.pop()
                heapq.heapify(lp.pending)
                self.stats.incr("tw.annihilated")
                # a requeued event that dies here will never re-run: its
                # lazily-held outputs must be cancelled now
                self._flush_suspects(lp, anti.uid)
                return
        # 2. matching positive already processed → roll back past it.
        for rec in lp.processed:
            if rec.event.uid == anti.uid:
                self.stats.incr("tw.anti_rollbacks")
                self._rollback(lp, rec.event.recv_time, discard_uid=anti.uid,
                               cause_uid=anti.uid)
                return
        # 3. the anti-message overtook its positive: remember it.
        lp.anti_first.add(anti.uid)

    # ------------------------------------------------------------ rollback

    def _rollback(self, lp: TimeWarpLP, to_time: float,
                  discard_uid: Optional[int] = None,
                  cause_uid: Optional[int] = None) -> None:
        """Undo every processed event with recv_time >= ``to_time``.

        ``cause_uid`` is the message that triggered the rollback (the
        straggler, or the anti-message's uid) — it becomes the cascade
        root on the aborted guess spans.
        """
        keep: List[_Processed] = []
        undone: List[_Processed] = []
        for rec in lp.processed:  # append order == physical processing order
            if rec.event.recv_time >= to_time:
                undone.append(rec)
            else:
                keep.append(rec)
        if not undone:
            return
        self.stats.incr("tw.rollbacks")
        self.stats.incr("tw.events_undone", len(undone))
        if self.tracer.enabled:
            now = self.scheduler.now
            reason = "anti" if discard_uid is not None else "straggler"
            cause = {"cause": f"u{cause_uid}"} if cause_uid is not None else {}
            self.tracer.event(ob.ROLLBACK, lp.name, now,
                              name=f"to:{to_time}", undone=len(undone),
                              reason=reason, **cause)
            # Root of the cascade: the undone span of the anti-message's
            # victim if it was processed here, else the raw message uid.
            root_key = f"u{cause_uid}" if cause_uid is not None else None
            for rec in undone:
                if cause_uid is not None and rec.event.uid == cause_uid:
                    root_key = f"u{rec.event.uid}@{rec.event.recv_time}"
            for rec in undone:
                if rec.span_sid >= 0:
                    # Every undone event except the direct victim is
                    # collateral of the same cause: a cascade orphan.
                    root = (
                        {"root": root_key}
                        if root_key is not None
                        and rec.event.uid != cause_uid
                        else {}
                    )
                    self.tracer.end_span(rec.span_sid, now,
                                         outcome="abort", reason=reason,
                                         **root)
                    rec.span_sid = -1
        lp.processed = keep
        # Restore the checkpoint of the *physically earliest* undone record:
        # with equal virtual timestamps the (recv_time, uid) minimum need
        # not be the first one processed, but the append order is.
        lp.state = undone[0].pre_state
        lp.lvt = max((r.event.recv_time for r in keep), default=0.0)
        for rec in undone:
            if self.cancellation == "lazy" and rec.event.uid != discard_uid:
                # Hold the outputs back: re-execution will usually produce
                # them again verbatim, making the anti-messages unnecessary.
                self._suspects[lp.name][rec.event.uid] = rec.outputs
            else:
                self._flush_suspects(lp, rec.event.uid)
                for out in rec.outputs:
                    self._transmit(out.anti())
            if rec.event.uid != discard_uid:
                lp.push_pending(rec.event)

    def _flush_suspects(self, lp: TimeWarpLP, uid: int) -> None:
        """Cancel held-back outputs of an input that will never re-run."""
        held = self._suspects.get(lp.name, {}).pop(uid, None)
        if held:
            for out in held:
                self._transmit(out.anti())

    # ----------------------------------------------------------- processing

    def _schedule_processing(self, lp: TimeWarpLP) -> None:
        if not lp.pending:
            return
        start = max(self.scheduler.now, lp.busy_until)
        finish = start + self.processing_time
        lp.busy_until = finish
        self.scheduler.at(finish, lambda: self._process_one(lp),
                          label=f"tw process {lp.name}")

    def _process_one(self, lp: TimeWarpLP) -> None:
        event = lp.pop_pending()
        if event is None:
            return
        pre_state = copy.deepcopy(lp.state)
        lp.lvt = max(lp.lvt, event.recv_time)
        held = self._suspects.get(lp.name, {}).pop(event.uid, None)
        outputs = []
        for dst, vdelay, payload in lp.handler(lp.state, event.payload,
                                               event.recv_time):
            if vdelay <= 0:
                raise ProtocolError(
                    f"LP {lp.name}: output virtual delay must be positive"
                )
            recv_time = event.recv_time + vdelay
            reused = None
            if held is not None:
                for old in held:
                    if (old.dst, old.recv_time, old.payload) == (
                        dst, recv_time, payload
                    ):
                        reused = old
                        break
            if reused is not None:
                # lazy cancellation: the re-execution reproduced this
                # output verbatim — the original message stands.
                held.remove(reused)
                outputs.append(reused)
                self.stats.incr("tw.lazy_reused")
            else:
                out = TWEvent(recv_time=recv_time, uid=next(self._uid),
                              sign=1, dst=dst, src=lp.name,
                              send_time=event.recv_time, payload=payload)
                outputs.append(out)
                self._transmit(out)
        if held:
            # outputs the re-execution did NOT reproduce are wrong: cancel
            for old in held:
                self._transmit(old.anti())
        sid = -1
        if self.tracer.enabled:
            # A processed-but-uncommitted event is Time Warp's guess in
            # doubt: it stays open until GVT passes it (commit) or a
            # straggler/anti-message undoes it (abort).
            sid = self.tracer.start_span(
                ob.GUESS, lp.name, self.scheduler.now,
                name=f"u{event.uid}@{event.recv_time}",
                vt=event.recv_time, src=event.src,
                mechanism="timewarp",
            )
        lp.processed.append(_Processed(event=event, pre_state=pre_state,
                                       outputs=outputs, span_sid=sid))
        self.stats.incr("tw.events_processed")
        self._schedule_processing(lp)

    # ------------------------------------------------------------------ run

    def gvt(self) -> float:
        """Global virtual time: nothing below it can ever roll back."""
        bounds = [t for t in self._in_flight.values()]
        for lp in self.lps.values():
            mp = lp.min_pending_time()
            if mp is not None:
                bounds.append(mp)
        return min(bounds) if bounds else float("inf")

    def run(self, until: Optional[float] = None) -> TimeWarpResult:
        self.scheduler.run(until=until)
        gvt = self.gvt()
        committed: Dict[str, List[Tuple[float, Any]]] = {}
        now = self.scheduler.now
        for name, lp in self.lps.items():
            records = sorted(lp.processed, key=lambda r: r.event.key())
            committed[name] = [
                (r.event.recv_time, r.event.payload)
                for r in records
                if r.event.recv_time < gvt
            ]
            self.stats.incr("tw.fossil_collected", len(committed[name]))
            if self.tracer.enabled:
                # Fossil collection is Time Warp's commit point: everything
                # below GVT resolves; above-GVT survivors stay open and are
                # marked truncated by close_open below.
                for rec in records:
                    if rec.span_sid >= 0 and rec.event.recv_time < gvt:
                        self.tracer.end_span(rec.span_sid, now,
                                             outcome="commit")
                        rec.span_sid = -1
        self.tracer.close_open(now)
        return TimeWarpResult(
            completion_time=now,
            gvt=gvt,
            final_states={n: lp.state for n, lp in self.lps.items()},
            committed_events=committed,
            stats=self.stats,
            spans=self.tracer.spans(),
        )


def sequential_reference(
    lps: Dict[str, Tuple[Handler, Dict[str, Any]]],
    initial_events: List[Tuple[str, float, Any]],
) -> Dict[str, Any]:
    """Ground truth: process all events in strict virtual-time order.

    Returns ``{"states": ..., "processed": {lp: [(t, payload), ...]}}`` for
    comparison against a Time Warp run of the same configuration.
    """
    states = {name: dict(init) for name, (_, init) in lps.items()}
    processed: Dict[str, List[Tuple[float, Any]]] = {n: [] for n in lps}
    heap: List[Tuple[float, int, str, Any]] = []
    uid = itertools.count()
    for dst, t, payload in initial_events:
        heapq.heappush(heap, (t, next(uid), dst, payload))
    guard = 0
    while heap:
        guard += 1
        if guard > 1_000_000:
            raise SimulationError("sequential reference runaway")
        t, _, dst, payload = heapq.heappop(heap)
        handler, _ = lps[dst]
        processed[dst].append((t, payload))
        for out_dst, vdelay, out_payload in handler(states[dst], payload, t):
            heapq.heappush(heap, (t + vdelay, next(uid), out_dst, out_payload))
    return {"states": states, "processed": processed}
