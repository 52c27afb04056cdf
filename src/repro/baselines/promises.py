"""Promise pipelining: the closest modern relative of call streaming.

In a promise-pipelined RPC system (E, Cap'n Proto), a call returns an
unresolved *promise* immediately, and later calls may use promises as
arguments: the runtime forwards the dependent call right away and the
*server* substitutes the resolved value.  Like call streaming this turns a
chain of dependent calls into a stream of sends — but it is **data-flow
only**: the client cannot branch on an unresolved promise.  A control
dependency (`if OK: Write(...)`) forces a full round-trip wait, exactly
the case the paper's optimistic transformation handles by guessing the
branch and being ready to roll back.

The model here:

* ``PCall(dst, op, args)`` — args may contain :class:`Promise` objects;
  the request is sent immediately, pipelined behind whatever resolves its
  argument promises (servers hold requests until the referenced promises
  resolve, modelling promise forwarding).
* ``PWait(promise)`` — block until resolution.  This is the only way to
  observe a value, and therefore the only way to branch on one.

A chain of N data-dependent calls completes in ~1 RTT (like streaming
with correct guesses); a chain with a control dependency after call k
pays an extra round trip there (unlike the optimistic transformation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import EffectError, ProgramError
from repro.obs import spans as ob
from repro.obs.spans import Span
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.network import FixedLatency, LatencyModel, Network
from repro.sim.scheduler import Scheduler
from repro.sim.stats import Stats


@dataclass
class Promise:
    """A forwardable reference to a not-yet-available call result."""

    pid: int
    resolved: bool = False
    value: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Promise #{self.pid} "
                f"{'=' + repr(self.value) if self.resolved else 'pending'}>")


@dataclass
class PCall:
    """Issue a pipelined call; resumes immediately with a Promise."""

    dst: str
    op: str
    args: Tuple[Any, ...] = ()


@dataclass
class PWait:
    """Block until the promise resolves; resumes with its value."""

    promise: Promise


@dataclass
class PipelineResult:
    """Outcome of a promise-pipelined client run."""

    completion_time: float           # when the client generator finished
    settled_time: float              # when the whole system quiesced
    state: Dict[str, Any]
    stats: Stats
    waits: int                       # how many round-trip stalls happened
    trace: List[Any] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)


class PromiseSystem:
    """A client generator plus request/reply servers with promise support.

    The client is a generator yielding :class:`PCall`/:class:`PWait`.
    Server handlers are plain functions ``handler(state, op, args) ->
    value`` whose argument promises have already been substituted.
    """

    def __init__(self, latency_model: Optional[LatencyModel] = None,
                 *, service_time: float = 0.0,
                 tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.scheduler = Scheduler(tracer=self.tracer)
        self.stats = Stats()
        self.network = Network(self.scheduler,
                               latency_model or FixedLatency(1.0),
                               stats=self.stats)
        self.service_time = service_time
        self._pid = itertools.count(1)
        self._promises: Dict[int, Promise] = {}
        self._servers: Dict[str, Callable] = {}
        self._server_state: Dict[str, Dict[str, Any]] = {}
        self._server_busy: Dict[str, float] = {}
        self._client_gen: Optional[Generator] = None
        self._client_state: Dict[str, Any] = {}
        self._waiting_on: Optional[Promise] = None
        self._finished_at: Optional[float] = None
        self._waits = 0
        self._promise_spans: Dict[int, int] = {}  # pid -> open GUESS span

        self.network.register("client", self._client_on_message)

    # ------------------------------------------------------------- assembly

    def add_server(self, name: str,
                   handler: Callable[[Dict[str, Any], str, Tuple], Any]) -> None:
        if name in self._servers:
            raise ProgramError(f"duplicate server {name!r}")
        self._servers[name] = handler
        self._server_state[name] = {}
        self._server_busy[name] = 0.0
        self.network.register(
            name, lambda src, payload, n=name: self._server_on_message(
                n, payload))

    def set_client(self, program: Callable[[Dict[str, Any]], Generator]) -> None:
        self._client_state = {}
        self._client_gen = program(self._client_state)

    # --------------------------------------------------------------- client

    def _advance(self, value: Any) -> None:
        assert self._client_gen is not None
        while True:
            try:
                effect = self._client_gen.send(value)
            except StopIteration:
                self._finished_at = self.scheduler.now
                if self.tracer.enabled:
                    self.tracer.event(ob.COMPLETE, "client", self._finished_at,
                                      name="complete")
                return
            if isinstance(effect, PCall):
                value = self._issue_call(effect)
            elif isinstance(effect, PWait):
                p = effect.promise
                if p.resolved:
                    value = p.value
                else:
                    self._waiting_on = p
                    self._waits += 1
                    self.stats.incr("pp.waits")
                    if self.tracer.enabled:
                        self.tracer.event(
                            ob.CONTROL, "client", self.scheduler.now,
                            name=f"wait:p{p.pid}", direction="stall",
                        )
                    return
            else:
                raise EffectError(f"client yielded {effect!r}")

    def _issue_call(self, call: PCall) -> Promise:
        promise = Promise(pid=next(self._pid))
        self._promises[promise.pid] = promise
        payload = ("call", promise.pid, call.op, tuple(call.args))
        if self.tracer.enabled:
            # An unresolved promise is this baseline's "guess in doubt":
            # the client proceeds before the value is known, exactly like a
            # forked guess — except it can never be wrong (data-flow only),
            # so every promise span resolves with outcome="commit".
            now = self.scheduler.now
            self._promise_spans[promise.pid] = self.tracer.start_span(
                ob.GUESS, "client", now, name=f"p{promise.pid}:{call.op}",
                dst=call.dst, mechanism="promise", site=call.op,
            )
            self.tracer.event(ob.SEND, "client", now,
                              name=f"call:{call.op}", dst=call.dst)
        self.network.send("client", call.dst, payload)
        self.stats.incr("pp.calls")
        return promise

    def _client_on_message(self, src: str, payload: Any) -> None:
        kind, pid, value = payload
        assert kind == "resolve"
        promise = self._promises[pid]
        promise.resolved = True
        promise.value = value
        self.stats.incr("pp.resolutions")
        if self.tracer.enabled:
            now = self.scheduler.now
            self.tracer.event(ob.RECV, "client", now,
                              name=f"resolve:p{pid}", src=src)
            sid = self._promise_spans.pop(pid, -1)
            if sid >= 0:
                self.tracer.end_span(sid, now, outcome="commit")
        if self._waiting_on is promise:
            self._waiting_on = None
            self._advance(value)

    # --------------------------------------------------------------- server

    def _server_on_message(self, name: str, payload: Any) -> None:
        kind, pid, op, args = payload
        assert kind == "call"
        # Promise arguments pipeline: the server holds the request until
        # every referenced promise has resolved (we model promise
        # forwarding by having resolutions broadcast to servers too).
        unresolved = [a for a in args if isinstance(a, Promise) and
                      not a.resolved]
        if unresolved:
            # re-check after any in-flight resolution could have landed;
            # poll on the next scheduler step for simplicity and determinism
            self.scheduler.after(
                0.5, lambda: self._server_on_message(name, payload),
                label=f"{name} hold for promise",
            )
            self.stats.incr("pp.holds")
            return
        concrete = tuple(a.value if isinstance(a, Promise) else a
                         for a in args)
        start = max(self.scheduler.now, self._server_busy[name])
        done = start + self.service_time
        self._server_busy[name] = done
        span = -1
        if self.tracer.enabled:
            span = self.tracer.start_span(
                ob.SERVICE, name, start, name=f"{op}:p{pid}", pid=pid,
                mechanism="promise",
            )

        def finish() -> None:
            value = self._servers[name](self._server_state[name], op, concrete)
            if self.tracer.enabled:
                self.tracer.end_span(span, self.scheduler.now)
            self.network.send(name, "client", ("resolve", pid, value))

        self.scheduler.at(done, finish, label=f"{name} service")

    # ------------------------------------------------------------------ run

    def run(self, until: Optional[float] = None) -> PipelineResult:
        if self._client_gen is None:
            raise ProgramError("no client program set")
        self.scheduler.at(0.0, lambda: self._advance(None), label="client start")
        self.scheduler.run(until=until)
        self.tracer.close_open(self.scheduler.now)
        return PipelineResult(
            completion_time=(self._finished_at if self._finished_at is not None
                             else self.scheduler.now),
            settled_time=self.scheduler.now,
            state=self._client_state,
            stats=self.stats,
            waits=self._waits,
            spans=self.tracer.spans(),
        )
