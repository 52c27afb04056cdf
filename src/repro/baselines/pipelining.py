"""The unsafe pipelining baseline (§1's X-window-system contrast).

"Some systems, such as the X-window system, trade off correctness for
performance, by providing an asynchronous send-based interface, and
requiring the user to handle asynchronous notification of errors."

Here a call chain is executed by firing every request as a one-way send and
emitting each result's external output *immediately*, before knowing
whether earlier requests succeeded.  Completion is as fast as physics
allows, but when a request fails, outputs that a sequential execution would
never have produced have already reached the display — the
``unsafe_outputs`` count that experiment C6 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.csp.external import ExternalSink
from repro.obs import spans as ob
from repro.obs.spans import Span
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.network import FixedLatency, LatencyModel, Network
from repro.sim.scheduler import Scheduler
from repro.sim.stats import Stats
from repro.workloads.generators import ChainSpec, _request_fails


@dataclass
class PipeliningResult:
    """Outcome of an unsafe pipelined run of a chain workload."""

    completion_time: float          # client's last send (it never waits)
    settled_time: float             # when all servers finished + errors landed
    outputs: List[Any]              # what physically reached the display
    async_errors: List[Tuple[float, str]]   # (arrival time, failed request)
    unsafe_outputs: int             # outputs a sequential run would not show
    stats: Stats
    trace: List[Any] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)


def run_pipelined_chain(
    spec: ChainSpec,
    latency_model: Optional[LatencyModel] = None,
    tracer: Optional[Tracer] = None,
) -> PipeliningResult:
    """Run ``spec``'s chain with asynchronous sends and no rollback.

    Each request that succeeds makes the server push an output line to the
    display; each failure sends an asynchronous error notification back to
    the client.  With ``spec.stop_on_failure`` semantics, every output for
    a request *after* the first failed one is unsafe.
    """
    latency_model = latency_model or FixedLatency(spec.latency)
    tracer = tracer if tracer is not None else NULL_TRACER
    scheduler = Scheduler(tracer=tracer)
    stats = Stats()
    network = Network(scheduler, latency_model, stats=stats)
    display = ExternalSink("display")
    network.register("display", display.handler(scheduler))

    errors: List[Tuple[float, str]] = []

    def on_client_message(src: str, payload: Any) -> None:
        if tracer.enabled:
            tracer.event(ob.CONTROL, "client", scheduler.now,
                         name=str(payload), src=src, direction="received")
        errors.append((scheduler.now, payload))

    network.register("client", on_client_message)

    server_busy: Dict[str, float] = {}

    def make_server(name: str):
        def on_message(src: str, payload: Any) -> None:
            op, args = payload
            start = max(scheduler.now, server_busy.get(name, 0.0))
            done = start + spec.service_time
            server_busy[name] = done
            key = f"{op}:{tuple(args)!r}"
            failed = _request_fails(spec.seed, name, key, spec.p_fail)
            span = -1
            if tracer.enabled:
                span = tracer.start_span(
                    ob.SERVICE, name, start, name=f"{op}:{args[0]}",
                    client=src, failed=failed, mechanism="pipelining",
                )

            def finish() -> None:
                if tracer.enabled:
                    tracer.end_span(span, scheduler.now)
                if failed:
                    network.send(name, "client", f"error:{args[0]}")
                else:
                    if tracer.enabled:
                        tracer.event(ob.EMIT, name, scheduler.now,
                                     name="display")
                    network.send(name, "display", f"done:{args[0]}")

            scheduler.at(done, finish, label=f"{name} service")

        return on_message

    for name in spec.server_names():
        network.register(name, make_server(name))

    calls = spec.calls()
    send_gap = spec.compute_between

    def do_send(dst: str, op: str, args: Tuple) -> None:
        if tracer.enabled:
            tracer.event(ob.SEND, "client", scheduler.now,
                         name=f"send:{op}", dst=dst)
        network.send("client", dst, (op, args))

    def send_all() -> None:
        t = 0.0
        for dst, op, args in calls:
            scheduler.at(
                t,
                lambda dst=dst, op=op, args=args: do_send(dst, op, args),
                label="client send",
            )
            t += send_gap
        nonlocal_makespan[0] = t

    nonlocal_makespan = [0.0]
    send_all()
    scheduler.run()

    # Which requests failed, and which outputs were unsafe?  Sequential
    # stop-on-failure semantics: everything after the first failure is
    # work that should never have happened.
    first_failure: Optional[int] = None
    for i, (dst, op, args) in enumerate(calls):
        key = f"{op}:{tuple(args)!r}"
        if _request_fails(spec.seed, dst, key, spec.p_fail):
            first_failure = i
            break
    unsafe = 0
    if spec.stop_on_failure and first_failure is not None:
        allowed = {f"done:req{i}" for i in range(first_failure)}
        unsafe = sum(1 for out in display.delivered if out not in allowed)

    tracer.close_open(scheduler.now)
    return PipeliningResult(
        completion_time=nonlocal_makespan[0],
        settled_time=scheduler.now,
        outputs=list(display.delivered),
        async_errors=errors,
        unsafe_outputs=unsafe,
        stats=stats,
        spans=tracer.spans(),
    )
