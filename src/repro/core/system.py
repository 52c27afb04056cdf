"""Whole-system assembly for optimistic runs.

Mirrors :class:`~repro.csp.sequential.SequentialSystem` so benchmarks can
run the same programs under both interpreters and compare completion times
and traces.  Control messages are broadcast to every *participating*
process (never to external sinks), per §4.2.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ProgramError
from repro.core.config import OptimisticConfig
from repro.core.governor import SpeculationGovernor
from repro.core.messages import DataEnvelope, control_size
from repro.core.runtime import ProcessRuntime
from repro.core.transport import ReliableTransport
from repro.csp.external import ExternalSink
from repro.csp.plan import ParallelizationPlan
from repro.csp.process import Program
from repro.exec.api import ExecutorBackend
from repro.exec.virtual import VirtualTimeBackend
from repro.obs.metrics import MetricsRegistry, RuntimeMetrics
from repro.obs.spans import Span
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.faults import FaultPlan, FaultyNetwork
from repro.sim.network import FixedLatency, LatencyModel, Network
from repro.sim.stats import Stats
from repro.trace.recorder import TraceRecorder


@dataclass
class OptimisticResult:
    """Outcome of an optimistic run."""

    makespan: float                      # committed completion of the slowest client
    tentative_makespan: float            # when results existed but were unguarded yet
    completion_times: Dict[str, float]   # committed completion per finished process
    final_states: Dict[str, Dict[str, Any]]
    trace: list
    stats: Stats
    sinks: Dict[str, ExternalSink]
    protocol_log: List[dict]
    unresolved: List[str]                # processes that never fully committed
    spans: List[Span] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = None
    #: structured SegmentFailure records from the executor backend: pool
    #: tasks whose real labor could not be earned (empty on virtual
    #: backends and on healthy pools).  Informational by construction —
    #: labor is effect-free, so these never affect committed output.
    exec_failures: List[Any] = field(default_factory=list)

    @property
    def completion_time(self) -> float:
        """Uniform RunResult surface (same as ``makespan``)."""
        return self.makespan

    def sink_output(self, name: str) -> List[Any]:
        """What physically reached the named external sink, in order."""
        return list(self.sinks[name].delivered)

    def events(self, kind: Optional[str] = None,
               process: Optional[str] = None) -> List[dict]:
        """Filter the protocol log (used by the figure tests)."""
        out = self.protocol_log
        if kind is not None:
            out = [e for e in out if e["kind"] == kind]
        if process is not None:
            out = [e for e in out if e["process"] == process]
        return list(out)

    def count(self, kind: str, process: Optional[str] = None) -> int:
        """How many protocol events of this kind (for this process)."""
        return len(self.events(kind, process))

    def summary(self):
        """Speculation anatomy of this traced run (see repro.core.analysis)."""
        from repro.core.analysis import summarize

        if not self.spans:
            raise ValueError("summary() needs spans: run the system with "
                             "tracer=RecordingTracer()")
        return summarize(self)

    def timeline(self, processes=None, protocol_kinds=None,
                 title: str = "") -> str:
        """Render this run as a paper-style time-line diagram."""
        from repro.trace.diagram import render_timeline

        return render_timeline(self.trace, self.protocol_log,
                               processes=processes,
                               protocol_kinds=protocol_kinds, title=title)


class OptimisticSystem:
    """Assembles optimistic process runtimes over the shared substrate."""

    def __init__(
        self,
        latency_model: Optional[LatencyModel] = None,
        *,
        config: Optional[OptimisticConfig] = None,
        fifo_links: bool = True,
        bandwidth: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultPlan] = None,
        strict_plans: bool = False,
        backend: Optional[ExecutorBackend] = None,
        access: Optional[Any] = None,
    ) -> None:
        #: refuse statically-certain faults (see repro.analyze):
        #: each add_program gets the program-local rules, start() gets the
        #: whole-system sweep (reentry, cycles, emit targets)
        self.strict_plans = strict_plans
        self.config = config or OptimisticConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: opt-in access-set recorder (:class:`repro.obs.access.AccessTracker`);
        #: ``None`` keeps plain (unobserved) thread states — zero overhead
        self.access = access
        #: the execution substrate (see docs/BACKENDS.md): the virtual-time
        #: oracle by default, OS threads or a process pool when the caller
        #: wants real parallelism.  The backend owns the scheduler; the
        #: raw handle stays exposed for the (virtual-time-only) network,
        #: transport, and sink layers.
        self.backend = backend if backend is not None else VirtualTimeBackend()
        self.scheduler = self.backend.bind(max_steps=self.config.max_steps,
                                           tracer=self.tracer)
        # Substrate failures surface into the run (protocol log + per-
        # process metrics) as abort-and-fallback, never a crash — see
        # repro.exec.watchdog.
        self.backend.on_segment_failure = self._on_segment_failure
        self.backend.on_fallback = self._on_exec_fallback
        self.stats = Stats()
        self.metrics = MetricsRegistry(self.stats)
        self.runtime_metrics = RuntimeMetrics(self.metrics)
        self.faults = faults
        net_kwargs = dict(
            stats=self.stats, fifo_links=fifo_links, bandwidth=bandwidth,
        )
        if faults is not None:
            self.network: Network = FaultyNetwork(
                self.scheduler, latency_model or FixedLatency(1.0),
                plan=faults, **net_kwargs,
            )
        else:
            self.network = Network(
                self.scheduler, latency_model or FixedLatency(1.0),
                **net_kwargs,
            )
        #: reliable ack/retransmit framing over participant channels; None
        #: when resilience is off (the default — byte-identical wire format)
        self.transport: Optional[ReliableTransport] = None
        if self.config.resilience is not None:
            self.transport = ReliableTransport(
                self.network, self.scheduler, self.config.resilience,
                self.runtime_metrics, is_down=self._process_down,
            )
        #: adaptive speculation throttle; None when disabled
        self.governor: Optional[SpeculationGovernor] = None
        if self.config.governor is not None:
            self.governor = SpeculationGovernor(
                self.config.governor, self.runtime_metrics
            )
        self.recorder = TraceRecorder()
        self.runtimes: Dict[str, ProcessRuntime] = {}
        self.sinks: Dict[str, ExternalSink] = {}
        self.protocol_log: List[dict] = []
        self._started = False

    def _process_down(self, name: str) -> bool:
        rt = self.runtimes.get(name)
        return rt is not None and rt.recovery.crashed

    # ------------------------------------------------------------- assembly

    def add_program(
        self,
        program: Program,
        plan: Optional[ParallelizationPlan] = None,
    ) -> ProcessRuntime:
        """Register a program (optionally with a parallelization plan)."""
        if program.name in self.runtimes or program.name in self.sinks:
            raise ProgramError(f"duplicate process name {program.name!r}")
        if self.strict_plans:
            self._lint_strict([(program, plan)], target=program.name)
        if self.access is not None:
            self.access.seed_program(program)
        runtime = ProcessRuntime(self, program, plan, self.config)
        self.runtimes[program.name] = runtime
        handler = runtime.on_network
        if self.transport is not None:
            self.transport.add_participant(program.name)
            handler = self.transport.receiver(program.name, handler)
        self.network.register(program.name, handler)
        return runtime

    def add_sink(self, name: str) -> ExternalSink:
        """Register an external, unrecoverable sink endpoint."""
        if name in self.runtimes or name in self.sinks:
            raise ProgramError(f"duplicate process name {name!r}")
        sink = ExternalSink(name)
        self.sinks[name] = sink
        self.network.register(name, sink.handler(self.scheduler))
        if isinstance(self.network, FaultyNetwork):
            # Output commit (§3.2): traffic to a sink is only ever sent once
            # released, so the fault layer must not drop or duplicate it.
            self.network.protect(name)
        return sink

    # ----------------------------------------------------------- transport

    def send_data(self, envelope: DataEnvelope) -> None:
        """Put a guard-tagged data envelope on the wire."""
        if self.transport is not None:
            self.transport.send(envelope.src, envelope.dst, envelope,
                                size=envelope.wire_size())
            return
        self.network.send(
            envelope.src, envelope.dst, envelope, size=envelope.wire_size()
        )

    def broadcast_control(self, src: str, msg: Any) -> None:
        """Broadcast a control message to every other participating process."""
        for name in sorted(self.runtimes):
            if name == src:
                continue
            self.send_control(src, name, msg)

    def send_control(self, src: str, dst: str, msg: Any) -> None:
        """Targeted control delivery (§4.2.5's explicit-send alternative)."""
        if dst not in self.runtimes:
            return  # sinks and departed endpoints don't take control traffic
        if self.transport is not None:
            self.transport.send(src, dst, msg, control=True,
                                size=control_size(msg))
            return
        self.network.send(src, dst, msg, control=True, size=control_size(msg))

    def log_protocol_event(self, process: str, kind: str,
                           detail: Dict[str, Any]) -> None:
        """Append one entry to the run's protocol log."""
        entry = {"time": self.scheduler.now, "process": process, "kind": kind}
        entry.update(detail)
        self.protocol_log.append(entry)

    def _on_segment_failure(self, failure) -> None:
        """Backend hook: one pool task's labor could not be earned.

        Routed to the owning runtime when the task label names one (so the
        failure lands in that process's protocol events and metrics),
        logged under the synthetic ``"exec"`` process otherwise.
        """
        runtime = self.runtimes.get(failure.process)
        if runtime is not None:
            runtime.recovery.on_exec_failure(failure)
        else:
            self.log_protocol_event("exec", "exec_failure",
                                    failure.to_dict())

    def _on_exec_fallback(self, backend, reason: str) -> None:
        """Backend hook: the pool demoted itself to virtual passthrough."""
        self.log_protocol_event("exec", "exec_fallback", {"reason": reason})

    # ------------------------------------------------------------------ run

    def _lint_strict(self, entries, target: str) -> None:
        """Run the static analyzer; raise on any error-severity finding.

        Called per program at :meth:`add_program` (program-local rules:
        determinism, plan consistency, certain value faults) and once more
        at :meth:`start` over the assembled system, where the cross-process
        rules (service-set reentry, speculation cycles, emit targets) have
        every participant in view.
        """
        from repro.analyze.graph import SystemModel
        from repro.analyze.report import Severity
        from repro.analyze.rules import run_rules

        model = SystemModel.build(entries, sinks=sorted(self.sinks))
        report = run_rules(model, target=target)
        errors = report.at_least(Severity.ERROR)
        if errors:
            detail = "; ".join(
                f"{f.rule} {f.where()}: {f.message}" for f in errors
            )
            raise ProgramError(
                f"strict_plans rejected {target!r}: {len(errors)} static "
                f"error(s): {detail}"
            )

    def start(self) -> None:
        """Launch every process (idempotent; ``run`` calls it for you)."""
        if self._started:
            return
        if self.strict_plans:
            self._lint_strict(
                [(rt.program, rt.plan) for rt in self.runtimes.values()],
                target="system",
            )
        self._started = True
        for runtime in self.runtimes.values():
            runtime.start()
        if self.faults is not None:
            for spec in self.faults.crashes:
                if spec.process not in self.runtimes:
                    raise ProgramError(
                        f"crash schedule names unknown process "
                        f"{spec.process!r}"
                    )
                self.scheduler.at(
                    spec.at,
                    lambda name=spec.process: self._crash(name),
                    label=f"crash {spec.process}",
                )
                self.scheduler.at(
                    spec.at + spec.restart_after,
                    lambda name=spec.process: self._restart(name),
                    label=f"restart {spec.process}",
                )

    def _crash(self, name: str) -> None:
        """Take ``name`` down: freeze its runtime, drop its wire traffic."""
        self.runtimes[name].recovery.crash()
        if isinstance(self.network, FaultyNetwork):
            self.network.mark_down(name)
        if self.transport is not None:
            self.transport.on_crash(name)

    def _restart(self, name: str) -> None:
        """Bring ``name`` back: reopen its wire, then run crash recovery."""
        if isinstance(self.network, FaultyNetwork):
            self.network.mark_up(name)
        self.runtimes[name].recovery.restart()

    def run(self, until: Optional[float] = None) -> OptimisticResult:
        """Run to quiescence (or ``until``) and collect the results."""
        self.start()
        self.backend.run(until=until)
        # settle outstanding real tasks (cancelled speculation still holds
        # workers until its token wakes them) and, at quiescence, release
        # the pool — a finished run leaks neither tasks nor threads
        self.backend.drain()
        self.tracer.close_open(self.scheduler.now)
        # kernel-health counters are pull-based (zero cost on the hot
        # path); harvest them into the run's stats once, at quiescence
        for key, value in self.scheduler.kernel_counters().items():
            self.stats.counters[key] = value
        for key, value in self.backend.counters().items():
            self.stats.counters[key] = value

        completion: Dict[str, float] = {}
        tentative: Dict[str, float] = {}
        unresolved: List[str] = []
        final_states: Dict[str, Dict[str, Any]] = {}
        for name, rt in self.runtimes.items():
            if rt.committed_completion is not None:
                completion[name] = rt.committed_completion
            if rt.tentative_completion is not None:
                tentative[name] = rt.tentative_completion
            if (
                rt.tentative_completion is not None
                and rt.committed_completion is None
            ):
                unresolved.append(name)
            state = rt.final_state()
            if state is not None:
                final_states[name] = state
        makespan = max(completion.values()) if completion else self.scheduler.now
        tentative_makespan = (
            max(tentative.values()) if tentative else self.scheduler.now
        )
        return OptimisticResult(
            makespan=makespan,
            tentative_makespan=tentative_makespan,
            completion_times=completion,
            final_states=final_states,
            trace=self.recorder.committed(),
            stats=self.stats,
            sinks=self.sinks,
            protocol_log=self.protocol_log,
            unresolved=unresolved,
            spans=self.tracer.spans(),
            metrics=self.metrics,
            exec_failures=list(self.backend.task_errors),
        )
