"""The five workloads of the end-to-end host-speed benchmark.

A workload is a ladder of input sizes; the second rung is the main one.
One *round* of a rung runs every seeded instance of that rung once; the
metrics are taken over whole rounds, so they are the same function of the
code's speed however many rounds fit the budget.  The workloads whose cost
depends on the seed (duplex, lossy chain, mix: 20-30% from one seed to the
next) run many small seeded instances per round so that the round's cost
does not: the seed-to-seed spread of a round falls with the square root of
the instance count.  The lossy chain has no rung above the main one: a
60-call lossy run varies by a third from seed to seed, and the few of them
a pass can afford made the fitted exponent the noisiest metric.

The program under test receives only generated inputs: ``--seed`` reaches
``ChainSpec.seed``, ``DuplexSpec.seed`` and ``FaultPlan.seed`` and nothing
else, and no workload name crosses into ``src/``.

Every instance checks its own output (phase ``check``, never timed):
``trace.equivalence.assert_equivalent`` against the sequential run of the
same spec, ``core.invariants.validate_run``, ``unresolved == []`` and
equality of the clients' final states.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from layers import EVENTS
from repro.core import OptimisticSystem, stream_plan
from repro.core.config import OptimisticConfig, ResilienceConfig
from repro.core.invariants import validate_run
from repro.csp.sequential import SequentialSystem
from repro.obs import (RecordingTracer, build_provenance, chrome_trace_json,
                       critical_path, prometheus_text, validate_spans,
                       wasted_work)
from repro.sim.faults import FaultPlan, LinkFaults
from repro.sim.network import FixedLatency
from repro.trace.equivalence import assert_equivalent
from repro.trace.events import SEND
from repro.workloads.generators import (ChainSpec, chain_workload,
                                        run_chain_sequential)
from repro.workloads.random_duplex import DuplexSpec, build_duplex_system
from repro.workloads.scenarios import (fig6_programs, run_fig3_streaming,
                                       run_fig4_time_fault,
                                       run_fig5_value_fault,
                                       run_fig6_two_threads, run_fig7_cycle)

class CheckFailed(Exception):
    """An instance's committed output differs from the sequential run's."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Summary:
    """What one checked run contributes to the metrics."""

    events: int
    counters: Dict[str, int]
    sequential_time: float       # simulated completion, sequential run
    optimistic_time: float       # simulated completion, committed
    digest: str                  # committed trace + sorted counters
    spans: int = 0               # obs spans recorded (traced instances)


def _digest(results: Sequence[Any]) -> str:
    """sha256 of each run's committed trace and sorted counters.

    Guard sets are left out: they are empty once committed, and a
    frozenset's repr depends on the process's hash seed.
    """
    sha = hashlib.sha256()
    for result in results:
        trace = result.trace
        for start in range(0, len(trace), 1024):    # bounds the check's memory
            sha.update(repr([
                (ev.kind, ev.src, ev.dst, ev.payload, ev.time, ev.seq,
                 ev.porder) for ev in trace[start:start + 1024]]).encode())
        sha.update(repr(sorted(result.stats.counters.items())).encode())
    return sha.hexdigest()


def _summarize(optimistic: Sequence[Any], sequential_time: float,
               optimistic_time: float) -> Summary:
    counters: Counter = Counter()
    for result in optimistic:
        counters.update(result.stats.counters)
    return Summary(
        events=counters[EVENTS],
        counters=counters,
        sequential_time=sequential_time,
        optimistic_time=optimistic_time,
        digest=_digest(optimistic),
        spans=sum(len(result.spans) for result in optimistic),
    )


def _check_against(reference: Any, system: OptimisticSystem, result: Any,
                   clients: Sequence[str],
                   free_interleaving: Tuple[str, ...] = ()) -> None:
    assert_equivalent(result.trace, reference.trace,
                      free_interleaving=free_interleaving)
    validate_run(system)
    _require(result.unresolved == [], f"unresolved: {result.unresolved}")
    for name in clients:
        _require(result.final_states[name] == reference.final_states[name],
                 f"final state of {name} differs from the sequential run")


class Instance:
    """One generated input: build it, run it, check what it committed."""

    ops: int

    def build(self) -> Any:
        raise NotImplementedError

    def run(self, built: Any) -> Any:
        return built.run()

    def analyze(self, outcome: Any) -> None:
        """Post-run observability work; only the traced mix does any."""

    def check(self, built: Any, outcome: Any) -> Summary:
        raise NotImplementedError


class ChainInstance(Instance):
    """A streamed call chain, optionally over a lossy network."""

    def __init__(self, spec: ChainSpec, *, lossy: bool = False,
                 traced: bool = False) -> None:
        self.spec = spec
        self.ops = spec.n_calls
        self.lossy = lossy
        self.traced = traced

    def build(self) -> OptimisticSystem:
        spec = self.spec
        config = faults = None
        if self.lossy:
            link = LinkFaults(drop_p=0.08, dup_p=0.08, reorder_p=0.15)
            config = OptimisticConfig(resilience=ResilienceConfig())
            faults = FaultPlan(seed=spec.seed, data=link, control=link)
        client, servers = chain_workload(spec)
        system = OptimisticSystem(
            FixedLatency(spec.latency), config=config, faults=faults,
            tracer=RecordingTracer() if self.traced else None)
        system.add_program(client, stream_plan(client))
        for server in servers:
            system.add_program(server)
        return system

    @functools.cached_property
    def reference(self) -> Any:
        return run_chain_sequential(self.spec)

    def check(self, built: OptimisticSystem, outcome: Any) -> Summary:
        reference = self.reference
        _check_against(reference, built, outcome, ("client",))
        return _summarize([outcome], reference.completion_time,
                          outcome.completion_time)


class DuplexInstance(Instance):
    """Two mutually speculative processes whose guesses mostly abort."""

    def __init__(self, spec: DuplexSpec, *, traced: bool = False) -> None:
        self.spec = spec
        self.ops = 2 * spec.n_steps
        self.traced = traced

    def build(self) -> OptimisticSystem:
        return build_duplex_system(
            self.spec, optimistic=True,
            tracer=RecordingTracer() if self.traced else None)

    @functools.cached_property
    def reference(self) -> Any:
        return build_duplex_system(self.spec, optimistic=False).run()

    def check(self, built: OptimisticSystem, outcome: Any) -> Summary:
        reference = self.reference
        # A and B are independent clients of the shared servers: which
        # request a server takes first is CSP nondeterministic choice.
        _check_against(reference, built, outcome, ("A", "B"),
                       free_interleaving=tuple(self.spec.server_names()))
        return _summarize([outcome], reference.completion_time,
                          outcome.completion_time)


class SequentialInstance(Instance):
    """The blocking interpreter alone: no protocol core at all."""

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        self.ops = spec.n_calls

    def build(self) -> SequentialSystem:
        client, servers = chain_workload(self.spec)
        system = SequentialSystem(FixedLatency(self.spec.latency))
        system.add_program(client)
        for server in servers:
            system.add_program(server)
        return system

    def check(self, built: SequentialSystem, outcome: Any) -> Summary:
        spec = self.spec
        calls = [ev.payload for ev in outcome.trace
                 if ev.kind == SEND and ev.src == "client"]
        _require(len(calls) == spec.n_calls,
                 f"{len(calls)} calls committed, {spec.n_calls} issued")
        served = sum(len(state.get("served", ()))
                     for name, state in outcome.final_states.items()
                     if name != "client")
        _require(served == spec.n_calls, f"servers saw {served} requests")
        round_trip = 2 * spec.latency + spec.service_time
        _require(outcome.completion_time == spec.n_calls * round_trip,
                 f"completion time {outcome.completion_time}")
        counters = dict(outcome.stats.counters)
        counters.update(built.scheduler.kernel_counters())
        return Summary(
            events=counters[EVENTS], counters=counters,
            sequential_time=outcome.completion_time,
            optimistic_time=outcome.completion_time,
            digest=_digest([outcome]))


@dataclass
class _MixOutcome:
    figures: List[Any] = field(default_factory=list)   # fig3, fig4, fig5
    fig6: Any = None
    fig7: Any = None
    chain: Any = None
    duplex: Any = None

    def optimistic(self) -> List[Any]:
        return ([fig.optimistic for fig in self.figures]
                + [self.fig6, self.fig7, self.chain, self.duplex])


class MixInstance(Instance):
    """The small traced scenarios the tests, figures and CLI actually run."""

    ops = 7     # scenarios per iteration

    def __init__(self, size: int, seed: int) -> None:
        self.chain = ChainInstance(
            ChainSpec(n_calls=size, p_fail=0.1, seed=seed), traced=True)
        self.duplex = DuplexInstance(
            DuplexSpec(n_steps=size // 2, seed=seed), traced=True)

    def build(self) -> Tuple[OptimisticSystem, OptimisticSystem]:
        return self.chain.build(), self.duplex.build()

    def run(self, built: Tuple[OptimisticSystem, OptimisticSystem]) -> Any:
        chain_system, duplex_system = built
        return _MixOutcome(
            figures=[run_fig3_streaming(tracer=RecordingTracer()),
                     run_fig4_time_fault(tracer=RecordingTracer()),
                     run_fig5_value_fault(tracer=RecordingTracer())],
            fig6=run_fig6_two_threads(tracer=RecordingTracer()),
            fig7=run_fig7_cycle(tracer=RecordingTracer()),
            chain=chain_system.run(),
            duplex=duplex_system.run(),
        )

    def analyze(self, outcome: _MixOutcome) -> None:
        for result in outcome.optimistic():
            wasted_work(result)
            critical_path(result)
            build_provenance(result)
            validate_spans(result.spans)
            chrome_trace_json(result.spans)
            prometheus_text(result.metrics)

    @functools.cached_property
    def _fig6_sequential(self) -> Any:
        system = SequentialSystem(FixedLatency(3.0))
        for program, _plan in fig6_programs().values():
            system.add_program(program)
        return system.run()

    def check(self, built: Tuple[OptimisticSystem, OptimisticSystem],
              outcome: _MixOutcome) -> Summary:
        chain_system, duplex_system = built
        # The figure helpers assemble their systems inside, so the figures
        # get every check but validate_run (tests/ pins them byte for byte).
        pairs = [(fig.optimistic, fig.sequential) for fig in outcome.figures]
        pairs.append((outcome.fig6, self._fig6_sequential))
        for optimistic, sequential in pairs:
            assert_equivalent(optimistic.trace, sequential.trace)
            _require(optimistic.unresolved == [], "figure left unresolved")
            _require(optimistic.final_states["X"]
                     == sequential.final_states["X"],
                     "figure client state differs from the sequential run")
        # Fig. 7's sequential program deadlocks; so must the optimistic run.
        _require(set(outcome.fig7.unresolved) == {"X", "Z"}
                 and outcome.fig7.completion_times == {},
                 "fig7 committed where the sequential program deadlocks")
        chain = self.chain.check(chain_system, outcome.chain)
        duplex = self.duplex.check(duplex_system, outcome.duplex)
        return _summarize(
            outcome.optimistic(),
            sum(seq.completion_time for _opt, seq in pairs)
            + chain.sequential_time + duplex.sequential_time,
            sum(opt.completion_time for opt, _seq in pairs)
            + chain.optimistic_time + duplex.optimistic_time)


def _chain(n_calls: int, seed: int) -> ChainSpec:
    return ChainSpec(n_calls=n_calls, n_servers=4, latency=5.0,
                     service_time=1.0, p_fail=0.0, seed=seed)


@dataclass(frozen=True)
class Rung:
    size: int
    per_round: int      # seeded instances run once each per round
    share: float        # of the wall budget


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, int], Instance]     # (size, seed) -> instance
    rungs: Tuple[Rung, ...]                  # the ladder; rungs[MAIN] is main

    def instances(self, rung: Rung, seed: int) -> List[Instance]:
        return [self.make(rung.size, seed * 1000 + i)
                for i in range(rung.per_round)]

    def smoke(self) -> "Workload":
        """Two rungs, one notch smaller, two instances a round."""
        low = self.rungs[0]
        per_round = min(2, low.per_round)
        return Workload(self.name, self.why, self.make, (
            Rung(max(2, low.size // 2), per_round, 0.3),
            Rung(low.size, per_round, 0.7)))


MAIN = 1    # index of the main rung


def _ladder(sizes, per_round, shares) -> Tuple[Rung, ...]:
    return tuple(Rung(*row) for row in zip(sizes, per_round, shares))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "chain_commit",
        "call streaming with every guess committing in order: core.history "
        "and core.runtime do ~90% of the work, so a commit-path fix must "
        "show here",
        lambda n, seed: ChainInstance(_chain(n, seed)),
        _ladder((50, 100, 140), (1, 1, 1), (0.1, 0.55, 0.35))),
    Workload(
        "duplex_abort",
        "the same protocol core with ~90% of forks aborting: PRECEDENCE, "
        "CDG, rollback and snapshot restores; an index that makes aborts "
        "dearer shows here and not in chain_commit",
        lambda n, seed: DuplexInstance(DuplexSpec(
            n_steps=n, n_signals=n // 4, n_servers=2, wrong_guess_bias=3,
            seed=seed)),
        _ladder((10, 20, 40), (64, 72, 8), (0.1, 0.55, 0.35))),
    Workload(
        "chain_lossy",
        "a 4-server chain over links that drop 8%, duplicate 8% and reorder "
        "15% of frames: core.transport, sim.faults, sim.wheel and core.cdg "
        "do measurable work",
        lambda n, seed: ChainInstance(_chain(n, seed), lossy=True),
        _ladder((15, 30), (128, 96), (0.2, 0.8))),
    Workload(
        "chain_sequential",
        "bypass and single-node baseline: the blocking interpreter with no "
        "protocol core, so csp, sim and trace are the whole cost; a "
        "protocol-core change predicts no move here",
        lambda n, seed: SequentialInstance(_chain(n, seed)),
        _ladder((2500, 5000, 10000), (1, 1, 1), (0.15, 0.6, 0.25))),
    Workload(
        "small_traced_mix",
        "what the repo serves day to day: fig3-fig7, a short faulty chain "
        "and a short duplex, each traced and then analysed; assembly, csp, "
        "snapshots and obs are visible before the cubic term kicks in",
        MixInstance,
        _ladder((8, 16, 32), (64, 64, 24), (0.1, 0.6, 0.3))),
)}
