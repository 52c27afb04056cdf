"""Seeded fault injection for the network and execution substrates.

The paper's protocol assumes reliable, FIFO, fail-free channels (§4.2.5).
This module is the adversary that revokes the assumption: a
:class:`FaultyNetwork` decorates :class:`~repro.sim.network.Network` and —
driven by a declarative, seeded :class:`FaultPlan` — drops, duplicates,
reorders and delays messages, separately tunable for the data and control
planes, and takes whole processes down for scheduled crash windows.

The *exec* fault plane extends the same discipline to the worker pools
behind the pool backends (:mod:`repro.exec.pool`): an
:class:`ExecFaultPlan` describes per-task worker deaths, hangs, poisoned
payloads and lost results (:class:`TaskFaults`) plus scheduled mid-flight
worker kills (:class:`WorkerKillSpec`).  The plan is pure data — the
injection and the recovery machinery live in :mod:`repro.exec.faults` and
:mod:`repro.exec.watchdog` — and, because payloads are effect-free by
construction, none of these faults can ever change committed output.

Every decision is drawn from a named stream of the plan's own
:class:`~repro.sim.rng.RngRegistry`, so a fault schedule is a pure function
of ``(seed, message sequence)``: the same run under the same plan sees the
same faults, which is what lets the chaos harness pin its results.

External sinks are exempt: an :class:`~repro.csp.external.ExternalSink`
models the outside world *after* output commit (§3.2) — a released emission
is already irrevocable, so the fault model targets the links the protocol
is responsible for, not the terminal in front of the user.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.stats import Stats


@dataclass
class LinkFaults:
    """Per-message fault probabilities for one plane (data or control)."""

    #: Probability a message is silently dropped.
    drop_p: float = 0.0
    #: Probability a message is delivered twice (second copy re-jittered).
    dup_p: float = 0.0
    #: Probability a message bypasses the per-link FIFO clamp and gets an
    #: extra uniform(0, reorder_spread) delay — a non-FIFO burst.
    reorder_p: float = 0.0
    #: Spread of the reordering delay.
    reorder_spread: float = 10.0
    #: Probability of a latency spike of ``spike_delay``.
    spike_p: float = 0.0
    #: Extra delay added on a spike.
    spike_delay: float = 50.0

    def validate(self) -> None:
        for name in ("drop_p", "dup_p", "reorder_p", "spike_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise NetworkError(f"LinkFaults.{name}={p!r} not in [0, 1]")
        if self.reorder_spread < 0 or self.spike_delay < 0:
            raise NetworkError("fault delays must be non-negative")

    @property
    def active(self) -> bool:
        return any((self.drop_p, self.dup_p, self.reorder_p, self.spike_p))


@dataclass
class CrashSpec:
    """One scheduled crash/restart of a process.

    While down, the process receives nothing (in-flight deliveries are
    dropped on arrival) and sends nothing (its threads are frozen).  On
    restart it loses uncommitted speculative state — its own pending
    guesses abort — and rebuilds volatile thread state by full-journal
    replay from the snapshot layer; committed state survives.
    """

    process: str
    at: float                    # virtual time of the crash
    restart_after: float = 50.0  # downtime before the restart

    def validate(self) -> None:
        if self.at < 0 or self.restart_after <= 0:
            raise NetworkError(
                f"crash of {self.process!r} needs at >= 0 and "
                f"restart_after > 0"
            )


@dataclass
class FaultPlan:
    """A complete, seeded fault schedule for one run.

    ``window`` optionally restricts message faults to a virtual-time
    interval ``(start, end)``; crashes fire at their own times regardless.
    """

    seed: int = 0
    data: LinkFaults = field(default_factory=LinkFaults)
    control: LinkFaults = field(default_factory=LinkFaults)
    crashes: List[CrashSpec] = field(default_factory=list)
    window: Optional[Tuple[float, float]] = None

    def validate(self) -> None:
        self.data.validate()
        self.control.validate()
        for crash in self.crashes:
            crash.validate()

    def in_window(self, now: float) -> bool:
        if self.window is None:
            return True
        start, end = self.window
        return start <= now < end


@dataclass
class TaskFaults:
    """Per-task fault probabilities for pool-submitted segment labor.

    Each probability is drawn once per submitted task (from the plan's
    ``"exec.tasks"`` stream, in submission order — which is deterministic
    because submissions happen on the driver in virtual-event order).  The
    classes are checked in the order listed here; at most one fault is
    injected per task.
    """

    #: Probability the worker running the task dies before delivering
    #: (transient: a retry on a fresh worker succeeds).
    kill_p: float = 0.0
    #: Probability the payload hangs: it blocks on the raw clock for
    #: ``hang_extra`` real seconds, ignoring its cancel token — the case
    #: only a watchdog deadline can detect.
    hang_p: float = 0.0
    #: Real seconds a hung payload stays stuck.
    hang_extra: float = 0.25
    #: Probability the payload is poisoned: it raises deterministically on
    #: every attempt (retries fail too; only quarantine helps).
    poison_p: float = 0.0
    #: Probability the labor completes but its result is lost in transit
    #: (transient: a retry re-earns it).
    lose_result_p: float = 0.0

    def validate(self) -> None:
        for name in ("kill_p", "hang_p", "poison_p", "lose_result_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise NetworkError(f"TaskFaults.{name}={p!r} not in [0, 1]")
        if self.hang_extra < 0:
            raise NetworkError("TaskFaults.hang_extra must be non-negative")

    @property
    def active(self) -> bool:
        return any((self.kill_p, self.hang_p, self.poison_p,
                    self.lose_result_p))


@dataclass
class WorkerKillSpec:
    """One scheduled worker kill at a virtual time, mid-flight.

    When the kill event fires, up to ``kills`` in-flight tasks (oldest
    first, by submission order) lose their worker: their labor is
    discarded and the recovery layer must re-earn it on a fresh worker.
    If fewer tasks are in flight, the remainder is banked and applied to
    the next submissions, so a kill never silently misses.
    """

    at: float        # virtual time of the kill
    kills: int = 1   # how many in-flight tasks lose their worker

    def validate(self) -> None:
        if self.at < 0 or self.kills < 1:
            raise NetworkError(
                f"WorkerKillSpec needs at >= 0 and kills >= 1 "
                f"(got at={self.at!r}, kills={self.kills!r})"
            )


@dataclass
class ExecFaultPlan:
    """A complete, seeded exec-fault schedule for one run.

    The substrate counterpart of :class:`FaultPlan`: same declarative
    shape, same seeded-stream determinism, but aimed at the worker pools
    instead of the wire.  ``window`` optionally restricts the per-task
    faults to a virtual-time interval; scheduled kills fire at their own
    times regardless (mirroring how crashes relate to message faults).
    """

    seed: int = 0
    tasks: TaskFaults = field(default_factory=TaskFaults)
    kills: List[WorkerKillSpec] = field(default_factory=list)
    window: Optional[Tuple[float, float]] = None

    def validate(self) -> None:
        self.tasks.validate()
        for kill in self.kills:
            kill.validate()

    def in_window(self, now: float) -> bool:
        if self.window is None:
            return True
        start, end = self.window
        return start <= now < end

    @property
    def active(self) -> bool:
        return self.tasks.active or bool(self.kills)


class FaultyNetwork(Network):
    """A :class:`Network` that executes a :class:`FaultPlan`.

    Faults apply only between *participating* endpoints (``protect`` a name
    to exempt it — the system exempts external sinks) and only while no
    endpoint of the link is down.  Messages to or from a down process are
    dropped at the wire, which is what makes a crash lossy for in-flight
    traffic.  The plan is resolved once per plane at construction and must
    not be mutated afterwards.  A faulted message draws, in this order:
    drop; spike if ``spike_p``; reorder and its spread; dup and its spread.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency_model: LatencyModel,
        plan: FaultPlan,
        *,
        stats: Optional[Stats] = None,
        fifo_links: bool = True,
        bandwidth: Optional[float] = None,
    ) -> None:
        super().__init__(
            scheduler,
            latency_model,
            stats=stats,
            fifo_links=fifo_links,
            bandwidth=bandwidth,
        )
        plan.validate()
        self.plan = plan
        self.rng = RngRegistry(plan.seed)
        self.down: Set[str] = set()
        self.protected: Set[str] = set()
        self._data = _resolve(plan.data, "data")
        self._control = _resolve(plan.control, "control")

    # ------------------------------------------------------------- control

    def protect(self, name: str) -> None:
        """Exempt an endpoint (e.g. an external sink) from all faults."""
        self.protected.add(name)

    def mark_down(self, name: str) -> None:
        self.down.add(name)

    def mark_up(self, name: str) -> None:
        self.down.discard(name)

    # ------------------------------------------------------------- sending

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        *,
        control: bool = False,
        size: int = 1,
    ) -> float:
        if src in self.protected or dst in self.protected:
            return super().send(src, dst, payload, control=control, size=size)
        (faults, active, stream, down_key, dropped_key, spiked_key,
         reordered_key, duplicated_key) = (
            self._control if control else self._data)
        counters = self.stats.counters
        if src in self.down or dst in self.down:
            # Account the loss against the plain delivery time so the FIFO
            # clamp and bandwidth bookkeeping stay consistent either way.
            deliver_at = self._delivery_time(src, dst, size)
            counters[down_key] += 1
            return deliver_at
        if not active or not self.plan.in_window(self.scheduler.now):
            return super().send(src, dst, payload, control=control, size=size)

        uniform = self.rng.uniform
        if uniform(stream) < faults.drop_p:
            deliver_at = self._delivery_time(src, dst, size)
            counters[dropped_key] += 1
            return deliver_at

        extra = 0.0
        fifo: Optional[bool] = None
        if faults.spike_p and uniform(stream) < faults.spike_p:
            extra += faults.spike_delay
            counters[spiked_key] += 1
        if faults.reorder_p and uniform(stream) < faults.reorder_p:
            extra += uniform(stream, 0.0, faults.reorder_spread)
            fifo = False
            counters[reordered_key] += 1
        deliver_at = self._delivery_time(
            src, dst, size, extra_delay=extra, fifo=fifo
        )
        self._schedule_delivery(src, dst, payload, deliver_at, control, size)

        if faults.dup_p and uniform(stream) < faults.dup_p:
            dup_extra = uniform(stream, 0.0, faults.reorder_spread)
            dup_at = self._delivery_time(
                src, dst, size, extra_delay=dup_extra, fifo=False
            )
            self._schedule_delivery(src, dst, payload, dup_at, control, size)
            counters[duplicated_key] += 1
        return deliver_at


def _resolve(faults: LinkFaults, kind: str) -> Tuple[Any, ...]:
    """A plane's faults, active flag, stream name and interned counter keys."""
    return (faults, faults.active, sys.intern(f"faults.{kind}"), *(
        sys.intern(f"faults.{kind}.{what}") for what in (
            "down_dropped", "dropped", "spiked", "reordered", "duplicated")))
