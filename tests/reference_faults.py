"""The per-draw fault plane, preserved as a test reference.

This is :meth:`repro.sim.faults.FaultyNetwork.send` as it was before the
plan was resolved once per plane and the draws were buffered: every
decision is a fresh scalar ``Generator.uniform`` call on the plane's raw
stream, every stream name and counter key is built per message, and the
plan is re-read on every send.  The differential in
``tests/test_fault_schedule_oracle.py`` drives both networks through the
same random plans and message sequences and requires the same fate,
delivery times and ``faults.*`` counters for every message — which is what
licenses the buffered form being the only one shipped.

Do not "optimize" this file — its plainness is what makes it a reference.
"""

from __future__ import annotations

from typing import Any, Optional, Set

from repro.sim.faults import FaultPlan
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.stats import Stats


class ReferenceFaultyNetwork(Network):
    """A :class:`Network` that executes a :class:`FaultPlan`, draw by draw."""

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

    def protect(self, name: str) -> None:
        self.protected.add(name)

    def mark_down(self, name: str) -> None:
        self.down.add(name)

    def mark_up(self, name: str) -> None:
        self.down.discard(name)

    def _draw(self, stream: str) -> float:
        return float(self.rng.stream(stream).uniform(0.0, 1.0))

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
        kind = "control" if control else "data"
        if src in self.down or dst in self.down:
            deliver_at = self._delivery_time(src, dst, size)
            self.stats.incr(f"faults.{kind}.down_dropped")
            return deliver_at
        faults = self.plan.control if control else self.plan.data
        if not faults.active or not self.plan.in_window(self.scheduler.now):
            return super().send(src, dst, payload, control=control, size=size)

        stream = f"faults.{kind}"
        if self._draw(stream) < faults.drop_p:
            deliver_at = self._delivery_time(src, dst, size)
            self.stats.incr(f"faults.{kind}.dropped")
            return deliver_at

        extra = 0.0
        fifo: Optional[bool] = None
        if faults.spike_p and self._draw(stream) < faults.spike_p:
            extra += faults.spike_delay
            self.stats.incr(f"faults.{kind}.spiked")
        if faults.reorder_p and self._draw(stream) < faults.reorder_p:
            extra += float(
                self.rng.stream(stream).uniform(0.0, faults.reorder_spread)
            )
            fifo = False
            self.stats.incr(f"faults.{kind}.reordered")
        deliver_at = self._delivery_time(
            src, dst, size, extra_delay=extra, fifo=fifo
        )
        self._schedule_delivery(src, dst, payload, deliver_at, control, size)

        if faults.dup_p and self._draw(stream) < faults.dup_p:
            dup_extra = float(
                self.rng.stream(stream).uniform(0.0, faults.reorder_spread)
            )
            dup_at = self._delivery_time(
                src, dst, size, extra_delay=dup_extra, fifo=False
            )
            self._schedule_delivery(src, dst, payload, dup_at, control, size)
            self.stats.incr(f"faults.{kind}.duplicated")
        return deliver_at
