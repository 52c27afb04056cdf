"""Exec fault plane: seeded substrate faults injected through the pools.

The network fault plane (:mod:`repro.sim.faults`) attacks the wire; this
module attacks the *execution substrate* — the worker pools that run
speculative segment labor under the DES oracle.  The declarative specs
(:class:`~repro.sim.faults.TaskFaults`,
:class:`~repro.sim.faults.WorkerKillSpec`,
:class:`~repro.sim.faults.ExecFaultPlan`) live next to their network
siblings and are re-exported here; this module adds the machinery that
*manifests* them:

* :class:`ExecFaultInjector` — one seeded draw per submitted task (from
  the plan's :class:`~repro.sim.rng.RngRegistry`), deciding whether that
  task's worker dies, hangs, is poisoned, or loses its result.  Draws
  happen on the driver in submission order, which is virtual-event order,
  so a fault schedule is a pure function of the seed.
* Picklable payload wrappers (module-level, ``partial``-friendly) that
  realize each fault class inside a worker — including across the process
  boundary of :class:`~repro.exec.pool.ProcessPoolBackend`.

Because payloads are effect-free and the virtual placeholder events are
untouched, every injected fault is *semantically invisible*: committed
output stays byte-equal to the fault-free run, and the only observable
consequences are wall-clock cost and the recovery telemetry
(``exec.fault.*`` / ``exec.retry.*`` / ``exec.fallback.*`` counters,
:class:`~repro.exec.watchdog.SegmentFailure` records).
"""

from __future__ import annotations

from typing import Optional

from repro.exec.api import Work, WorkContext
from repro.sim.faults import ExecFaultPlan, TaskFaults, WorkerKillSpec
from repro.sim.rng import RngRegistry


class ExecFaultError(Exception):
    """Base class for injected execution-substrate faults."""


class WorkerKilled(ExecFaultError):
    """The worker running a task died before delivering its labor."""


class PoisonedPayload(ExecFaultError):
    """A payload that fails deterministically on every attempt."""


#: Sentinel a payload returns when its result was "lost in transit".
#: A plain string so it pickles and compares across a process boundary.
LOST_RESULT = "__repro_exec_result_lost__"

#: Fault kinds the injector can draw, in draw order.
INJECTABLE = ("kill", "hang", "poison", "lost")


# ------------------------------------------------------- payload wrappers
#
# Module-level (not closures) so ProcessPoolBackend can pickle
# ``partial(wrapper, ..., work)`` payloads.

def killed_work(work: Work, ctx: WorkContext) -> None:
    """The worker dies before the labor completes; nothing is delivered."""
    raise WorkerKilled("injected worker death")


def hung_work(extra: float, work: Work, ctx: WorkContext):
    """A stuck payload: blocks on the raw clock, ignoring its token.

    This is the one fault class cooperative cancellation cannot reach —
    only a watchdog deadline detects it.  The stall is bounded (``extra``
    real seconds) so an undetected hang degrades a run instead of
    wedging the interpreter.
    """
    import time

    time.sleep(extra)
    return work(ctx)


def poisoned_work(work: Work, ctx: WorkContext) -> None:
    """A payload that raises deterministically on every attempt."""
    raise PoisonedPayload("injected poison payload")


def lost_work(work: Work, ctx: WorkContext) -> str:
    """The labor completes but its result is lost in transit."""
    work(ctx)
    return LOST_RESULT


class ExecFaultInjector:
    """Driver-side fault decisions for one pool backend.

    Stateless beyond its rng streams: the backend asks :meth:`draw` once
    per submitted task and applies the verdict itself (wrapping the
    payload, marking handles).  At most one fault per task; classes are
    checked in :data:`INJECTABLE` order, mirroring
    :class:`~repro.sim.faults.FaultyNetwork`'s per-message draws.
    """

    def __init__(self, plan: ExecFaultPlan) -> None:
        plan.validate()
        self.plan = plan
        self.rng = RngRegistry(plan.seed)

    def draw(self, now: float) -> Optional[str]:
        """Fault for the task submitted at virtual ``now`` (or ``None``)."""
        tasks = self.plan.tasks
        if not tasks.active or not self.plan.in_window(now):
            return None
        for kind, p in zip(INJECTABLE, (tasks.kill_p, tasks.hang_p,
                                        tasks.poison_p, tasks.lose_result_p)):
            if p and self.rng.uniform("exec.tasks") < p:
                return kind
        return None


__all__ = [
    "ExecFaultError", "ExecFaultInjector", "ExecFaultPlan", "INJECTABLE",
    "LOST_RESULT", "PoisonedPayload", "TaskFaults", "WorkerKilled",
    "WorkerKillSpec", "hung_work", "killed_work", "lost_work",
    "poisoned_work",
]
