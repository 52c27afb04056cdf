"""Discrete-event scheduler: the main loop of the simulation substrate.

The scheduler owns the virtual clock and the event queue, and offers timers
(used by the optimistic runtime for fork timeouts, §3.2 of the paper).  A
step limit guards against protocol bugs that would otherwise loop forever.

This is the hottest loop in the repository — every message, timer, and
control frame of every benchmark flows through :meth:`Scheduler.step` — so
it follows the zero-cost-observability contract (see ``docs/PERF.md``):
no formatting, no dict building, and no counter churn happen per event
unless a tracer with ``enabled = True`` is attached.  Kernel-health
counters are *pull-based*: the queue and timer wheels count internally and
:meth:`kernel_counters` harvests them once at end of run.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import LivenessError
from repro.sim.clock import VirtualClock
from repro.sim.events import Event, EventQueue, PRIORITY_NORMAL


class Timer:
    """Handle for a scheduled timeout that can be cancelled.

    Wraps the underlying :class:`Event`; cancelling an already-fired or
    already-cancelled timer is a no-op, so callers never need to track
    whether the race was won.

    The handle doubles as the scheduled callable (it marks itself fired,
    then runs the action) so arming a timer allocates no extra closure —
    timers are armed per fork and per frame, so this is hot.
    """

    __slots__ = ("_event", "fired", "_action", "_scheduler", "_label")

    def __init__(self, event: Optional[Event],
                 action: Optional[Callable[[], None]] = None,
                 scheduler: Optional["Scheduler"] = None,
                 label: str = "timer") -> None:
        self._event = event
        self.fired = False
        self._action = action
        self._scheduler = scheduler
        self._label = label

    def __call__(self) -> None:
        self.fired = True
        scheduler = self._scheduler
        if scheduler is not None and scheduler.tracer.enabled:
            scheduler.tracer.event("timer", "", scheduler.now,
                                   name=self._label)
        if self._action is not None:
            self._action()

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()

    @property
    def cancelled(self) -> bool:
        return self._event is not None and self._event.cancelled


class Scheduler:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    max_steps:
        Upper bound on processed events; exceeding it raises
        :class:`~repro.errors.LivenessError`.  This converts runtime
        non-termination bugs into test failures.
    tracer:
        Optional :class:`~repro.obs.Tracer`; when enabled, timer firings
        are recorded as ``timer`` events.  Defaults to the no-op tracer.
    queue:
        Event-queue instance; defaults to the calendar queue
        (:class:`~repro.sim.events.EventQueue`).  The test suite passes
        its reference binary heap (``tests/reference_heap.py``) here.
    """

    __slots__ = ("clock", "queue", "max_steps", "steps_executed", "tracer",
                 "_fast_schedule", "_wheels")

    def __init__(self, max_steps: int = 1_000_000, tracer=None, *,
                 queue=None) -> None:
        from repro.obs.tracer import NULL_TRACER

        self.clock = VirtualClock()
        self.queue = queue if queue is not None else EventQueue()
        self.max_steps = max_steps
        self.steps_executed = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: bound no-handle fast path when the queue offers one
        self._fast_schedule = getattr(self.queue, "schedule", None)
        self._wheels: dict[float, object] = {}

    @property
    def now(self) -> float:
        return self.clock._now

    def at(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``time``."""
        now = self.clock._now
        if time < now:
            time = now
        return self.queue.push(time, action, priority=priority, label=label)

    def after(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` ``delay`` time units from now."""
        if delay < 0:
            delay = 0.0
        return self.queue.push(
            self.clock._now + delay, action, priority=priority, label=label
        )

    def post(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> None:
        """Fire-and-forget :meth:`at`: no cancellable handle is allocated.

        The hot path for message deliveries, which are never cancelled.
        Falls back to :meth:`at` on queues without a no-handle fast path.
        """
        now = self.clock._now
        if time < now:
            time = now
        fast = self._fast_schedule
        if fast is not None:
            fast(time, action, priority, label)
        else:
            self.queue.push(time, action, priority=priority, label=label)

    def timer(self, delay: float, action: Callable[[], None], *, label: str = "timer") -> Timer:
        """Arm a cancellable timeout firing ``delay`` units from now."""
        t = Timer(None, action, self, label)
        t._event = self.after(delay, t, label=label)
        return t

    def wheel(self, granularity: float):
        """The shared :class:`~repro.sim.wheel.TimerWheel` for ``granularity``.

        Wheels are cached per granularity so all callers with the same
        slot width share slots (and therefore tick events).
        """
        wheel = self._wheels.get(granularity)
        if wheel is None:
            from repro.sim.wheel import TimerWheel

            wheel = TimerWheel(self, granularity)
            self._wheels[granularity] = wheel
        return wheel

    def step(self) -> bool:
        """Process one event.  Returns ``False`` when the queue is empty."""
        entry = self.queue.pop_entry()
        if entry is None:
            return False
        self.steps_executed += 1
        if self.steps_executed > self.max_steps:
            raise LivenessError(
                f"scheduler exceeded max_steps={self.max_steps}; "
                f"likely livelock (last event label={entry[5]!r})"
            )
        # inline clock.advance_to: a method call (and re-float) per event
        # is measurable; the backwards check stays
        clock = self.clock
        t = entry[0]
        if t >= clock._now:
            clock._now = t
        else:
            clock.advance_to(t)  # raises ClockError (corrupted queue)
        entry[3]()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains (or past ``until``).  Returns final time."""
        if until is None:
            step = self.step
            while step():
                pass
            return self.now
        while True:
            nxt = self.queue.peek_time()
            if nxt is None:
                break
            if nxt > until:
                self.clock.advance_to(until)
                break
            self.step()
        return self.now

    def kernel_counters(self) -> dict[str, int]:
        """Harvest queue/wheel health counters under the ``sim.`` namespace.

        Pull-based so the hot path never touches a stats dict; the system
        merges these into its :class:`~repro.sim.stats.Stats` at end of
        run.  ``sim.timers_cancelled_pending`` is the high-water mark of
        lazily-cancelled entries awaiting compaction or pop.
        """
        out = {"sim.events_processed": self.steps_executed}
        counters = getattr(self.queue, "counters", None)
        if counters is not None:
            for key, value in counters().items():
                out[f"sim.{key}"] = value
        for wheel in self._wheels.values():
            for key, value in wheel.counters().items():
                out[f"sim.{key}"] = out.get(f"sim.{key}", 0) + value
        return out
