"""The seed binary-heap event queue, preserved verbatim as a test reference.

This module is the pre-optimization kernel: a ``heapq``-backed queue of
``@dataclass(order=True)`` events, exactly as the repository shipped it
before the calendar-queue rewrite of :mod:`repro.sim.events`.  It exists
for the drop-in-equivalence tests (``tests/test_kernel_queue.py``), which
replay identical push/cancel/pop scripts through both queues and require
identical pop sequences — which is what licenses the calendar queue being
the only one shipped.

Do not "optimize" this file — its plainness is what makes it a reference.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_NORMAL  # noqa: F401

Entry = Tuple[float, int, int, Callable[[], None], object, str]


@dataclass(order=True)
class Event:
    """A scheduled callback (seed representation: ordered dataclass)."""

    time: float
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: owning queue while the event is pending in its heap; cleared on pop
    #: so cancelling an already-fired event cannot skew the live count
    _queue: Optional["EventQueue"] = field(compare=False, default=None,
                                           repr=False)

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._live -= 1
            self._queue = None


class EventQueue:
    """Binary-heap event queue with deterministic ordering (seed kernel).

    Cancellation is lazy: cancelled events stay in the heap and are skipped
    on pop, which keeps ``cancel`` O(1).  A live-event count is maintained
    on push/pop/cancel, so ``len(queue)`` is O(1) instead of a heap scan.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at virtual time ``time`` and return the event."""
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time!r}")
        ev = Event(
            time=float(time),
            priority=priority,
            seq=next(self._counter),
            action=action,
            label=label,
        )
        ev._queue = self
        self._live += 1
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if not ev.cancelled:
                ev._queue = None
                self._live -= 1
                return ev
        return None

    def pop_entry(self) -> Optional[Entry]:
        """Adapter to the tuple-entry protocol of the calendar queue.

        The :class:`~repro.sim.scheduler.Scheduler` main loop consumes
        ``(time, priority, seq, action, event, label)`` tuples; this shim
        lets the seed queue plug into the same loop for A/B runs.
        """
        ev = self.pop()
        if ev is None:
            return None
        return (ev.time, ev.priority, ev.seq, ev.action, ev, ev.label)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def clear(self) -> None:
        for ev in self._heap:
            ev._queue = None
        self._heap.clear()
        self._live = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventQueue(pending={len(self)})"
