"""Event queue for the discrete-event simulator.

Events are ordered by ``(time, priority, seq)``.  ``seq`` is a global
insertion counter, so two events scheduled for the same instant at the same
priority fire in insertion order — this is what makes whole simulations
deterministic and therefore replayable in tests.

The queue is a **calendar (bucket) queue** rather than a binary heap: the
event population of this simulator is overwhelmingly near-future (message
deliveries one latency ahead, timers a few RTOs ahead), so events are
binned into fixed-width time buckets held in a dict, with a small integer
heap ordering the non-empty bucket keys.  A push is an O(1) list append
(no Python-level ``__lt__`` calls at all — the seed's heap spent most of
its time in dataclass comparisons); a bucket is sorted once, with C tuple
comparisons, when the clock reaches it.  Pushes into the bucket currently
being drained (the common "schedule at now + 0" case) use ``bisect.insort``
over the undrained suffix, preserving exact ``(time, priority, seq)``
order.  ``tests/test_kernel_queue.py`` replays identical scripts through
this queue and a reference binary heap (``tests/reference_heap.py``) and
requires identical pop sequences.

Cancellation stays O(1) and lazy, but no longer unbounded: when the number
of cancelled-but-still-queued entries exceeds both a floor and the live
population, the queue compacts — rebuilding its buckets from live entries
only — so timer armies that arm-and-cancel (retransmission, fork
timeouts) cannot grow the queue without bound.  The high-water mark is
exported as the ``sim.timers_cancelled_pending`` stat.

Two scheduling surfaces exist:

* :meth:`EventQueue.push` returns a cancellable :class:`Event` handle —
  use it for timers and anything that may be cancelled;
* :meth:`EventQueue.schedule` is the fire-and-forget fast path (message
  deliveries): no handle object is allocated at all.
"""

from __future__ import annotations

import os
from bisect import insort
from heapq import heappop, heappush
from threading import get_ident
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: When true, queues and wheels record the thread that created them and
#: raise :class:`~repro.errors.SimulationError` if another thread touches
#: a scheduling surface.  The real executor backends
#: (:mod:`repro.exec.pool`) run *work payloads* on pool threads but keep
#: every scheduler interaction on the thread driving the event loop; this
#: flag turns that invariant into a hard check.  Enable via the
#: ``REPRO_DEBUG_OWNERSHIP`` environment variable or
#: :func:`set_ownership_debug`; off by default so the hot path pays only a
#: ``None`` test.
DEBUG_OWNERSHIP = os.environ.get("REPRO_DEBUG_OWNERSHIP", "") not in ("", "0")


def set_ownership_debug(enabled: bool) -> None:
    """Toggle owner-thread assertions for queues/wheels created *after* this
    call (existing instances keep the ownership mode they were built with)."""
    global DEBUG_OWNERSHIP
    DEBUG_OWNERSHIP = bool(enabled)

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Control-plane events (commit/abort propagation) fire before data events
#: scheduled at the same instant, mirroring an implementation that treats
#: control traffic as higher priority.
PRIORITY_CONTROL = -1

#: Queue entry: ``(time, priority, seq, action, event-or-None, label)``.
#: ``seq`` is unique, so tuple comparison never reaches the callable.
Entry = Tuple[float, int, int, Callable[[], None], Optional["Event"], str]

#: Compaction floor: lazy-cancelled entries are tolerated until they
#: exceed this count *and* outnumber the live entries.
COMPACT_MIN_CANCELLED = 64


class Event:
    """A cancellable handle for one scheduled callback.

    Attributes
    ----------
    time:
        Virtual time at which the event fires.
    priority:
        Lower fires first among simultaneous events.
    seq:
        Insertion sequence number (deterministic tie-break).
    action:
        Zero-argument callable run when the event fires.
    label:
        Human-readable tag used in debugging and statistics.
    """

    __slots__ = ("time", "priority", "seq", "action", "label", "cancelled",
                 "_queue")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[[], None], label: str = "") -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        #: owning queue while the event is pending; cleared on pop so
        #: cancelling an already-fired event cannot skew the live count
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return ((self.time, self.priority, self.seq)
                < (other.time, other.priority, other.seq))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return (f"Event(t={self.time!r}, prio={self.priority}, "
                f"seq={self.seq}, label={self.label!r}{state})")


class EventQueue:
    """Calendar-queue with deterministic ``(time, priority, seq)`` ordering.

    ``width`` is the bucket span in virtual-time units.  Buckets are
    sparse (a dict keyed by ``int(time / width)``), so any time range
    works; the width only tunes how much sorting is amortized per bucket.
    The default of 1.0 matches the simulator's typical latency scale.
    """

    __slots__ = ("_width", "_inv_width", "_buckets", "_keys", "_cur",
                 "_cur_key", "_idx", "_seq", "_live", "_cancelled",
                 "cancelled_peak", "compactions", "cancelled_reclaimed",
                 "_owner")

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise SimulationError(f"bucket width must be positive: {width!r}")
        self._width = width
        self._inv_width = 1.0 / width
        self._buckets: dict[int, List[Entry]] = {}
        self._keys: List[int] = []          # heap of non-empty bucket keys
        self._cur: Optional[List[Entry]] = None  # bucket being drained
        self._cur_key = 0
        self._idx = 0                       # next undrained slot in _cur
        self._seq = 0
        self._live = 0
        self._cancelled = 0                 # cancelled entries still queued
        #: high-water mark of cancelled-pending entries (the
        #: ``sim.timers_cancelled_pending`` stat)
        self.cancelled_peak = 0
        #: threshold-triggered compaction runs performed
        self.compactions = 0
        #: cancelled entries reclaimed by compaction (vs. popped dead)
        self.cancelled_reclaimed = 0
        #: thread allowed to touch the queue (None = unchecked)
        self._owner: Optional[int] = get_ident() if DEBUG_OWNERSHIP else None

    def _check_owner(self) -> None:
        raise SimulationError(
            "EventQueue touched from a foreign thread: scheduler surfaces "
            "are owned by the backend's event-loop thread "
            f"(owner={self._owner}, caller={get_ident()}); real work must "
            "go through ExecutorBackend.submit_segment work payloads")

    def __len__(self) -> int:
        return self._live

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still occupying queue slots."""
        return self._cancelled

    # -------------------------------------------------------------- insert

    def _insert(self, entry: Entry) -> None:
        key = int(entry[0] * self._inv_width)
        cur = self._cur
        if cur is not None and key <= self._cur_key:
            # lands in (or before) the bucket being drained: keep exact
            # order over the undrained suffix; an entry earlier than every
            # remaining one fires next, which is the soonest it can fire
            insort(cur, entry, lo=self._idx)
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heappush(self._keys, key)
        else:
            bucket.append(entry)

    def push(
        self,
        time: float,
        action: Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at virtual time ``time`` and return the event."""
        if self._owner is not None and get_ident() != self._owner:
            self._check_owner()
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time!r}")
        time = float(time)
        self._seq += 1
        ev = Event(time, priority, self._seq, action, label)
        ev._queue = self
        self._insert((time, priority, self._seq, action, ev, label))
        self._live += 1
        return ev

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> None:
        """Fire-and-forget fast path: no :class:`Event` handle is created.

        Use for events that are never cancelled (message deliveries); this
        skips the handle allocation entirely.
        """
        if self._owner is not None and get_ident() != self._owner:
            self._check_owner()
        if time < 0:
            raise SimulationError(f"cannot schedule event at negative time {time!r}")
        self._seq += 1
        self._insert((float(time), priority, self._seq, action, None, label))
        self._live += 1

    # ---------------------------------------------------------------- drain

    def pop_entry(self) -> Optional[Entry]:
        """Remove and return the earliest live entry, or ``None`` if empty."""
        if self._owner is not None and get_ident() != self._owner:
            self._check_owner()
        while True:
            cur = self._cur
            if cur is not None:
                idx = self._idx
                if idx < len(cur):
                    entry = cur[idx]
                    self._idx = idx + 1
                    ev = entry[4]
                    if ev is not None:
                        if ev.cancelled:
                            self._cancelled -= 1
                            continue
                        ev._queue = None
                    self._live -= 1
                    return entry
                self._cur = None
            if not self._keys:
                return None
            key = heappop(self._keys)
            bucket = self._buckets.pop(key)
            if len(bucket) > 1:
                bucket.sort()
            self._cur = bucket
            self._cur_key = key
            self._idx = 0

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty.

        Entries scheduled through the no-handle fast path are wrapped in a
        fresh (already-fired) :class:`Event` for API compatibility.
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        ev = entry[4]
        if ev is None:
            ev = Event(entry[0], entry[1], entry[2], entry[3], entry[5])
        return ev

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        while True:
            cur = self._cur
            if cur is not None:
                idx = self._idx
                if idx < len(cur):
                    entry = cur[idx]
                    ev = entry[4]
                    if ev is not None and ev.cancelled:
                        # discard dead prefix permanently (seed behaviour)
                        self._idx = idx + 1
                        self._cancelled -= 1
                        continue
                    return entry[0]
                self._cur = None
            if not self._keys:
                return None
            key = heappop(self._keys)
            bucket = self._buckets.pop(key)
            if len(bucket) > 1:
                bucket.sort()
            self._cur = bucket
            self._cur_key = key
            self._idx = 0

    # ----------------------------------------------------------- compaction

    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled > self.cancelled_peak:
            self.cancelled_peak = self._cancelled
        if (self._cancelled > COMPACT_MIN_CANCELLED
                and self._cancelled > self._live):
            self.compact()

    def compact(self) -> int:
        """Drop every cancelled entry from the queue; returns how many.

        Runs automatically once cancelled entries exceed
        :data:`COMPACT_MIN_CANCELLED` *and* outnumber live entries, so the
        queue's memory and sort costs track the live population, not the
        total ever scheduled.  Safe to call at any point between pops.
        """
        if not self._cancelled:
            return 0
        survivors: List[Entry] = []
        if self._cur is not None:
            survivors.extend(e for e in self._cur[self._idx:]
                             if e[4] is None or not e[4].cancelled)
            self._cur = None
        for bucket in self._buckets.values():
            survivors.extend(e for e in bucket
                             if e[4] is None or not e[4].cancelled)
        reclaimed = self._cancelled
        self._buckets = {}
        self._keys = []
        for entry in survivors:
            self._insert(entry)
        self._cancelled = 0
        self.compactions += 1
        self.cancelled_reclaimed += reclaimed
        return reclaimed

    # -------------------------------------------------------------- service

    def clear(self) -> None:
        if self._cur is not None:
            for entry in self._cur[self._idx:]:
                if entry[4] is not None:
                    entry[4]._queue = None
            self._cur = None
        for bucket in self._buckets.values():
            for entry in bucket:
                if entry[4] is not None:
                    entry[4]._queue = None
        self._buckets.clear()
        self._keys.clear()
        self._live = 0
        self._cancelled = 0

    def counters(self) -> dict[str, int]:
        """Kernel-health counters (see ``Scheduler.kernel_counters``)."""
        return {
            "timers_cancelled_pending": self.cancelled_peak,
            "queue_compactions": self.compactions,
            "queue_cancelled_reclaimed": self.cancelled_reclaimed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"EventQueue(pending={len(self)}, "
                f"cancelled_pending={self._cancelled})")
