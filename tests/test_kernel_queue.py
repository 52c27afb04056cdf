"""Drop-in equivalence of the calendar queue and the seed heap queue.

The calendar queue (:mod:`repro.sim.events`) replaced the seed's binary
heap (``tests/reference_heap.py``) for throughput; its *semantics*
must be identical — (time, priority, FIFO-seq) ordering, lazy
cancellation, ``peek_time``, ``run(until=...)`` boundaries.  Every test
here is parameterized over both implementations, and the determinism
tests drive both with the same random script and demand identical pop
sequences.
"""

import random

import pytest

from repro.sim.events import PRIORITY_CONTROL, PRIORITY_NORMAL
from repro.sim.events import EventQueue as CalendarQueue
from repro.sim.scheduler import Scheduler

from . import reference_heap

QUEUES = [
    pytest.param(CalendarQueue, id="calendar"),
    pytest.param(reference_heap.EventQueue, id="legacy-heap"),
]


def drain_labels(queue):
    out = []
    while True:
        entry = queue.pop_entry()
        if entry is None:
            return out
        out.append(entry[5])


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_same_timestamp_fifo(queue_cls):
    q = queue_cls()
    for i in range(50):
        q.push(7.0, lambda: None, label=str(i))
    assert drain_labels(q) == [str(i) for i in range(50)]


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_priority_then_fifo_within_timestamp(queue_cls):
    q = queue_cls()
    q.push(1.0, lambda: None, label="d0")
    q.push(1.0, lambda: None, priority=PRIORITY_CONTROL, label="c0")
    q.push(1.0, lambda: None, label="d1")
    q.push(1.0, lambda: None, priority=PRIORITY_CONTROL, label="c1")
    assert drain_labels(q) == ["c0", "c1", "d0", "d1"]


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_interleaved_push_pop_keeps_order(queue_cls):
    """Pushes landing at/near the currently-draining time stay ordered."""
    q = queue_cls()
    q.push(1.0, lambda: None, label="a")
    q.push(5.0, lambda: None, label="z")
    first = q.pop_entry()
    assert first[5] == "a"
    # pushes into the already-draining region must still sort correctly
    q.push(1.0, lambda: None, label="b")   # same instant as the popped one
    q.push(3.0, lambda: None, label="c")
    q.push(2.0, lambda: None, label="d")
    assert drain_labels(q) == ["b", "d", "c", "z"]


def _random_script(seed, n):
    """(op, args) script exercising pushes, pops, and cancels."""
    rng = random.Random(seed)
    script = []
    for i in range(n):
        r = rng.random()
        if r < 0.55:
            time = round(rng.uniform(0, 40), 2)
            prio = PRIORITY_CONTROL if rng.random() < 0.2 else PRIORITY_NORMAL
            script.append(("push", time, prio, f"e{i}"))
        elif r < 0.8:
            script.append(("pop",))
        else:
            script.append(("cancel", rng.randrange(max(1, i))))
    return script


def _run_script(queue_cls, script):
    """Apply the script; return the full observable pop sequence."""
    q = queue_cls()
    handles = []
    popped = []
    floor = 0.0  # only push at/after the last popped time, like a scheduler
    for op in script:
        if op[0] == "push":
            _, time, prio, label = op
            handles.append(
                q.push(max(time, floor), lambda: None,
                       priority=prio, label=label))
        elif op[0] == "pop":
            entry = q.pop_entry()
            if entry is not None:
                floor = entry[0]
                popped.append((entry[0], entry[1], entry[5]))
        else:
            _, idx = op
            if idx < len(handles):
                handles[idx].cancel()
    while True:
        entry = q.pop_entry()
        if entry is None:
            break
        popped.append((entry[0], entry[1], entry[5]))
    return popped


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1991])
def test_calendar_matches_heap_on_random_scripts(seed):
    """Both queues produce the identical pop sequence for the same script."""
    script = _random_script(seed, 400)
    assert (_run_script(CalendarQueue, script)
            == _run_script(reference_heap.EventQueue, script))


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_determinism_across_runs(queue_cls):
    script = _random_script(13, 300)
    assert _run_script(queue_cls, script) == _run_script(queue_cls, script)


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_timer_cancel_and_rearm(queue_cls):
    scheduler = Scheduler(queue=queue_cls())
    fired = []
    t1 = scheduler.timer(5.0, lambda: fired.append("first"))
    t1.cancel()
    assert t1.cancelled and not t1.fired
    t2 = scheduler.timer(5.0, lambda: fired.append("second"))
    scheduler.run()
    assert fired == ["second"]
    assert t2.fired and not t2.cancelled
    # cancelling after firing is a harmless no-op
    t2.cancel()
    assert t2.fired


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_run_until_boundary(queue_cls):
    """Events exactly at ``until`` fire; later ones keep for the resume."""
    scheduler = Scheduler(queue=queue_cls())
    fired = []
    for t in (1.0, 2.0, 2.0, 3.0):
        scheduler.after(t, lambda t=t: fired.append(t))
    scheduler.run(until=2.0)
    assert fired == [1.0, 2.0, 2.0]
    assert scheduler.now == 2.0
    scheduler.run()
    assert fired == [1.0, 2.0, 2.0, 3.0]


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_run_until_with_no_later_events_advances_clock(queue_cls):
    scheduler = Scheduler(queue=queue_cls())
    scheduler.after(10.0, lambda: None)
    scheduler.run(until=4.0)
    assert scheduler.now == 4.0  # clock advanced to the horizon, event kept
    scheduler.run()
    assert scheduler.now == 10.0


@pytest.mark.parametrize("queue_cls", QUEUES)
def test_len_and_peek_agree(queue_cls):
    q = queue_cls()
    a = q.push(4.0, lambda: None, label="a")
    q.push(9.0, lambda: None, label="b")
    assert len(q) == 2 and q.peek_time() == 4.0
    a.cancel()
    assert len(q) == 1 and q.peek_time() == 9.0


def test_compaction_reclaims_cancelled_entries():
    """Threshold compaction drops dead entries without touching order."""
    q = CalendarQueue()
    live = [q.push(100.0 + i, lambda: None, label=f"live{i}")
            for i in range(10)]
    dead = [q.push(50.0 + i * 0.01, lambda: None) for i in range(500)]
    for handle in dead:
        handle.cancel()
    counters = q.counters()
    assert counters["queue_compactions"] >= 1
    assert counters["queue_cancelled_reclaimed"] > 0
    # high-water mark of pending cancellations was recorded
    assert counters["timers_cancelled_pending"] > 0
    assert len(q) == 10
    assert drain_labels(q) == [f"live{i}" for i in range(10)]


def test_cancelled_pending_high_water_mark():
    q = CalendarQueue()
    handles = [q.push(float(i + 1), lambda: None) for i in range(20)]
    for handle in handles[:8]:
        handle.cancel()
    # below the compaction threshold: all 8 still pending, peak == 8
    assert q.counters()["timers_cancelled_pending"] == 8
    while q.pop_entry() is not None:
        pass
    # popping drains the dead entries but the peak is sticky
    assert q.counters()["timers_cancelled_pending"] == 8


def test_scheduler_kernel_counters_namespace():
    scheduler = Scheduler()
    t = scheduler.timer(5.0, lambda: None)
    t.cancel()
    scheduler.after(1.0, lambda: None)
    scheduler.run()
    counters = scheduler.kernel_counters()
    assert counters["sim.events_processed"] == 1
    assert counters["sim.timers_cancelled_pending"] == 1
