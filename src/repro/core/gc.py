"""Reclamation of resolved speculation state ("fossil collection").

A long-running optimistic process accumulates journals, destroyed thread
shells, resolved guess records and consumed histories.  Nothing in the
protocol ever reads them again once every guess they touch is resolved —
the paper's commit processing "discards any state it created for purposes
of rolling back" (§3.2).  :func:`collect` reclaims that state:

* journals of TERMINATED threads with empty guards and resolved guesses
  are truncated — no rollback can ever target them;
* long-running server threads blocked at a ``rebase_safe`` receive with
  an empty guard are *rebased*: the current state becomes the replay
  base and the journal is compacted (checkpoint compaction);
* DESTROYED thread shells are dropped entirely;
* resolved guess records and resolved dependent sets are dropped.

Safe to call at any quiescent point (between scheduler events); the GC
tests call it mid-run and verify behaviour is unchanged.
"""

from __future__ import annotations

from typing import Dict

from repro.core.runtime import ProcessRuntime
from repro.core.thread import ThreadStatus


def collect(runtime: ProcessRuntime) -> Dict[str, int]:
    """Reclaim resolved state from one process; returns reclaim counters."""
    reclaimed = {"journal_slots": 0, "threads": 0, "records": 0,
                 "dependents": 0}

    for thread in runtime.threads.values():
        if thread.guard or not thread.journal.live:
            continue
        if thread.status is ThreadStatus.TERMINATED:
            # 1a. finished threads whose own guess resolved can never be
            # replayed again: truncate outright.
            if thread.own_guess is not None:
                record = runtime.records.get(thread.own_guess)
                if record is not None and record.status == "pending":
                    continue
            reclaimed["journal_slots"] += len(thread.journal.slots)
            thread.journal.slots.clear()
            thread.journal.cursor = 0
        elif (
            thread.status is ThreadStatus.BLOCKED_RECV
            and thread.own_guess is None
            and thread.seg_end - thread.seg_start == 1
            and 0 <= thread.seg_idx < len(runtime.program.segments)
            and runtime.program.segments[thread.seg_idx].rebase_safe
            and runtime.program.segments[thread.seg_idx].compute == 0
        ):
            # 1b. re-entrant server loop at its receive: compact via rebase.
            reclaimed["journal_slots"] += thread.rebase()

    # 2. drop destroyed shells, and terminated left threads whose guess
    # resolved and journal is already empty (the main-line thread stays —
    # it carries the process's final state).
    def droppable(t) -> bool:
        if t.status is ThreadStatus.DESTROYED:
            return True
        if t.status is not ThreadStatus.TERMINATED:
            return False
        if t.guard or t.journal.slots:
            return False
        if t.own_guess is None:
            return False  # a main-line thread: keep for final_state()
        record = runtime.records.get(t.own_guess)
        return record is None or record.status != "pending"

    dead = [tid for tid, t in runtime.threads.items() if droppable(t)]
    for tid in dead:
        del runtime.threads[tid]
        runtime.children.pop(tid, None)
        reclaimed["threads"] += 1
    for children in runtime.children.values():
        children[:] = [c for c in children if c in runtime.threads]

    # 3. drop resolved guess records whose threads are gone or final
    for guess in list(runtime.records):
        record = runtime.records[guess]
        if record.status == "pending":
            continue
        left = runtime.threads.get(record.left_tid)
        if left is not None and left.guard:
            continue  # its rollback bookkeeping may still matter
        del runtime.records[guess]
        runtime.open_records.pop(guess, None)
        reclaimed["records"] += 1
        if runtime.control.dependents.pop(guess, None) is not None:
            reclaimed["dependents"] += 1

    # 4. dependent sets of foreign resolved guesses
    for guess in list(runtime.control.dependents):
        if runtime.view.status(guess).resolved:
            del runtime.control.dependents[guess]
            reclaimed["dependents"] += 1

    for key, value in reclaimed.items():
        runtime.system.stats.incr(f"gc.{key}", value)
    return reclaimed


def collect_all(system) -> Dict[str, int]:
    """Run :func:`collect` on every process of an OptimisticSystem."""
    totals = {"journal_slots": 0, "threads": 0, "records": 0,
              "dependents": 0}
    for runtime in system.runtimes.values():
        for key, value in collect(runtime).items():
            totals[key] += value
    return totals


def retained_footprint(system) -> Dict[str, int]:
    """How much speculation state is currently held (for tests/benches)."""
    journal_slots = 0
    threads = 0
    records = 0
    for runtime in system.runtimes.values():
        threads += len(runtime.threads)
        records += len(runtime.records)
        for thread in runtime.threads.values():
            journal_slots += len(thread.journal.slots)
    return {"journal_slots": journal_slots, "threads": threads,
            "records": records}
