"""Kernel throughput bench: events/sec as a first-class metric.

Every result in this repository — the paper-figure reproductions, the
chaos suite, the forensics — flows through the DES kernel
(:mod:`repro.sim`), and the roadmap's 10k-process sharded-commitment runs
and workload-atlas sweeps are only honest if that kernel is fast.  This
bench makes the kernel's speed a pinned, regression-gated number.

Three synthetic workloads, ~260k scheduler events in total, on the one
kernel the repository ships: calendar event queue
(:class:`repro.sim.events.EventQueue`), slotted retransmission timer
wheel (:mod:`repro.sim.wheel`), no-handle delivery fast path, lazy
labels, ``__slots__`` messages.

The workloads:

``message_storm``
    Endpoint rings exchanging messages through the :class:`Network`
    (FIFO links, mixed control/data priorities, varied latencies) — the
    delivery-event fast path.
``timer_army``
    A :class:`ReliableTransport` channel under clean delivery: every
    frame arms a retransmission timer that the returning ack cancels —
    the timer-wheel path.
``cancel_churn``
    Rollback-shaped scheduler load: batches of timers armed, 75%
    cancelled and re-armed, the rest firing — exercises lazy-cancellation
    compaction (the ``sim.timers_cancelled_pending`` stat).

Measured per workload: wall seconds, scheduler events processed,
events/sec, logical ops/sec, and allocated heap blocks per op
(``sys.getallocatedblocks`` delta).  The gate is made of what does not
depend on the machine: against the ``BENCH_kernel.json`` pin, no workload
may process more scheduler events, raise a ``sim.*`` kernel counter, or
allocate more than :data:`ALLOC_TOLERANCE` more blocks per op; and
dual-clock capture must stay cold with no tracer bound
(:func:`zero_cost_check`).  ``events_per_sec`` is reported, not gated:
host-speed regressions are caught by ``chain_sequential`` and
``chain_lossy`` of ``benchmarks/e2e``, which the pipeline runs on the
parent and on the change on the same box.

Usage::

    PYTHONPATH=src python -m repro.bench.kernel              # full + pin
    PYTHONPATH=src python -m repro.bench.kernel --check-only # gate only
    PYTHONPATH=src python -m repro.bench.kernel --smoke      # one repeat
    PYTHONPATH=src python -m repro bench-kernel --profile    # cProfile

Exit status 1 on any gate failure.  The pin is read *before* it is
rewritten, so a regressing run still fails after refreshing the file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import ResilienceConfig
from repro.core.transport import ReliableTransport
from repro.obs.metrics import MetricsRegistry, RuntimeMetrics
from repro.sim.network import LatencyModel, Network
from repro.sim.scheduler import Scheduler
from repro.sim.stats import Stats

#: Max fractional growth of a workload's ``allocs_per_op`` over its pin
#: (block counts move by a few units with interpreter free-list state).
ALLOC_TOLERANCE = 0.10

#: src/repro/bench/kernel.py -> repository root.
REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_kernel.json")

MAX_STEPS = 50_000_000


class _CyclingLatency(LatencyModel):
    """Deterministic latency pattern (no RNG: identical run to run)."""

    PATTERN = (0.5, 1.0, 2.25, 0.75, 3.5, 1.25)

    def __init__(self) -> None:
        self._i = 0

    def delay(self, src: str, dst: str) -> float:
        self._i += 1
        return self.PATTERN[self._i % len(self.PATTERN)]


# --------------------------------------------------------------- workloads

def run_message_storm(n_msgs: int) -> Scheduler:
    """Ring of endpoints with thousands of messages in flight at once.

    A realistic optimistic run keeps many speculative sends in the air
    simultaneously, so the event queue holds a large population — where a
    binary heap pays O(log n) Python-level comparisons per push/pop and
    the calendar queue stays O(1).
    """
    scheduler = Scheduler(max_steps=MAX_STEPS)
    stats = Stats()
    network = Network(scheduler, _CyclingLatency(), stats=stats)
    n_procs = 8
    names = [f"P{i}" for i in range(n_procs)]
    remaining = [n_msgs]
    in_flight = min(8192, max(n_procs, n_msgs // 8))

    def make_handler(i: int) -> Callable[[str, Any], None]:
        dst = names[(i + 1) % n_procs]
        src = names[i]

        def handler(frm: str, payload: Any) -> None:
            if remaining[0] <= 0:
                return
            remaining[0] -= 1
            # every 5th message rides the control plane (priority path)
            network.send(src, dst, payload,
                         control=(remaining[0] % 5 == 0),
                         size=1 + remaining[0] % 3)

        return handler

    for i, name in enumerate(names):
        network.register(name, make_handler(i))
    for i in range(in_flight):
        network.send(names[i % n_procs], names[(i + 1) % n_procs],
                     ("seed", i))
    scheduler.run()
    return scheduler


def run_timer_army(n_frames: int) -> Scheduler:
    """Reliable-transport frames whose acks cancel the timer army."""
    scheduler = Scheduler(max_steps=MAX_STEPS)
    stats = Stats()
    network = Network(scheduler, _CyclingLatency(), stats=stats)
    metrics = RuntimeMetrics(MetricsRegistry(stats))
    transport = ReliableTransport(network, scheduler, ResilienceConfig(),
                                  metrics)
    for name in ("A", "B"):
        transport.add_participant(name)
    network.register("B", transport.receiver("B", lambda src, msg: None))
    network.register("A", transport.receiver("A", lambda src, msg: None))

    # bursts keep a large in-flight (timer-resident) population alive
    batch = min(2000, max(50, n_frames // 40))
    sent = [0]

    def send_batch() -> None:
        todo = min(batch, n_frames - sent[0])
        for i in range(todo):
            transport.send("A", "B", ("frame", sent[0] + i),
                           control=(i % 4 == 0))
        sent[0] += todo
        if sent[0] < n_frames:
            scheduler.after(2.0, send_batch, label="batch")

    send_batch()
    scheduler.run()
    return scheduler


def run_cancel_churn(n_timers: int) -> Scheduler:
    """Arm/cancel batches of long-lived timeouts (fork/abort churn).

    Fork timeouts and RTOs are *lower bounds* that usually die young: the
    join (commit) or ack cancels most of them shortly after arming, and
    the survivors fire much later.  The workload arms them through the
    same facility the transport uses — the slotted wheel at the default
    ``timer_wheel_granularity`` — so it measures the production timeout
    path: an O(1) append and an O(1) cancel against shared slot ticks.
    """
    scheduler = Scheduler(max_steps=MAX_STEPS)
    wheel = scheduler.wheel(ResilienceConfig().timer_wheel_granularity)
    batch = min(1200, max(50, n_timers // 130))
    armed = [0]

    def on_fire() -> None:
        pass

    def round_() -> None:
        todo = min(batch, n_timers - armed[0])
        if todo <= 0:
            return
        # deadlines spread over [20, 220): a long-lived pending army
        timers = [wheel.after(20.0 + (i * 7919) % 200, on_fire)
                  for i in range(todo)]
        armed[0] += todo
        # a rollback aborts most speculative work shortly after arming
        for i, timer in enumerate(timers):
            if i % 4 != 0:
                timer.cancel()
        scheduler.after(1.0, round_, label="round")

    round_()
    scheduler.run()
    return scheduler


# The mix mirrors a hardened production run: timeouts rival messages in
# event volume (every frame arms an RTO, every fork a fork timeout).
WORKLOADS: Tuple[Tuple[str, Callable[[int], Scheduler], int], ...] = (
    ("message_storm", run_message_storm, 150_000),
    ("timer_army", run_timer_army, 50_000),
    ("cancel_churn", run_cancel_churn, 800_000),
)


# -------------------------------------------------------------- measurement

def _measure(fn: Callable[[], Scheduler],
             repeats: int) -> Tuple[float, int, Scheduler]:
    """Best-of-``repeats``: (wall_s, alloc_blocks_delta, last scheduler)."""
    best = float("inf")
    best_allocs = 0
    for _ in range(repeats):
        # collect garbage from previous reps/workloads, then keep the
        # collector out of the measured region — cycles from a *previous*
        # workload otherwise tax whichever workload happens to run next
        gc.collect()
        gc.disable()
        blocks0 = sys.getallocatedblocks()
        t0 = time.perf_counter()
        try:
            scheduler = fn()
        finally:
            gc.enable()
        wall = time.perf_counter() - t0
        allocs = sys.getallocatedblocks() - blocks0
        if wall < best:
            best = wall
            best_allocs = allocs
    return best, best_allocs, scheduler


def run_workload(fn: Callable[[int], Scheduler],
                 ops: int, repeats: int) -> Dict[str, Any]:
    """One workload's report row (``ops``: messages, frames or timers)."""
    wall, allocs, scheduler = _measure(lambda: fn(ops), repeats)
    events = scheduler.steps_executed
    return {
        "wall_s": round(wall, 6),
        "events": events,
        "events_per_sec": round(events / wall),
        "ops": ops,
        "ops_per_sec": round(ops / wall),
        "alloc_blocks": allocs,
        "allocs_per_op": round(allocs / ops, 3),
        "kernel_counters": scheduler.kernel_counters(),
    }


def run_bench(repeats: int = 3) -> Dict[str, Any]:
    """Run every workload (best of ``repeats``)."""
    report: Dict[str, Any] = {
        "meta": {
            "repeats": repeats,
            "python": sys.version.split()[0],
            "alloc_tolerance": ALLOC_TOLERANCE,
        },
        "workloads": {
            name: run_workload(fn, size, repeats)
            for name, fn, size in WORKLOADS
        },
    }
    rows = report["workloads"].values()
    wall = sum(w["wall_s"] for w in rows)
    events = sum(w["events"] for w in rows)
    report["totals"] = {
        "wall_s": round(wall, 6),
        "events": events,
        "events_per_sec": round(events / wall),
    }
    return report


# ------------------------------------------------------------------- gates

def gate(report: Dict[str, Any],
         pinned: Optional[Dict[str, Any]]) -> Tuple[bool, List[str]]:
    """Machine-independent pins: per workload, nothing above its pin."""
    if pinned is None:
        return True, ["no pin to check against (first run writes one)"]
    failures: List[str] = []
    for name, row in report["workloads"].items():
        pin = pinned.get("workloads", {}).get(name)
        if pin is None:
            failures.append(f"{name}: no pinned row")
            continue
        checks = [("events", row["events"], pin["events"]),
                  ("allocs_per_op", row["allocs_per_op"],
                   round(pin["allocs_per_op"] * (1 + ALLOC_TOLERANCE), 3))]
        checks += [(key, row["kernel_counters"].get(key, 0), ceiling)
                   for key, ceiling in pin["kernel_counters"].items()]
        failures += [f"{name}: {what} {got} above pin {ceiling}"
                     for what, got, ceiling in checks if got > ceiling]
    if failures:
        return False, failures
    return True, ["gate OK: events, allocs/op and kernel counters of every "
                  "workload within their pins"]


def _print_summary(report: Dict[str, Any]) -> None:
    print(f"{'workload':<16}{'ops':>9}{'events':>10}{'ev/s':>10}"
          f"{'ops/s':>10}{'allocs/op':>11}")
    for name, row in report["workloads"].items():
        print(f"{name:<16}{row['ops']:>9}{row['events']:>10,}"
              f"{row['events_per_sec']:>10,}{row['ops_per_sec']:>10,}"
              f"{row['allocs_per_op']:>11}")
    totals = report["totals"]
    print(f"total: {totals['events']:,} events in {totals['wall_s']:.3f}s "
          f"({totals['events_per_sec']:,} ev/s, ungated)")


# ------------------------------------------------------ dual-clock off gate

def zero_cost_check(n_calls: int = 8) -> Tuple[bool, List[str]]:
    """Dual-clock capture must be completely cold when no tracer is bound.

    Runs the small streaming workload on a :class:`ThreadPoolBackend`
    twice.  Untraced, the wall-capture paths must allocate *nothing* per
    event: no per-task record dicts, no work-closure wrapping, no span
    annotations (``wall_records`` empty, ``wall.*`` counters zero).
    Traced, the same backend code must capture every settled task — the
    positive control proving the check can fail.
    """
    from repro.bench.parallel import streaming_system
    from repro.obs.tracer import RecordingTracer

    ok = True
    messages: List[str] = []

    system = streaming_system(streamed=True, workers=2, n_calls=n_calls,
                              n_servers=2, realize_scale=0.001, tracer=None)
    system.run()
    off = system.backend.counters()
    if system.backend.wall_records:
        ok = False
        messages.append(
            f"zero-cost-off: {len(system.backend.wall_records)} wall "
            f"records captured with no tracer bound")
    for key in ("wall.records", "wall.annotated", "wall.labor_ms",
                "wall.gate_block_ms"):
        if off.get(key, 0) != 0:
            ok = False
            messages.append(
                f"zero-cost-off: counter {key} = {off[key]} with no "
                f"tracer bound")
    if off.get("exec.tasks_submitted", 0) == 0:
        ok = False
        messages.append("zero-cost-off: workload submitted no pool tasks "
                        "(check is vacuous)")

    system = streaming_system(streamed=True, workers=2, n_calls=n_calls,
                              n_servers=2, realize_scale=0.001,
                              tracer=RecordingTracer())
    system.run()
    on = system.backend.counters()
    if on.get("wall.records", 0) != on.get("exec.tasks_completed", 0):
        ok = False
        messages.append(
            f"zero-cost-off control: traced run captured "
            f"{on.get('wall.records', 0)} records for "
            f"{on.get('exec.tasks_completed', 0)} settled tasks")
    if ok:
        messages.append(
            f"zero-cost-off OK: {off['exec.tasks_submitted']} untraced pool "
            f"tasks captured nothing; traced control recorded "
            f"{on['wall.records']}/{on['exec.tasks_completed']}")
    return ok, messages


# --------------------------------------------------------------- profiling

def profile_kernel(out_path: Optional[str], scale: float) -> int:
    """cProfile the kernel workloads; dump stats + top-20 table."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    for _name, fn, _size in WORKLOADS:
        fn(int(100_000 * scale))
    profiler.disable()
    if out_path is None:
        results_dir = os.path.join(REPO_ROOT, "benchmarks", "results")
        os.makedirs(results_dir, exist_ok=True)
        out_path = os.path.join(results_dir, "kernel_profile.pstats")
    profiler.dump_stats(out_path)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    print("top 20 by cumulative time (kernel workloads):")
    stats.print_stats(20)
    print(f"profile written: {out_path}")
    return 0


# ----------------------------------------------------------------- harness

def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Kernel throughput bench: events/sec of repro.sim.")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output JSON path (default: BENCH_kernel.json "
                             "at the repo root)")
    parser.add_argument("--check-only", action="store_true",
                        help="gate against the pin without rewriting it")
    parser.add_argument("--smoke", action="store_true",
                        help="--check-only with one repeat, for make test")
    parser.add_argument("--profile", nargs="?", const="", default=None,
                        metavar="FILE",
                        help="emit a cProfile dump (+top-20 cumulative "
                             "table) of the kernel workloads")
    args = parser.parse_args(argv)

    if args.profile is not None:
        return profile_kernel(args.profile or None,
                              scale=0.2 if args.smoke else 1.0)

    pinned: Optional[Dict[str, Any]] = None
    if os.path.exists(args.out):
        with open(args.out) as fh:
            pinned = json.load(fh)

    report = run_bench(repeats=1 if args.smoke else 3)
    ok, messages = gate(report, pinned)
    zc_ok, zc_messages = zero_cost_check()
    _print_summary(report)
    for msg in messages + zc_messages:
        print(msg)
    if not (args.check_only or args.smoke):
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if ok and zc_ok else 1


if __name__ == "__main__":
    sys.exit(main())
