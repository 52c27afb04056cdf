"""Chaos harness: randomized fault schedules with hard correctness gates.

The resilience claim of the hardened runtime is absolute, not statistical:
under every *recoverable* fault schedule (message drop, duplication,
reordering, latency spikes, process crash/restart) the optimistic system
must terminate, commit, and deliver external output byte-equivalent to the
fault-free sequential reference, with zero orphan guesses at quiescence.
This bench makes that claim executable:

1. **Schedules** — :data:`N_SCHEDULES` seeded fault plans (each combining
   drop + duplication + reordering + a crash) over randomized programs
   (:mod:`repro.workloads.random_programs`).  All decisions derive from
   the schedule seed, so every run of this bench sees identical faults
   and the emitted ``BENCH_chaos.json`` is byte-stable.
2. **Overhead** — with faults *disabled*, the resilience machinery must be
   nearly free: the fig3 streaming makespan under
   :class:`~repro.core.config.ResilienceConfig` may exceed the default
   configuration's by at most :data:`FIG3_OVERHEAD_LIMIT` (the baseline is
   computed in-bench from the same code).
3. **Governor** — on a call chain with a burst of mid-stream failures, the
   adaptive governor must *degrade* (fewer aborts than the ungoverned run,
   with forks demonstrably throttled) and *recover* (post-burst per-call
   pace within :data:`GOV_TAIL_TOLERANCE` of the clean ungoverned
   baseline, i.e. the admission window reopened).
4. **Exec faults** — :data:`N_EXEC_SCHEDULES` seeded *executor* fault
   plans (:class:`~repro.sim.faults.ExecFaultPlan`: worker kills
   mid-flight, hangs past the watchdog deadline, poison payloads, lost
   results) run on a real :class:`~repro.exec.pool.ThreadPoolBackend`
   under :class:`~repro.exec.watchdog.RecoveryPolicy`.  Gates: committed
   output byte-equal to the fault-free sequential reference, virtual
   makespan *equal* to the fault-free :class:`VirtualTimeBackend` oracle
   (zero makespan inflation in virtual time — recovery is invisible to
   the DES), zero orphan tasks at quiescence, and a nonzero aggregate
   injected-fault count (the plans must actually bite).  A dedicated
   schedule additionally demotes the pool mid-run via
   :class:`~repro.exec.watchdog.FallbackPolicy` and must still commit
   byte-equal output.

Usage::

    PYTHONPATH=src python -m repro.bench.chaos             # full bench + pin
    PYTHONPATH=src python -m repro.bench.chaos --check-only
    PYTHONPATH=src python -m repro.bench.chaos --smoke     # 3 seeds, no pin
    PYTHONPATH=src python -m repro chaos --seed 7          # one schedule

Exit status 1 on any gate failure.  The pinned ``BENCH_chaos.json`` is
read *before* it is rewritten, so a regressing run still fails after
refreshing the file for inspection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.analyze.soundness import check_system
from repro.core.config import GovernorConfig, OptimisticConfig, ResilienceConfig
from repro.core.invariants import validate_run
from repro.obs.access import AccessTracker
from repro.core.system import OptimisticSystem
from repro.core.streaming import make_call_chain, stream_plan
from repro.csp.process import server_program
from repro.exec.pool import ThreadPoolBackend
from repro.exec.watchdog import FallbackPolicy, RecoveryPolicy
from repro.sim.faults import (
    CrashSpec,
    ExecFaultPlan,
    FaultPlan,
    LinkFaults,
    TaskFaults,
    WorkerKillSpec,
)
from repro.sim.network import FixedLatency
from repro.trace.events import RECV
from repro.workloads.random_programs import (
    RandomProgramSpec,
    build_random_system,
)
from repro.workloads.scenarios import run_fig3_streaming

#: How many seeded fault schedules the full bench runs.
N_SCHEDULES = 24
#: The seeds ``--smoke`` runs (fast enough for `make test`).
SMOKE_SEEDS = (0, 7, 19)
#: Max fractional fig3 makespan regression with resilience on, faults off.
FIG3_OVERHEAD_LIMIT = 0.02
#: Max fractional post-burst slowdown of the governed run vs clean baseline.
GOV_TAIL_TOLERANCE = 0.05
#: Relative headroom the pin gate allows on fig3 overhead.
GATE_TOLERANCE = 0.10
GATE_ABS_SLACK = 1e-6

#: How many seeded executor-fault schedules the full bench runs.
N_EXEC_SCHEDULES = 6
#: The exec seeds ``--smoke`` runs: seed 0 is kill-dominated, seed 1 adds
#: hangs past the watchdog deadline — one kill + one hang schedule.
EXEC_SMOKE_SEEDS = (0, 1)
#: Pool shape for the exec-fault schedules.  ``EXEC_REALIZE_SCALE`` keeps
#: real labor tiny (a virtual unit -> 2 ms of sleep) so the sweep stays
#: fast while still exercising genuine pool submits and cancellations.
EXEC_WORKERS = 4
EXEC_REALIZE_SCALE = 0.002
#: Watchdog deadline (wall seconds) for exec schedules; hung tasks stall
#: ``EXEC_HANG_EXTRA`` seconds — safely past deadline + grace, so every
#: injected hang is detected, abandoned, and the label quarantined.
EXEC_DEADLINE = 0.08
EXEC_GRACE = 0.05
EXEC_HANG_EXTRA = 0.2

#: src/repro/bench/chaos.py -> repository root.
REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_chaos.json")


def _det(seed: int, *parts: Any) -> int:
    """Deterministic pseudo-random int from (seed, parts)."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def _frac(seed: int, *parts: Any) -> float:
    return (_det(seed, *parts) % 1000) / 1000.0


# ---------------------------------------------------------------- schedules

def fault_schedule(seed: int) -> Tuple[RandomProgramSpec, FaultPlan]:
    """Derive one (workload, fault plan) pair from a schedule seed.

    Every schedule exercises all four fault classes at once — drop,
    duplication, reordering, and one crash/restart — with seed-varied
    rates, crash victim, and crash time, so the sweep covers crashes of
    the speculating client and of servers holding its journal-replayable
    conversations.
    """
    spec = RandomProgramSpec(
        n_segments=5 + _det(seed, "segs") % 3,
        n_servers=2,
        seed=seed,
        guess_accuracy_bias=2 + _det(seed, "bias") % 3,
    )
    victims = ["client"] + spec.server_names()
    crash = CrashSpec(
        process=victims[_det(seed, "victim") % len(victims)],
        at=5.0 + _frac(seed, "crash_at") * 30.0,
        restart_after=10.0 + _frac(seed, "downtime") * 30.0,
    )
    plan = FaultPlan(
        seed=seed,
        data=LinkFaults(
            drop_p=0.02 + _frac(seed, "d.drop") * 0.10,
            dup_p=0.02 + _frac(seed, "d.dup") * 0.10,
            reorder_p=0.05 + _frac(seed, "d.re") * 0.20,
            spike_p=0.05 * _frac(seed, "d.spike"),
        ),
        control=LinkFaults(
            drop_p=0.02 + _frac(seed, "c.drop") * 0.12,
            dup_p=0.02 + _frac(seed, "c.dup") * 0.12,
            reorder_p=0.05 + _frac(seed, "c.re") * 0.20,
        ),
        crashes=[crash],
    )
    return spec, plan


def chaos_config() -> OptimisticConfig:
    """The hardened configuration every schedule runs under.

    ``static_effects`` is on: the chaos sweep is where the certified
    shortcuts (deferred guesses, commutative repair, guess-free commits)
    must prove themselves — every schedule still gates on byte-equal
    output, and the attached soundness monitor gates on zero
    certification violations.
    """
    return OptimisticConfig(
        resilience=ResilienceConfig(),
        governor=GovernorConfig(),
        static_effects=True,
    )


def run_schedule(seed: int) -> Dict[str, Any]:
    """Run one fault schedule; returns its (gateable) report row."""
    spec, plan = fault_schedule(seed)
    seq = build_random_system(spec, optimistic=False).run()
    system = build_random_system(
        spec, optimistic=True, config=chaos_config(), faults=plan,
        access=AccessTracker())
    result = system.run()

    invariant_problems: List[str] = []
    try:
        validate_run(system)
    except Exception as exc:  # ProtocolError carries the problem list
        invariant_problems = str(exc).splitlines()

    expected = seq.sink_output("display")
    got = result.sink_output("display")
    stats = result.stats.counters
    return {
        "seed": seed,
        "crash": {"process": plan.crashes[0].process,
                  "at": round(plan.crashes[0].at, 3),
                  "restart_after": round(plan.crashes[0].restart_after, 3)},
        "equivalent": got == expected,
        "unresolved": list(result.unresolved),
        "invariant_problems": invariant_problems,
        "certification_violations": [
            v.describe() for v in check_system(system)
        ],
        "sequential_output": expected,
        "committed_output": got,
        "makespan": round(result.makespan, 6),
        "counters": {
            key: stats.get(key, 0)
            for key in (
                "opt.forks", "opt.aborts", "opt.crashes", "opt.restarts",
                "opt.crash_replays", "opt.orphans_discarded",
                "opt.control_duplicates", "opt.data_duplicates",
                "opt.orphan_queries", "opt.query_replies",
                "net.retransmits", "net.frames_deduped",
                "faults.data.dropped", "faults.control.dropped",
                "faults.data.duplicated", "faults.control.duplicated",
                "faults.data.reordered", "faults.control.reordered",
            )
        },
    }


def schedule_ok(row: Dict[str, Any]) -> bool:
    return (
        row["equivalent"]
        and not row["unresolved"]
        and not row["invariant_problems"]
        and not row["certification_violations"]
    )


# ------------------------------------------------------ exec-fault schedules

def exec_fault_schedule(seed: int) -> Tuple[RandomProgramSpec, ExecFaultPlan]:
    """Derive one (workload, executor fault plan) pair from a seed.

    Every schedule injects worker kills and lost results plus one
    *scheduled* kill of an in-flight task; odd seeds add hangs past the
    watchdog deadline; every third seed adds poison payloads (which must
    reach quarantine).  Workload seeds are offset so the exec sweep does
    not reuse the network-fault programs.
    """
    spec = RandomProgramSpec(
        n_segments=5 + _det(seed, "x.segs") % 3,
        n_servers=2,
        seed=1000 + seed,
        guess_accuracy_bias=2 + _det(seed, "x.bias") % 3,
    )
    tasks = TaskFaults(
        kill_p=0.15 + _frac(seed, "x.kill") * 0.25,
        hang_p=(0.20 + _frac(seed, "x.hang") * 0.15) if seed % 2 else 0.0,
        hang_extra=EXEC_HANG_EXTRA,
        poison_p=(0.10 + _frac(seed, "x.poison") * 0.15)
        if seed % 3 == 2 else 0.0,
        lose_result_p=0.05 + _frac(seed, "x.lose") * 0.15,
    )
    plan = ExecFaultPlan(
        seed=seed,
        tasks=tasks,
        kills=[WorkerKillSpec(at=2.0 + _frac(seed, "x.kill_at") * 10.0)],
    )
    return spec, plan


def exec_recovery() -> RecoveryPolicy:
    """The recovery policy every exec schedule runs under."""
    return RecoveryPolicy(deadline=EXEC_DEADLINE, grace=EXEC_GRACE,
                          max_retries=3, quarantine_after=2)


def run_exec_schedule(seed: int) -> Dict[str, Any]:
    """Run one exec-fault schedule; returns its (gateable) report row.

    Three runs of the same seeded workload: the fault-free sequential
    reference (output oracle), the fault-free default-backend optimistic
    run (virtual-makespan oracle), and the faulted thread-pool run under
    recovery.  Recovery must be invisible in virtual time and byte-equal
    in output.
    """
    spec, plan = exec_fault_schedule(seed)
    seq = build_random_system(spec, optimistic=False).run()
    oracle = build_random_system(
        spec, optimistic=True, config=chaos_config()).run()
    backend = ThreadPoolBackend(
        EXEC_WORKERS, realize_scale=EXEC_REALIZE_SCALE,
        exec_faults=plan, recovery=exec_recovery())
    system = build_random_system(
        spec, optimistic=True, config=chaos_config(), backend=backend,
        access=AccessTracker())
    result = system.run()

    invariant_problems: List[str] = []
    try:
        validate_run(system)
    except Exception as exc:  # ProtocolError carries the problem list
        invariant_problems = str(exc).splitlines()

    expected = seq.sink_output("display")
    got = result.sink_output("display")
    stats = result.stats.counters
    injected = (backend.kills_injected + backend.hangs_injected
                + backend.poison_injected + backend.results_lost
                + backend.sched_kills)
    return {
        "seed": seed,
        "plan": {"kill_p": round(plan.tasks.kill_p, 3),
                 "hang_p": round(plan.tasks.hang_p, 3),
                 "poison_p": round(plan.tasks.poison_p, 3),
                 "lose_result_p": round(plan.tasks.lose_result_p, 3),
                 "sched_kill_at": round(plan.kills[0].at, 3)},
        "equivalent": got == expected,
        "makespan_equal": result.makespan == oracle.makespan,
        "oracle_makespan": round(oracle.makespan, 6),
        "makespan": round(result.makespan, 6),
        "orphan_tasks": backend.pending(),
        "unresolved": list(result.unresolved),
        "invariant_problems": invariant_problems,
        "certification_violations": [
            v.describe() for v in check_system(system)
        ],
        "faults_injected": injected,
        "task_failures": len(backend.task_errors),
        "counters": {
            key: stats.get(key, 0)
            for key in (
                "exec.tasks_submitted", "exec.tasks_cancelled",
                "exec.fault.kills_injected", "exec.fault.hangs_injected",
                "exec.fault.poison_injected", "exec.fault.results_lost",
                "exec.fault.sched_kills", "exec.fault.quarantined",
                "exec.fault.quarantine_skips", "exec.retry.attempts",
                "exec.retry.respawns", "exec.retry.exhausted",
                "exec.watchdog.timeouts", "exec.watchdog.abandoned",
                "exec.task_errors",
            )
        },
    }


def exec_schedule_ok(row: Dict[str, Any]) -> bool:
    return (
        row["equivalent"]
        and row["makespan_equal"]
        and row["orphan_tasks"] == 0
        and not row["unresolved"]
        and not row["invariant_problems"]
        and not row["certification_violations"]
    )


def exec_fallback_report() -> Dict[str, Any]:
    """Graceful degradation: demote a sick pool mid-run, stay byte-equal.

    The hang-heavy smoke schedule runs under a one-strike
    :class:`FallbackPolicy`: the first fault event demotes the backend to
    virtual-time passthrough.  The demoted run must actually demote, drain
    every in-flight handle, and still commit output byte-equal to the
    fault-free oracle at the oracle's makespan.
    """
    spec, plan = exec_fault_schedule(1)
    oracle = build_random_system(
        spec, optimistic=True, config=chaos_config()).run()
    recovery = RecoveryPolicy(deadline=EXEC_DEADLINE, grace=EXEC_GRACE,
                              max_retries=1, quarantine_after=1,
                              fallback=FallbackPolicy(max_faults=1))
    backend = ThreadPoolBackend(
        EXEC_WORKERS, realize_scale=EXEC_REALIZE_SCALE,
        exec_faults=plan, recovery=recovery)
    system = build_random_system(
        spec, optimistic=True, config=chaos_config(), backend=backend)
    result = system.run()
    equal = (result.sink_output("display") == oracle.sink_output("display"))
    return {
        "demoted": backend.fallen_back,
        "fallback_reason": backend.fallback_reason,
        "virtual_segments": backend.fallback_virtual,
        "outputs_equal": equal,
        "makespan_equal": result.makespan == oracle.makespan,
        "orphan_tasks": backend.pending(),
        "ok": bool(backend.fallen_back and equal
                   and result.makespan == oracle.makespan
                   and backend.pending() == 0),
    }


# ----------------------------------------------------- resilience overhead

def fig3_overhead() -> Dict[str, Any]:
    """Makespan cost of the resilience machinery when nothing faults.

    Both sides are computed here from the same code: the default
    configuration vs. resilience on (acks, retransmission timers, dedup)
    with no fault plan.
    """
    base = run_fig3_streaming().optimistic.makespan
    hardened = run_fig3_streaming(
        config=OptimisticConfig(resilience=ResilienceConfig())
    ).optimistic.makespan
    overhead = (hardened - base) / base if base else 0.0
    return {
        "baseline_makespan": round(base, 6),
        "resilient_makespan": round(hardened, 6),
        "overhead_fraction": round(overhead, 6),
        "limit": FIG3_OVERHEAD_LIMIT,
        "ok": overhead < FIG3_OVERHEAD_LIMIT,
    }


# ------------------------------------------------------------ governor gate

#: Chain shape for the governor experiment: a burst of guaranteed failures
#: mid-stream, clean traffic before and after.  Latency is short (1.0) so
#: full streaming needs only a modest admission window — the recovered
#: governor can reach line rate inside the run.
GOV_N_CALLS = 60
GOV_BURST = (10, 22)   # failing request indices [lo, hi)
GOV_TAIL_LAST = 10     # steady-state window: the last N calls
GOV_LATENCY = 1.0


def _burst_server(name: str, burst: Optional[Tuple[int, int]],
                  service_time: float = 1.0):
    """Server failing exactly the requests whose index falls in ``burst``.

    Keying on the request payload (not arrival order or time) keeps the
    failure set identical across re-deliveries and rollbacks.
    """
    lo, hi = burst if burst is not None else (0, 0)

    def handler(state, req):
        idx = int(str(req.args[0])[3:])  # "req12" -> 12
        ok = not (lo <= idx < hi)
        if ok:
            state.setdefault("served", []).append((req.op,) + tuple(req.args))
        return ok

    return server_program(name, handler, service_time=service_time)


def _run_gov_chain(*, burst: Optional[Tuple[int, int]],
                   governed: bool, service_time: float = 1.0):
    calls = [(f"S{i % 2}", "op", (f"req{i}",)) for i in range(GOV_N_CALLS)]
    client = make_call_chain("client", calls)
    config = OptimisticConfig(
        # probes every few round-trips so recovery is observable in-run;
        # max_depth must cover steady-state outstanding guesses (own-guess
        # resolution includes COMMIT propagation, not just the reply), else
        # the recovered window itself caps throughput below line rate
        governor=GovernorConfig(probe_interval=10.0, increase=1.0,
                                max_depth=16)
        if governed else None,
        # enough retries that the burst stresses the governor, not the
        # per-site §3.3 fallback
        max_optimistic_retries=GOV_N_CALLS,
    )
    system = OptimisticSystem(FixedLatency(GOV_LATENCY), config=config)
    system.add_program(client, stream_plan(client))
    for name in ("S0", "S1"):
        system.add_program(_burst_server(name, burst,
                                         service_time=service_time))
    return system.run()


def _tail_pace(result, tail_start: int) -> float:
    """Mean committed inter-reply time for calls at index >= tail_start."""
    times = sorted(
        ev.time for ev in result.trace
        if ev.kind == RECV and ev.dst == "client"
        and ev.porder[0] >= tail_start
    )
    if len(times) < 2:
        return float("inf")
    return (times[-1] - times[0]) / (len(times) - 1)


def governor_report() -> Dict[str, Any]:
    """Degrade-and-recover evidence for the speculation governor."""
    ungoverned = _run_gov_chain(burst=GOV_BURST, governed=False)
    governed = _run_gov_chain(burst=GOV_BURST, governed=True)
    clean = _run_gov_chain(burst=None, governed=False)

    aborts_off = ungoverned.stats.get("opt.aborts")
    aborts_on = governed.stats.get("opt.aborts")
    throttled = governed.stats.get("gov.forks_throttled")
    tail_start = GOV_N_CALLS - GOV_TAIL_LAST
    clean_pace = _tail_pace(clean, tail_start)
    governed_pace = _tail_pace(governed, tail_start)
    recovery = (
        governed_pace <= clean_pace * (1.0 + GOV_TAIL_TOLERANCE)
    )
    return {
        "burst": list(GOV_BURST),
        "aborts_ungoverned": aborts_off,
        "aborts_governed": aborts_on,
        "forks_throttled": throttled,
        "degrades": aborts_on < aborts_off and throttled > 0,
        "clean_tail_pace": round(clean_pace, 6),
        "governed_tail_pace": round(governed_pace, 6),
        "tail_tolerance": GOV_TAIL_TOLERANCE,
        "recovers": recovery,
        "makespan_ungoverned": round(ungoverned.makespan, 6),
        "makespan_governed": round(governed.makespan, 6),
        "ok": bool(aborts_on < aborts_off and throttled > 0 and recovery),
    }


# ------------------------------------------------------------------ report

def run_bench(seeds: Optional[List[int]] = None,
              full: bool = True,
              exec_seeds: Optional[List[int]] = None) -> Dict[str, Any]:
    """Run the chaos schedules (and, when ``full``, the extra gates)."""
    if seeds is None:
        seeds = list(range(N_SCHEDULES))
    if exec_seeds is None:
        exec_seeds = list(range(N_EXEC_SCHEDULES))
    report: Dict[str, Any] = {
        "meta": {
            "n_schedules": len(seeds),
            "seeds": list(seeds),
            "exec_seeds": list(exec_seeds),
            "exec_workers": EXEC_WORKERS,
            "exec_deadline": EXEC_DEADLINE,
            "fig3_overhead_limit": FIG3_OVERHEAD_LIMIT,
            "gov_tail_tolerance": GOV_TAIL_TOLERANCE,
            "gate_tolerance": GATE_TOLERANCE,
        },
        "schedules": [run_schedule(seed) for seed in seeds],
        "exec_faults": {
            "schedules": [run_exec_schedule(seed) for seed in exec_seeds],
            "fallback": exec_fallback_report(),
        },
    }
    if full:
        report["fig3_overhead"] = fig3_overhead()
        report["governor"] = governor_report()
    return report


def gate(report: Dict[str, Any],
         pinned: Optional[Dict[str, Any]]) -> Tuple[bool, List[str]]:
    """Hard gates (absolute) plus the pin-relative fig3 regression check."""
    ok = True
    messages: List[str] = []
    for row in report["schedules"]:
        if schedule_ok(row):
            continue
        ok = False
        if not row["equivalent"]:
            messages.append(
                f"seed {row['seed']}: committed output diverged from the "
                f"sequential reference "
                f"({row['committed_output']} != {row['sequential_output']})")
        if row["unresolved"]:
            messages.append(
                f"seed {row['seed']}: unresolved processes at quiescence: "
                f"{row['unresolved']}")
        for problem in row["invariant_problems"]:
            messages.append(f"seed {row['seed']}: {problem}")
        for violation in row["certification_violations"]:
            messages.append(f"seed {row['seed']}: {violation}")
    n_ok = sum(1 for row in report["schedules"] if schedule_ok(row))
    n_violations = sum(len(row["certification_violations"])
                       for row in report["schedules"])
    messages.append(
        f"schedules: {n_ok}/{len(report['schedules'])} equivalent, "
        f"orphan-free, invariant-clean "
        f"({n_violations} certification violations)")

    exec_section = report.get("exec_faults")
    if exec_section is not None:
        rows = exec_section["schedules"]
        for row in rows:
            if exec_schedule_ok(row):
                continue
            ok = False
            if not row["equivalent"]:
                messages.append(
                    f"exec seed {row['seed']}: committed output diverged "
                    f"from the sequential reference under executor faults")
            if not row["makespan_equal"]:
                messages.append(
                    f"exec seed {row['seed']}: virtual makespan inflated by "
                    f"recovery ({row['makespan']:g} != oracle "
                    f"{row['oracle_makespan']:g})")
            if row["orphan_tasks"]:
                messages.append(
                    f"exec seed {row['seed']}: {row['orphan_tasks']} orphan "
                    f"pool task(s) at quiescence")
            if row["unresolved"]:
                messages.append(
                    f"exec seed {row['seed']}: unresolved processes: "
                    f"{row['unresolved']}")
            for problem in row["invariant_problems"]:
                messages.append(f"exec seed {row['seed']}: {problem}")
            for violation in row["certification_violations"]:
                messages.append(f"exec seed {row['seed']}: {violation}")
        injected = sum(row["faults_injected"] for row in rows)
        if rows and injected == 0:
            ok = False
            messages.append(
                "exec faults: no faults injected across the sweep — the "
                "plans never bit, the gates are vacuous")
        n_exec_ok = sum(1 for row in rows if exec_schedule_ok(row))
        messages.append(
            f"exec schedules: {n_exec_ok}/{len(rows)} equivalent, "
            f"orphan-free, makespan-exact ({injected} faults injected)")
        fb = exec_section.get("fallback")
        if fb is not None and not fb["ok"]:
            ok = False
            messages.append(
                f"exec fallback: demoted={fb['demoted']} "
                f"outputs_equal={fb['outputs_equal']} "
                f"makespan_equal={fb['makespan_equal']} "
                f"orphans={fb['orphan_tasks']}")

    fig3 = report.get("fig3_overhead")
    if fig3 is not None:
        if not fig3["ok"]:
            ok = False
            messages.append(
                f"fig3: resilience overhead {fig3['overhead_fraction']:.4f} "
                f"exceeds limit {fig3['limit']:.2f}")
        if pinned and "fig3_overhead" in pinned:
            old = pinned["fig3_overhead"].get("overhead_fraction", 0.0)
            limit = old * (1.0 + GATE_TOLERANCE) + GATE_ABS_SLACK
            new = fig3["overhead_fraction"]
            if new > limit:
                ok = False
                messages.append(
                    f"fig3: overhead regressed vs pin {old:g} -> {new:g} "
                    f"(limit {limit:g})")

    gov = report.get("governor")
    if gov is not None and not gov["ok"]:
        ok = False
        if not gov["degrades"]:
            messages.append(
                f"governor: no degradation — aborts "
                f"{gov['aborts_ungoverned']} -> {gov['aborts_governed']}, "
                f"throttled {gov['forks_throttled']}")
        if not gov["recovers"]:
            messages.append(
                f"governor: tail pace {gov['governed_tail_pace']:g} not "
                f"within {gov['tail_tolerance']:.0%} of clean "
                f"{gov['clean_tail_pace']:g}")
    if ok:
        messages.append("gate OK: all chaos gates passed")
    return ok, messages


def _print_summary(report: Dict[str, Any]) -> None:
    print(f"{'seed':>5}{'crash':>10}{'equiv':>7}{'aborts':>8}"
          f"{'retrans':>9}{'dedup':>7}{'queries':>9}{'makespan':>10}")
    for row in report["schedules"]:
        c = row["counters"]
        print(f"{row['seed']:>5}{row['crash']['process']:>10}"
              f"{str(row['equivalent']):>7}{c['opt.aborts']:>8}"
              f"{c['net.retransmits']:>9}{c['net.frames_deduped']:>7}"
              f"{c['opt.orphan_queries']:>9}{row['makespan']:>10.1f}")
    exec_section = report.get("exec_faults")
    if exec_section:
        print(f"{'xseed':>5}{'equiv':>7}{'mkeq':>6}{'inj':>5}{'retry':>7}"
              f"{'quar':>6}{'aband':>7}{'fail':>6}{'orph':>6}")
        for row in exec_section["schedules"]:
            c = row["counters"]
            print(f"{row['seed']:>5}{str(row['equivalent']):>7}"
                  f"{str(row['makespan_equal']):>6}"
                  f"{row['faults_injected']:>5}"
                  f"{c['exec.retry.attempts']:>7}"
                  f"{c['exec.fault.quarantined']:>6}"
                  f"{c['exec.watchdog.abandoned']:>7}"
                  f"{row['task_failures']:>6}{row['orphan_tasks']:>6}")
        fb = exec_section.get("fallback")
        if fb:
            print(f"exec fallback: demoted={fb['demoted']} "
                  f"({fb['virtual_segments']} virtual segment(s)), "
                  f"byte-equal={fb['outputs_equal']}")
    fig3 = report.get("fig3_overhead")
    if fig3:
        print(f"fig3 resilience overhead: {fig3['overhead_fraction']:+.4%} "
              f"(limit {fig3['limit']:.0%})")
    gov = report.get("governor")
    if gov:
        print(f"governor: aborts {gov['aborts_ungoverned']} -> "
              f"{gov['aborts_governed']} (throttled "
              f"{gov['forks_throttled']}), tail pace "
              f"{gov['governed_tail_pace']:.2f} vs clean "
              f"{gov['clean_tail_pace']:.2f}")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos harness: fault schedules + correctness gates.")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output JSON path (default: BENCH_chaos.json "
                             "at the repo root)")
    parser.add_argument("--check-only", action="store_true",
                        help="gate against the pin without rewriting it")
    parser.add_argument("--smoke", action="store_true",
                        help=f"run only seeds {SMOKE_SEEDS} with no pin "
                             "update (fast; used by `make chaos-smoke`)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run a single schedule seed and print its row")
    parser.add_argument("--exec-seed", type=int, default=None,
                        help="run a single executor-fault schedule seed "
                             "and print its row")
    args = parser.parse_args(argv)

    if args.seed is not None:
        row = run_schedule(args.seed)
        print(json.dumps(row, indent=2, sort_keys=True))
        return 0 if schedule_ok(row) else 1

    if args.exec_seed is not None:
        row = run_exec_schedule(args.exec_seed)
        print(json.dumps(row, indent=2, sort_keys=True))
        return 0 if exec_schedule_ok(row) else 1

    if args.smoke:
        report = run_bench(seeds=list(SMOKE_SEEDS), full=True,
                           exec_seeds=list(EXEC_SMOKE_SEEDS))
        ok, messages = gate(report, pinned=None)
        _print_summary(report)
        for msg in messages:
            print(msg)
        return 0 if ok else 1

    pinned: Optional[Dict[str, Any]] = None
    if os.path.exists(args.out):
        with open(args.out) as fh:
            pinned = json.load(fh)

    report = run_bench()
    ok, messages = gate(report, pinned)
    _print_summary(report)
    for msg in messages:
        print(msg)
    if not args.check_only:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
