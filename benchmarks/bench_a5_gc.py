"""Ablation A5 — reclamation of resolved speculation state.

§3.2: a committing computation "discards any state it created for purposes
of rolling back".  The runtime does that where each guess settles, so
destroyed threads, settled records and finished left threads never pile
up.  What it leaves is a long-running server's journal, which grows by a
few slots per request served: explicit checkpoint compaction
(``OptimisticThread.rebase`` at the server loop's ``rebase_safe`` receive)
keeps that flat without changing behaviour.
"""

from repro.bench import Table, emit
from repro.core import OptimisticSystem, stream_plan
from repro.sim.network import FixedLatency
from repro.trace import assert_equivalent
from repro.workloads.generators import ChainSpec, chain_workload


def footprint(system):
    """Speculation state currently held: journal slots, threads, records."""
    runtimes = system.runtimes.values()
    return {
        "journal_slots": sum(len(t.journal.slots) for rt in runtimes
                             for t in rt.threads.values()),
        "threads": sum(len(rt.threads) for rt in runtimes),
        "records": sum(len(rt.records) for rt in runtimes),
    }


def compact(system):
    """Rebase every thread that may compact its journal now."""
    for rt in system.runtimes.values():
        for thread in list(rt.threads.values()):
            if thread.rebase_refusal() is None:
                thread.rebase()


def run(n_calls: int, compacting: bool, pause_every: float = 5.0):
    """One run, paused every ``pause_every`` virtual units to sample the
    footprint (and, if ``compacting``, to compact the servers first)."""
    spec = ChainSpec(n_calls=n_calls, n_servers=2, latency=5.0,
                     service_time=0.2, p_fail=0.2, seed=5)
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency))
    system.add_program(client, stream_plan(client))
    for s in servers:
        system.add_program(s)
    peak = {"journal_slots": 0, "threads": 0, "records": 0}
    system.start()
    t = 0.0
    while system.scheduler.queue.peek_time() is not None:
        t += pause_every
        system.scheduler.run(until=t)
        if compacting:
            compact(system)
        foot = footprint(system)
        for key in peak:
            peak[key] = max(peak[key], foot[key])
    result = system.run()
    foot = footprint(system)
    for key in peak:
        peak[key] = max(peak[key], foot[key])
    return system, result, peak


def test_a5_gc(benchmark):
    table = Table(
        "A5: retained speculation state with and without server compaction",
        ["N calls", "compaction", "peak journal slots",
         "final journal slots", "final threads", "final records"],
    )
    for n_calls in [10, 40, 80]:
        sys_off, res_off, peak_off = run(n_calls, compacting=False)
        foot_off = footprint(sys_off)
        sys_on, res_on, peak_on = run(n_calls, compacting=True)
        foot_on = footprint(sys_on)
        assert_equivalent(res_on.trace, res_off.trace)
        assert res_on.makespan == res_off.makespan
        table.add(n_calls, "off", peak_off["journal_slots"],
                  foot_off["journal_slots"], foot_off["threads"],
                  foot_off["records"])
        table.add(n_calls, "on", peak_on["journal_slots"],
                  foot_on["journal_slots"], foot_on["threads"],
                  foot_on["records"])
    # compaction keeps the servers' journals far below the uncompacted run
    sys_off, _, _ = run(80, compacting=False)
    sys_on, _, _ = run(80, compacting=True)
    assert (footprint(sys_on)["journal_slots"]
            < footprint(sys_off)["journal_slots"] / 4)
    table.note("identical traces and makespans; both arms reclaim settled "
               "threads and records at resolution, so the peak is the "
               "speculation in flight; compaction only rebases the server "
               "loops' journals")
    emit(table, "a5_gc.txt")

    benchmark(lambda: run(40, compacting=True))
