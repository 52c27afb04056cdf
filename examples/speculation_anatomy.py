#!/usr/bin/env python
"""Inspect a run's speculation: depth, doubt time, cascades, memory.

Runs a 12-call streamed chain against flaky servers and uses the analysis
APIs to show what the protocol actually did — the observability a
production deployment of this system would need — and how little
speculation state the runtime keeps once each guess has settled.

Run:  python examples/speculation_anatomy.py
"""

from repro.core import OptimisticSystem, stream_plan
from repro.core.analysis import speculation_depth_series
from repro.obs.tracer import RecordingTracer
from repro.sim.network import FixedLatency
from repro.workloads.generators import ChainSpec, chain_workload


def main() -> None:
    spec = ChainSpec(n_calls=12, n_servers=2, latency=5.0,
                     service_time=0.4, p_fail=0.3, seed=21)
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency),
                              tracer=RecordingTracer())
    system.add_program(client, stream_plan(client))
    for s in servers:
        system.add_program(s)
    result = system.run()

    print(f"12-call chain, 30% flaky servers — committed at "
          f"t={result.makespan}\n")

    print("run summary:")
    for line in result.summary().lines():
        print(f"  {line}")

    print("\nspeculation depth over time:")
    series = speculation_depth_series(result.spans)
    peak = max(d for _, d in series)
    shown = set()
    for t, depth in series:
        key = (round(t, 1), depth)
        if key in shown:
            continue
        shown.add(key)
        bar = "#" * depth
        print(f"  t={t:7.2f} |{bar:<{peak}}| {depth}")

    # The runtime reclaims threads, guess records and their journals where
    # each guess settles (§3.2), so what is left is already small.
    print(f"\nretained speculation state after "
          f"{result.stats.get('opt.forks')} forks:")
    for name, rt in system.runtimes.items():
        slots = sum(len(t.journal.slots) for t in rt.threads.values())
        print(f"  {name:<8} threads={len(rt.threads)} "
              f"records={len(rt.records)} journal slots={slots}")

    print("\nfirst 12 rows of the execution diagram:")
    for line in result.timeline(title="").splitlines()[:14]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
