"""Two protocol workloads of ``benchmarks/e2e``, at any size and seed.

The cost gates, the cycle-check differential and the hash-seed test build
the shapes the end-to-end bench measures, without importing the bench.
"""

from repro.core import OptimisticSystem, stream_plan
from repro.core.config import OptimisticConfig, ResilienceConfig
from repro.sim.faults import FaultPlan, LinkFaults
from repro.sim.network import FixedLatency
from repro.workloads.generators import ChainSpec, chain_workload
from repro.workloads.random_duplex import DuplexSpec, build_duplex_system


def lossy_chain(n_calls, seed, tracer=None):
    """``chain_lossy``: a streamed call chain through 4 servers over links
    that drop 8%, duplicate 8% and reorder 15% of data and control frames."""
    spec = ChainSpec(n_calls=n_calls, n_servers=4, latency=5.0,
                     service_time=1.0, seed=seed)
    link = LinkFaults(drop_p=0.08, dup_p=0.08, reorder_p=0.15)
    client, servers = chain_workload(spec)
    system = OptimisticSystem(
        FixedLatency(spec.latency),
        config=OptimisticConfig(resilience=ResilienceConfig()),
        faults=FaultPlan(seed=seed, data=link, control=link), tracer=tracer)
    system.add_program(client, stream_plan(client))
    for server in servers:
        system.add_program(server)
    return system


def duplex_abort(n_steps, seed, tracer=None):
    """``duplex_abort``: two mutually speculative clients of two shared
    servers, most of whose guesses abort."""
    return build_duplex_system(
        DuplexSpec(n_steps=n_steps, n_signals=n_steps // 4, n_servers=2,
                   wrong_guess_bias=3, seed=seed),
        optimistic=True, tracer=tracer)
