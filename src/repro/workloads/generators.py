"""Synthetic workload generators for sweeps and property tests.

The central shape is the *call chain*: a client issuing N dependent calls
against one or more servers, the paper's call-streaming workload.  Servers
can be made unreliable with a seeded per-request failure probability, which
drives the abort-probability sweep (experiment C2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core import OptimisticSystem, make_call_chain, stream_plan
from repro.core.config import OptimisticConfig
from repro.core.system import OptimisticResult
from repro.csp.process import Program, server_program
from repro.csp.sequential import SequentialResult, SequentialSystem
from repro.sim.network import FixedLatency


def _request_fails(seed: int, server: str, key: str, p_fail: float) -> bool:
    """Deterministic per-request failure decision.

    Hashing (seed, server, request key) keeps the *same requests* failing
    in the sequential and optimistic runs — and across rollback-driven
    re-deliveries — so their traces stay comparable.
    """
    if p_fail <= 0.0:
        return False
    if p_fail >= 1.0:
        return True
    digest = hashlib.sha256(f"{seed}:{server}:{key}".encode()).digest()
    draw = int.from_bytes(digest[:8], "little") / float(2 ** 64)
    return draw < p_fail


def unreliable_server(
    name: str,
    *,
    service_time: float = 1.0,
    p_fail: float = 0.0,
    seed: int = 0,
) -> Program:
    """A request/reply server that fails a seeded fraction of requests.

    Failure means replying ``False`` (the value the chain's streaming plan
    never guesses), triggering a value fault in the optimistic run.
    The failure decision keys on the request *payload*, not arrival order,
    so retries/rollbacks see consistent outcomes.
    """
    def handler(state, req):
        key = f"{req.op}:{tuple(req.args)!r}"
        ok = not _request_fails(seed, name, key, p_fail)
        if ok:
            state.setdefault("served", []).append((req.op,) + tuple(req.args))
        return ok

    return server_program(name, handler, service_time=service_time)


@dataclass
class ChainSpec:
    """Parameters of one call-chain workload."""

    n_calls: int = 10
    n_servers: int = 2
    latency: float = 5.0
    service_time: float = 1.0
    compute_between: float = 0.0
    p_fail: float = 0.0
    seed: int = 0
    stop_on_failure: bool = True

    def server_names(self) -> List[str]:
        return [f"S{i}" for i in range(self.n_servers)]

    def calls(self) -> List[Tuple[str, str, Tuple[Any, ...]]]:
        names = self.server_names()
        return [
            (names[i % len(names)], "op", (f"req{i}",))
            for i in range(self.n_calls)
        ]


def chain_workload(spec: ChainSpec) -> Tuple[Program, List[Program]]:
    """Build the client program and server programs for ``spec``."""
    client = make_call_chain(
        "client",
        spec.calls(),
        compute_between=spec.compute_between,
        stop_on_failure=spec.stop_on_failure,
        failure_value=False,
    )
    servers = [
        unreliable_server(
            name,
            service_time=spec.service_time,
            p_fail=spec.p_fail,
            seed=spec.seed,
        )
        for name in spec.server_names()
    ]
    return client, servers


def run_chain_sequential(spec: ChainSpec) -> SequentialResult:
    client, servers = chain_workload(spec)
    system = SequentialSystem(FixedLatency(spec.latency))
    system.add_program(client)
    for s in servers:
        system.add_program(s)
    return system.run()


def run_chain_optimistic(
    spec: ChainSpec,
    config: Optional[OptimisticConfig] = None,
    tracer=None,
) -> OptimisticResult:
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency), config=config,
                              tracer=tracer)
    system.add_program(client, stream_plan(client))
    for s in servers:
        system.add_program(s)
    return system.run()
