"""The paper's contribution: the optimistic parallelization runtime.

Implements §3–§4 of Bacon & Strom (PPOPP 1991): forks with commit-guard
predicates, guard propagation on messages, value-fault and time-fault
detection, the commit dependency graph with PRECEDENCE resolution,
incarnation numbers, rollback by logged replay, output commit for external
messages, and the liveness limit L.
"""

from repro.core.config import (
    CheckpointPolicy,
    DeliveryHeuristic,
    GovernorConfig,
    OptimisticConfig,
    ResilienceConfig,
)
from repro.core.snapshot import CowState, Snapshotter, StateSnapshot
from repro.core.governor import SpeculationGovernor
from repro.core.guess import GuessId, IncarnationTable
from repro.core.guards import GuardSet
from repro.core.history import GuessStatus, PeerView, SystemView
from repro.core.cdg import CommitDependencyGraph
from repro.core.messages import (
    AbortMsg,
    AckMsg,
    CommitMsg,
    DataEnvelope,
    PrecedenceMsg,
    QueryMsg,
    Wire,
)
from repro.core.system import OptimisticResult, OptimisticSystem
from repro.core.transport import ReliableTransport
from repro.core.streaming import make_call_chain, stream_plan

__all__ = [
    "OptimisticConfig",
    "CheckpointPolicy",
    "DeliveryHeuristic",
    "GovernorConfig",
    "ResilienceConfig",
    "SpeculationGovernor",
    "ReliableTransport",
    "Snapshotter",
    "StateSnapshot",
    "CowState",
    "GuessId",
    "IncarnationTable",
    "GuardSet",
    "GuessStatus",
    "PeerView",
    "SystemView",
    "CommitDependencyGraph",
    "DataEnvelope",
    "CommitMsg",
    "AbortMsg",
    "PrecedenceMsg",
    "QueryMsg",
    "Wire",
    "AckMsg",
    "OptimisticSystem",
    "OptimisticResult",
    "make_call_chain",
    "stream_plan",
]
