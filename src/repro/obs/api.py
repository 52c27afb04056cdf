"""The uniform run-result surface shared by every execution mode.

Five runtimes coexist in this repository (optimistic, sequential,
pipelining, promises, Time Warp) and each grew its own result dataclass
with its own names for "when did the run finish".  :class:`RunResult` is
the common protocol they all now satisfy:

* ``completion_time`` — virtual time the run completed;
* ``stats``           — the :class:`~repro.sim.stats.Stats` backing store;
* ``trace``           — per-message :class:`TraceEvent` list (may be empty);
* ``spans``           — observability spans (empty unless traced).
"""

from __future__ import annotations

from typing import Any, List, Protocol, runtime_checkable

from repro.sim.stats import Stats

from .spans import Span


@runtime_checkable
class RunResult(Protocol):
    """What every execution mode's result object provides."""

    completion_time: float
    stats: Stats
    trace: List[Any]
    spans: List[Span]

