"""Trace event records.

A trace is a list of :class:`TraceEvent`.  Events carry the sending/receiving
endpoints, the payload data, the virtual time, and the guard tag they were
produced under (empty for pessimistic runs).  Aborted events are filtered out
before comparison, per the paper's definition of observable events (§2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Tuple

#: Event kinds.
SEND = "send"
RECV = "recv"
EXTERNAL = "external"  # delivery to a non-participating (unrecoverable) sink


@dataclass(frozen=True)
class TraceEvent:
    """One observable event.

    Attributes
    ----------
    kind:
        ``"send"``, ``"recv"``, or ``"external"``.
    src, dst:
        Endpoint names.
    payload:
        The message data values (must be hashable/comparable for checks).
    time:
        Virtual time the event occurred (not part of equivalence — only
        the order and data matter).
    seq:
        Global monotone sequence number, a deterministic tie-break.
    guards:
        Guess identifiers the event depended on when recorded (as strings);
        empty once committed or for pessimistic runs.
    porder:
        Program-order stamp ``(segment_index, step)`` within the owning
        process (the sender for send/external events, the receiver for
        receive events).  Committed events of a process are totally ordered
        by ``porder`` along its sequential path, regardless of when the
        optimistic runtime physically performed them — this is what lets
        the equivalence checker compare buffered/overlapped executions
        against the sequential reference.
    """

    kind: str
    src: str
    dst: str
    payload: Any
    time: float
    seq: int
    guards: FrozenSet[str] = field(default=frozenset())
    porder: Tuple[int, int] = (0, 0)

    @property
    def link(self) -> Tuple[str, str]:
        return (self.src, self.dst)

    @property
    def owner(self) -> str:
        """The process whose program order stamps this event."""
        return self.dst if self.kind == RECV else self.src
