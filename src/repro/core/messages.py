"""Wire messages of the optimistic protocol (§4.2).

Data messages are the CSP payloads wrapped in an envelope carrying the
sender's commit guard set.  Control messages — COMMIT, ABORT, PRECEDENCE —
are broadcast (the paper's simplifying assumption, §4.2.5) and drive the
history/CDG machinery on every process.

Every class here is instantiated once per message on million-event runs,
so the protocol messages are ``slots=True`` dataclasses, the two transport
frames (:class:`Wire`, :class:`AckMsg`) are cheaper-still immutable
``NamedTuple`` classes, and the plane names are interned module constants
(:data:`PLANE_CONTROL`, :data:`PLANE_DATA`) — identity comparisons and
dict hashing on them never re-hash string contents.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Any, Collection, FrozenSet, NamedTuple, Set, Tuple

from repro.core.guards import GuardSet
from repro.core.guess import GuessId

_envelope_ids = itertools.count(1)

#: Interned plane names used as ``Wire.plane`` / channel-key components.
PLANE_CONTROL = sys.intern("control")
PLANE_DATA = sys.intern("data")


@dataclass(slots=True)
class DataEnvelope:
    """A CSP payload tagged with the sending computation's guard set.

    ``porder`` is the sender-side program-order stamp of the send event, and
    ``trace_data`` the trace-visible data values — both carried so the
    receiver side can reproduce trace bookkeeping without peeking into
    payload internals.
    """

    src: str
    dst: str
    payload: Any
    guard: GuardSet             # frozen; any iterable of guesses is coerced
    size: int = 1
    msg_id: int = field(default_factory=lambda: next(_envelope_ids))
    #: receiver side: the runs of the guard (named by their top guess)
    #: reported settled while it is pooled
    news: Set[GuessId] = field(default_factory=set, compare=False,
                               repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.guard, GuardSet):
            self.guard = GuardSet(self.guard)
        self.guard = self.guard.frozen()

    def guard_keys(self) -> FrozenSet[str]:
        return self.guard.keys()

    def wire_size(self) -> int:
        """Payload size plus one unit per guard tag (C4 accounting)."""
        return self.size + len(self.guard)


@dataclass(frozen=True, slots=True)
class CommitMsg:
    """``COMMIT(x_n)``: the guess resolved true (§4.2.7)."""

    guess: GuessId


@dataclass(frozen=True, slots=True)
class AbortMsg:
    """``ABORT(x_n)``: the guess resolved false (§4.2.8)."""

    guess: GuessId


@dataclass(frozen=True, slots=True)
class PrecedenceMsg:
    """``PRECEDENCE(x_n, Guard)``: every guard member precedes ``x_n`` (§4.2.6)."""

    guess: GuessId
    guard: Collection[GuessId]  # hashable: a frozen GuardSet on the wire


@dataclass(frozen=True, slots=True)
class QueryMsg:
    """``QUERY(x_n)``: orphan re-detection probe (our extension, not §4.2).

    A process holding an unresolved *foreign* guess past the orphan-scan
    interval asks the guess's owner for its fate.  The owner answers with a
    fresh (idempotent) ``COMMIT``/``ABORT`` if the guess is resolved, and
    stays silent while it is genuinely still pending.
    """

    guess: GuessId


ControlMsg = (CommitMsg, AbortMsg, PrecedenceMsg, QueryMsg)


class Wire(NamedTuple):
    """Reliable-transport frame: one sequence-numbered message on a channel.

    A channel is the directed, per-plane pair ``(src, dst, plane)``; ``seq``
    increases by one per frame on its channel.  The receiver acks every
    frame (including re-received duplicates, since the ack itself may have
    been lost) and delivers the inner ``msg`` at most once.  The first
    four fields, and an :class:`AckMsg`, are the frame's pending key.
    """

    src: str
    dst: str
    plane: str                  # "control" | "data"
    seq: int
    msg: Any

    def channel(self) -> Tuple[str, str, str]:
        return (self.src, self.dst, self.plane)


class AckMsg(NamedTuple):
    """Acknowledgement of one :class:`Wire` frame (never itself acked)."""

    src: str                    # original frame sender (the ack's target)
    dst: str                    # original frame receiver (the ack's sender)
    plane: str
    seq: int


def control_size(msg: Any) -> int:
    """Abstract wire size of a control message."""
    if isinstance(msg, PrecedenceMsg):
        return 1 + len(msg.guard)
    return 1
