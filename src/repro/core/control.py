"""Control notification (§4.2.5): who hears COMMIT, ABORT and PRECEDENCE.

:class:`ControlRelay` owns one process's side of the control plane: which
peers it made dependent on each guess (by sending them a message tagged
with it), the broadcast or targeted fan-out of the resolutions it
originates, the relay of those it receives along the same edges, and the
idempotence filter that makes a re-delivered control message a no-op.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Set, Tuple

from repro.core.config import ControlPlane
from repro.core.guess import GuessId
from repro.core.messages import PrecedenceMsg
from repro.obs import spans as ob


class ControlRelay:
    """Dependents, fan-out and duplicate suppression for one process."""

    def __init__(self, process: str, system: Any) -> None:
        self.process = process
        self._sys = system  # OptimisticSystem (untyped: it imports us)
        self._targeted = (
            system.config.control_plane is ControlPlane.TARGETED)
        #: targeted mode: the peers we made dependent on each guess, until
        #: its COMMIT or ABORT has gone out to them
        self.dependents: Dict[GuessId, Set[str]] = {}
        #: resolutions already applied (and, in targeted mode, relayed),
        #: once per (kind, GuessId) — the GuessId carries the incarnation,
        #: so renumbered retries stay distinct — and PRECEDENCEs once per
        #: (guess, guard snapshot)
        self._seen: Set[Tuple] = set()

    def note_tagged(self, guard: Iterable[GuessId], dst: str) -> None:
        """A message tagged with ``guard`` went to ``dst``: only targeted
        fan-out ever asks who depends on a guess."""
        if self._targeted:
            for g in guard:
                self.dependents.setdefault(g, set()).add(dst)

    def _trace(self, msg: Any, direction: str) -> None:
        if self._sys.tracer.enabled:
            self._sys.tracer.event(
                ob.CONTROL, self.process, self._sys.backend.now,
                name=type(msg).__name__, guess=msg.guess.key(),
                direction=direction,
            )

    def originate(self, msg: Any) -> None:
        """Send a control message about one of this process's own guesses."""
        self._trace(msg, "sent")
        if isinstance(msg, PrecedenceMsg):
            # PRECEDENCE must reach guess owners the sender may not have
            # messaged, so it is broadcast in both modes.
            self._sys.broadcast_control(self.process, msg)
            return
        # The owner already applied its own resolution; a copy relayed back
        # (targeted mode) or re-sent in answer to a QUERY must be a no-op.
        self._seen.add((type(msg).__name__, msg.guess))
        if self._targeted:
            self._send_to_dependents(msg, skip={self.process})
        else:
            self._sys.broadcast_control(self.process, msg)

    def _send_to_dependents(self, msg: Any, skip: Set[str]) -> None:
        """Fan a resolution out: the last use of the guess's dependents."""
        for dst in sorted(self.dependents.pop(msg.guess, set()) - skip):
            self._sys.send_control(self.process, dst, msg)

    def admit(self, msg: Any, src: str) -> bool:
        """Take in an arriving control message; False if already applied.

        A true re-send — network duplicate, retransmission, or a QUERY
        reply racing the original — is suppressed, which keeps every
        handler idempotent.  In targeted mode a first-seen COMMIT or ABORT
        is also forwarded to this process's own dependents: forwarding a
        guarded message created dependence the guess's owner cannot know
        about, so relay along the recorded edges reaches every transitive
        dependent.
        """
        self._trace(msg, "received")
        relayed = not isinstance(msg, PrecedenceMsg)
        key: Tuple = ((type(msg).__name__, msg.guess) if relayed
                      else ("PrecedenceMsg", msg.guess, msg.guard))
        if key in self._seen:
            self._sys.runtime_metrics.control_dups.inc()
            return False
        self._seen.add(key)
        if relayed and self._targeted:
            self._send_to_dependents(msg, skip={self.process, src})
        return True
