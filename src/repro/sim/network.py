"""Message transport with pluggable latency models.

The paper's time faults (§2, Fig. 4) arise purely from relative message
latencies: X's direct call to Z can beat the causally-earlier traffic routed
through Y.  The network therefore exposes latency as a first-class model —
fixed, per-link, randomly jittered, or deliberately *skewed* to force the
figure scenarios deterministically.

Links are FIFO by default (like a TCP connection between two processes);
cross-link ordering is whatever the latencies produce, which is exactly the
source of time faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import sys

from repro.errors import NetworkError
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_NORMAL

#: Interned per-plane stat keys: the delivery path runs once per message,
#: so even building these key strings per send shows up in the kernel bench.
_MSGS_CONTROL = sys.intern("net.msgs.control")
_MSGS_DATA = sys.intern("net.msgs.data")
_BYTES_CONTROL = sys.intern("net.bytes.control")
_BYTES_DATA = sys.intern("net.bytes.data")
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.stats import Stats


class LatencyModel:
    """Maps a (src, dst) pair to a one-way delay for the next message."""

    def delay(self, src: str, dst: str) -> float:
        """One-way delay for the next message on (src, dst)."""
        raise NotImplementedError


@dataclass
class FixedLatency(LatencyModel):
    """Every message takes exactly ``latency`` time units."""

    latency: float = 1.0

    def delay(self, src: str, dst: str) -> float:
        """Constant one-way delay."""
        return self.latency


class PerLinkLatency(LatencyModel):
    """Explicit per-directed-link latencies with a default fallback.

    ``links`` maps ``(src, dst)`` to a latency.  Used by the figure
    scenarios, where e.g. the X→Z link must be faster than Y→Z to trigger
    the Fig. 4 time fault.
    """

    def __init__(self, default: float = 1.0, links: Optional[dict] = None) -> None:
        self.default = default
        self.links: dict[tuple[str, str], float] = dict(links or {})

    def set(self, src: str, dst: str, latency: float) -> None:
        """Override one directed link's latency."""
        self.links[(src, dst)] = latency

    def delay(self, src: str, dst: str) -> float:
        """The link's latency, or the default."""
        return self.links.get((src, dst), self.default)


class JitteredLatency(LatencyModel):
    """Base latency plus uniform jitter drawn from a named seeded stream."""

    def __init__(
        self,
        base: float,
        jitter: float,
        rng: RngRegistry,
        stream: str = "net-jitter",
    ) -> None:
        if jitter < 0 or base < 0:
            raise NetworkError("latency parameters must be non-negative")
        self.base = base
        self.jitter = jitter
        self._rng = rng
        self._stream = stream

    def delay(self, src: str, dst: str) -> float:
        """Base latency plus a seeded uniform jitter draw."""
        if self.jitter == 0:
            return self.base
        return self.base + self._rng.uniform(self._stream, 0, self.jitter)


class SkewedLatency(LatencyModel):
    """Wrap another model but override specific links — handy for figures."""

    def __init__(self, inner: LatencyModel, overrides: dict) -> None:
        self.inner = inner
        self.overrides: dict[tuple[str, str], float] = dict(overrides)

    def delay(self, src: str, dst: str) -> float:
        """The override if present, else the inner model's delay."""
        if (src, dst) in self.overrides:
            return self.overrides[(src, dst)]
        return self.inner.delay(src, dst)


class Network:
    """Delivers opaque payloads between named endpoints through the scheduler.

    Endpoints register a handler; ``send`` schedules the handler call after
    the modelled latency.

    **FIFO contract.**  With ``fifo_links=True`` (the default), each
    *directed link* ``(src, dst)`` delivers messages in send order: every
    delivery is clamped to be no earlier than the previous delivery on the
    same link, and simultaneous deliveries untie in send order (the event
    queue is FIFO within a timestamp+priority class).  This is the paper's
    §4.2.5 per-channel assumption — a TCP-like connection per process pair.
    Nothing is guaranteed *across* links; cross-link races are exactly the
    source of the paper's time faults.

    With ``fifo_links=False`` the per-link clamp is off and a latency model
    with per-message variance (e.g. :class:`JitteredLatency`) **will**
    reorder messages within a link.  The optimistic protocol's control
    handlers tolerate this (commit histories are monotonic and handlers are
    idempotent), but the paper's correctness argument does not cover it —
    use it only with the hardened runtime
    (:class:`~repro.core.config.ResilienceConfig`) or in tests that assert
    convergence under reordering.

    ``bandwidth`` (size units per time unit, ``None`` = infinite) models
    link capacity: each message occupies its directed link for
    ``size / bandwidth`` before the propagation latency starts, and
    messages on the same link serialize.  This is what makes guard-tag
    overhead (and §4.1.2's compression) cost real time — the paper's
    "bandwidth is high but round-trip delays are long" regime is
    ``bandwidth → ∞``.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency_model: LatencyModel,
        *,
        stats: Optional[Stats] = None,
        fifo_links: bool = True,
        bandwidth: Optional[float] = None,
    ) -> None:
        if bandwidth is not None and bandwidth <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth!r}")
        self.scheduler = scheduler
        self.latency_model = latency_model
        self.stats = stats if stats is not None else Stats()
        self.fifo_links = fifo_links
        self.bandwidth = bandwidth
        self._handlers: dict[str, Callable[[str, Any], None]] = {}
        self._last_delivery: dict[tuple[str, str], float] = {}
        self._link_busy: dict[tuple[str, str], float] = {}

    def register(self, name: str, handler: Callable[[str, Any], None]) -> None:
        """Attach ``handler(src, payload)`` as the endpoint for ``name``."""
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} registered twice")
        self._handlers[name] = handler

    def endpoints(self) -> list[str]:
        """All registered endpoint names, sorted."""
        return sorted(self._handlers)

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        *,
        control: bool = False,
        size: int = 1,
    ) -> float:
        """Send ``payload`` from ``src`` to ``dst``; returns delivery time.

        ``control`` marks protocol traffic (COMMIT/ABORT/PRECEDENCE): counted
        separately and given delivery priority among simultaneous events.
        ``size`` is an abstract payload size used for overhead accounting.
        """
        deliver_at = self._delivery_time(src, dst, size)
        self._schedule_delivery(src, dst, payload, deliver_at, control, size)
        return deliver_at

    # The two halves of ``send``, exposed separately so decorators (see
    # :mod:`repro.sim.faults`) can perturb delivery without re-implementing
    # bandwidth/latency/FIFO bookkeeping.

    def _delivery_time(
        self,
        src: str,
        dst: str,
        size: int,
        *,
        extra_delay: float = 0.0,
        fifo: Optional[bool] = None,
    ) -> float:
        """Compute (and book-keep) the delivery time of one message.

        ``extra_delay`` is added after the modelled latency (latency
        spikes); ``fifo=False`` bypasses the per-link FIFO clamp for this
        one message (deliberate reordering) without updating the clamp, so
        later messages are not dragged behind the straggler.
        """
        if dst not in self._handlers:
            raise NetworkError(f"no endpoint registered for {dst!r}")
        delay = self.latency_model.delay(src, dst)
        if delay < 0:
            raise NetworkError(f"negative latency {delay!r} on link {src}->{dst}")
        # direct clock read: this runs once per message (docs/PERF.md)
        depart_at = self.scheduler.clock._now
        if self.bandwidth is not None:
            tx = size / self.bandwidth
            busy = self._link_busy.get((src, dst), 0.0)
            depart_at = max(depart_at, busy) + tx
            self._link_busy[(src, dst)] = depart_at
            self.stats.record("net.tx_time", self.scheduler.now, tx)
        deliver_at = depart_at + delay + extra_delay
        use_fifo = self.fifo_links if fifo is None else (fifo and self.fifo_links)
        if use_fifo:
            prev = self._last_delivery.get((src, dst), 0.0)
            deliver_at = max(deliver_at, prev)
            self._last_delivery[(src, dst)] = deliver_at
        return deliver_at

    def _schedule_delivery(
        self,
        src: str,
        dst: str,
        payload: Any,
        deliver_at: float,
        control: bool,
        size: int,
    ) -> None:
        """Schedule the handler call and account the message.

        Hot path: the delivery event is fire-and-forget (no cancellable
        handle), the label is only formatted when someone will read it
        (tracer attached), and the stat keys are
        interned constants — per-message f-strings are measurable at
        million-event scale (see ``repro.bench.kernel``).
        """
        handler = self._handlers[dst]
        scheduler = self.scheduler
        if scheduler.tracer.enabled:
            label = f"deliver {src}->{dst}"
        else:
            label = "deliver"
        scheduler.post(
            deliver_at,
            lambda: handler(src, payload),
            PRIORITY_CONTROL if control else PRIORITY_NORMAL,
            label,
        )
        counters = self.stats.counters
        if control:
            counters[_MSGS_CONTROL] += 1
            counters[_BYTES_CONTROL] += size
        else:
            counters[_MSGS_DATA] += 1
            counters[_BYTES_DATA] += size

    def broadcast(
        self,
        src: str,
        payload: Any,
        *,
        control: bool = True,
        size: int = 1,
        exclude_self: bool = False,
    ) -> None:
        """Send ``payload`` from ``src`` to every endpoint.

        The paper assumes control messages are broadcast (§4.2.5); a process
        also delivers control messages to itself (its own threads may hold
        the guard) unless ``exclude_self``.
        """
        for name in self.endpoints():
            if exclude_self and name == src:
                continue
            self.send(src, name, payload, control=control, size=size)
