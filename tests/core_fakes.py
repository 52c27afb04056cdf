"""Fakes for driving one protocol mechanism at a time, with no scheduler.

The owners in ``repro.core`` (output, pool, control, recovery,
certificates) take the system they run in as a collaborator;
:class:`FakeSystem` stands in for it and records what they do to it.
"""

from types import SimpleNamespace

from repro.core.config import OptimisticConfig
from repro.core.guards import GuardSet
from repro.core.thread import OptimisticThread, ThreadStatus
from repro.obs.metrics import MetricsRegistry, RuntimeMetrics
from repro.obs.tracer import NULL_TRACER
from repro.sim.stats import Stats
from repro.trace.recorder import TraceRecorder


def edge_count(cdg):
    """Number of precedence edges in a commit dependency graph."""
    return len(cdg.edges())


def find_any_cycle(cdg):
    """Some cycle in a commit dependency graph, or ``None``."""
    for node in cdg.nodes():
        cycle = cdg.cycle_through(node)
        if cycle is not None:
            return cycle
    return None


def held(view):
    """Every unresolved guess somebody holds in ``view``'s index, each with
    its holder: the runs of the index, member by member."""
    for peer, incarnation, lo, index, holder in view.registrations():
        for guess in peer.unresolved(incarnation, lo, index):
            yield guess, holder


class FakeTimer:
    def __init__(self, delay, action):
        self.delay, self.action = delay, action
        self.cancelled = self.fired = False

    def cancel(self):
        self.cancelled = True

    def fire(self):
        self.fired = True
        self.action()


class FakeBackend:
    now = 0.0

    def __init__(self):
        self.timers = []

    def timer(self, delay, action, label="timer"):
        self.timers.append(FakeTimer(delay, action))
        return self.timers[-1]


class FakeSystem:
    """What the owners read from, and do to, an ``OptimisticSystem``."""

    def __init__(self, config=None, sinks=("display",)):
        self.config = config or OptimisticConfig()
        self.stats = Stats()
        self.runtime_metrics = RuntimeMetrics(MetricsRegistry(self.stats))
        self.tracer = NULL_TRACER
        self.access = None
        self.backend = FakeBackend()
        self.recorder = TraceRecorder()
        self.sinks = {name: None for name in sinks}
        self.network = SimpleNamespace(send=self._net_send)
        self.sent = []          # (src, dst, payload) put on the data network
        self.control = []       # (src, dst or "*", msg) control deliveries
        self.log = []           # (process, kind, detail) protocol events

    def _net_send(self, src, dst, payload, size=1):
        self.sent.append((src, dst, payload))

    def broadcast_control(self, src, msg):
        self.control.append((src, "*", msg))

    def send_control(self, src, dst, msg):
        self.control.append((src, dst, msg))

    def log_protocol_event(self, process, kind, detail):
        self.log.append((process, kind, detail))


class FakeThread(OptimisticThread):
    """The slice of ``OptimisticThread`` the pool and recovery look at.

    A subclass only so that it counts as a thread among the holders of the
    view's index; nothing of the real class is initialised or used, and
    ``guard`` is a plain attribute: there is no runtime whose view could
    prune it on read.
    """

    guard = None

    def __init__(self, tid, status=ThreadStatus.RUNNING, guard=(),
                 call_id=None, receive=None, pessimistic=False):
        self.tid = tid
        self.status = status
        self.guard = GuardSet(guard)
        self.news = set()
        self.rollbacks = []
        self.interval = 0
        self.waiting_call_id = call_id
        self.waiting_receive = receive
        self.pessimistic = pessimistic
        self.own_guess = None
        self.state = {}
        self.journal = SimpleNamespace(slots=[])
        self.delivered = []
        self.cancelled = False
        self._access_rec = None

    alive = True
    active = True

    def deliver_reply(self, envelope, value, op):
        self.delivered.append(("reply", envelope, value, op))

    def deliver_request(self, envelope, request):
        self.delivered.append(("request", envelope, request))

    def _cancel_pending(self):
        self.cancelled = True
