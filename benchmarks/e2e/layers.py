"""Which layer a source file belongs to, and the counts each layer reports.

Layers are the repo's modules.  Every package has a catch-all, so a file a
later refactor adds still lands in a layer.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

LAYERS = (
    "workloads", "csp", "sim", "core.transport", "core.history",
    "core.runtime", "core.thread", "core.guards", "core.snapshot",
    "core.other", "trace", "obs", "exec", "analyze", "other",
)

_CORE_FILES = {
    "transport.py": "core.transport",
    "history.py": "core.history", "guess.py": "core.history",
    "runtime.py": "core.runtime", "system.py": "core.runtime",
    "thread.py": "core.thread", "journal.py": "core.thread",
    "guards.py": "core.guards", "cdg.py": "core.guards",
    "snapshot.py": "core.snapshot",
}
_PACKAGES = {"workloads", "csp", "sim", "trace", "obs", "exec", "analyze"}
_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer of a file under ``src/repro``; None for any other file."""
    _, marker, tail = filename.rpartition(_MARKER)
    if not marker:
        return None
    parts = tail.split(os.sep)
    if parts[0] == "core" and len(parts) > 1:
        return _CORE_FILES.get(parts[1], "core.other")
    return parts[0] if parts[0] in _PACKAGES else "other"


#: metric -> (module, qualified name): calls per scheduler event, counted
#: by the profiler.  A function that no longer exists counts 0 and is
#: listed under ``missing_functions`` in the report.
CALL_COUNTS: Dict[str, Tuple[str, str]] = {
    "core.history.status_queries": ("repro.core.history", "PeerView.status"),
    "core.history.implicit_abort_scans":
        ("repro.core.guess", "IncarnationTable.implicitly_aborted"),
    "core.runtime.dispatch_calls":
        ("repro.core.runtime", "ProcessRuntime.dispatch"),
    "core.runtime.sweep_calls":
        ("repro.core.runtime", "ProcessRuntime.resolve_sweep"),
    "core.guards.cycle_checks":
        ("repro.core.cdg", "CommitDependencyGraph.cycle_through"),
    "trace.records": ("repro.trace.recorder", "TraceRecorder.record"),
}

#: metric -> (numerator counters, denominator counters, unit), from the
#: runs' own ``Stats``.  ``EVENTS`` and ``OPS`` stand for the scheduler
#: events and the application operations of the profiled rounds.
EVENTS = "sim.events_processed"
OPS = "ops"
SPANS = "spans"
_MSGS = ("net.msgs.data", "net.msgs.control")
COUNTER_RATIOS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...], str]] = {
    "core.runtime.commit_ratio": (("opt.commits",), ("opt.forks",), "ratio"),
    "core.runtime.orphans_per_fork":
        (("opt.orphans_discarded",), ("opt.forks",), "count/fork"),
    "core.guards.tag_units_per_msg":
        (("opt.guard_tag_units",), ("net.msgs.data",), "units/msg"),
    "core.snapshot.captures": (("snap.captures",), (EVENTS,), "count/event"),
    "core.snapshot.restores": (("snap.restores",), (EVENTS,), "count/event"),
    "core.snapshot.full_copy_ratio":
        (("snap.full_copies",), ("snap.captures",), "ratio"),
    "core.transport.retransmits_per_msg":
        (("net.retransmits",), _MSGS, "count/msg"),
    "core.transport.dedup_ratio": (("net.frames_deduped",), _MSGS, "ratio"),
    "sim.control_msgs_per_op": (("net.msgs.control",), (OPS,), "msgs/op"),
    "sim.data_msgs_per_op": (("net.msgs.data",), (OPS,), "msgs/op"),
    "sim.queue_compactions":
        (("sim.queue_compactions",), (EVENTS,), "count/event"),
    "sim.wheel_ticks": (("sim.wheel_ticks",), (EVENTS,), "count/event"),
    "obs.spans_per_event": ((SPANS,), (EVENTS,), "spans/event"),
}
