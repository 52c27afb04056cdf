"""repro.obs — unified observability: spans, typed metrics, exporters.

One layer, three pieces:

* **tracing** (:mod:`.spans`, :mod:`.tracer`): the speculation lifecycle
  as typed spans in virtual time.  Every execution mode emits the same
  schema; the default :data:`NULL_TRACER` records nothing and costs one
  branch on the hot path.
* **metrics** (:mod:`.metrics`): declared counters/gauges/histograms over
  the legacy :class:`~repro.sim.stats.Stats` backing store.
* **export** (:mod:`.export`, :mod:`.validate`): JSONL, Chrome
  trace-event JSON (Perfetto-loadable) and prometheus text, all
  byte-deterministic; plus schema validation for smoke tests.

Two dual-clock extensions ride on the same span schema:

* **wall-clock telemetry** (:mod:`.realtime`): on a real executor
  backend spans also carry ``(wall_start, wall_end, worker)``;
  :func:`pool_report` turns them into per-worker utilization, queue-wait
  and gate-block distributions and the ``speculation_efficiency`` metric
  (``python -m repro profile --wall``).
* **access sets** (:mod:`.access`): an opt-in :class:`AccessTracker`
  records per-segment read/write key sets and aggregates WW/WR/RW
  conflict pairs into a heatmap (``python -m repro explain
  --conflicts``).

Typical use::

    from repro import OptimisticSystem, RecordingTracer, write_chrome_trace
    tracer = RecordingTracer()
    system = OptimisticSystem(tracer=tracer)
    ...
    result = system.run()
    write_chrome_trace(result.spans, "trace.json")
"""

from .access import (AccessTracker, ConflictMatrix, ObservedState,
                     SegmentAccess, chan_key, conflicts, sink_key)
from .api import RunResult
from .critical_path import CriticalPath, PathStep, critical_path
from .export import (TS_SCALE, chrome_trace, chrome_trace_json,
                     prometheus_text, spans_to_jsonl, write_chrome_trace,
                     write_jsonl_trace)
from .forensics import (ATTRIBUTION_CLASSES, CASCADE_ORPHAN, TIME_FAULT,
                        VALUE_FAULT, GuessForensics, ProvenanceGraph,
                        WastedWork, build_provenance, classify_abort,
                        wasted_work)
from .metrics import (DEFAULT_BUCKETS, WELL_KNOWN_COUNTERS, Counter, Gauge,
                      Histogram, MetricsRegistry, RuntimeMetrics)
from .realtime import PoolReport, WorkerStats, pool_report, summarize_values
from .spans import (ALL_KINDS, EVENT_KINDS, INTERVAL_KINDS, Span, as_spans,
                    span_from_dict)
from .tracer import NULL_TRACER, NullTracer, RecordingTracer, Tracer
from .validate import (TraceValidationError, validate_chrome,
                       validate_jsonl, validate_spans)

__all__ = [
    # spans & tracers
    "Span", "Tracer", "NullTracer", "RecordingTracer", "NULL_TRACER",
    "as_spans", "span_from_dict",
    "ALL_KINDS", "EVENT_KINDS", "INTERVAL_KINDS",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "RuntimeMetrics",
    "DEFAULT_BUCKETS", "WELL_KNOWN_COUNTERS",
    # wall-clock pool telemetry
    "PoolReport", "WorkerStats", "pool_report", "summarize_values",
    # access sets & conflict heatmaps
    "AccessTracker", "SegmentAccess", "ObservedState", "ConflictMatrix",
    "conflicts", "chan_key", "sink_key",
    # exporters & validation
    "chrome_trace", "chrome_trace_json", "write_chrome_trace",
    "spans_to_jsonl", "write_jsonl_trace", "prometheus_text", "TS_SCALE",
    "TraceValidationError", "validate_spans", "validate_chrome",
    "validate_jsonl",
    # forensics & critical path
    "ProvenanceGraph", "GuessForensics", "WastedWork", "build_provenance",
    "wasted_work", "classify_abort", "ATTRIBUTION_CLASSES",
    "VALUE_FAULT", "TIME_FAULT", "CASCADE_ORPHAN",
    "CriticalPath", "PathStep", "critical_path",
    # result surface
    "RunResult",
]
