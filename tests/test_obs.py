"""The observability layer: tracer, span schema, metrics, exporters."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    Span,
    TraceValidationError,
    as_spans,
    chrome_trace,
    chrome_trace_json,
    prometheus_text,
    span_from_dict,
    spans_to_jsonl,
    validate_chrome,
    validate_jsonl,
    validate_spans,
)
from repro.obs import spans as ob
from repro.sim.stats import Stats


# ------------------------------------------------------------------- tracer

def test_null_tracer_is_inert():
    tracer = NullTracer()
    assert not tracer.enabled
    assert tracer.start_span(ob.GUESS, "p", 0.0) == -1
    tracer.end_span(-1, 1.0)
    assert tracer.event(ob.SEND, "p", 0.0) == -1
    assert tracer.close_open(5.0) == 0
    assert tracer.spans() == []


def test_recording_tracer_interval_roundtrip():
    tracer = RecordingTracer()
    sid = tracer.start_span(ob.GUESS, "X", 1.0, name="g0", site="s1")
    tracer.event(ob.SEND, "X", 2.0, name="call:op", dst="Y")
    tracer.end_span(sid, 4.0, outcome="commit")
    spans = tracer.spans()
    assert [s.sid for s in spans] == [0, 1]
    guess, send = spans
    assert guess.kind == ob.GUESS and guess.duration == 3.0
    assert guess.attrs == {"site": "s1", "outcome": "commit"}
    assert send.instant and send.attrs == {"dst": "Y"}


def test_close_open_truncates_in_sid_order():
    tracer = RecordingTracer()
    a = tracer.start_span(ob.SEGMENT, "X", 0.0, name="a")
    b = tracer.start_span(ob.SEGMENT, "Y", 2.0, name="b")
    assert tracer.close_open(10.0) == 2
    spans = {s.sid: s for s in tracer.spans()}
    for sid in (a, b):
        assert spans[sid].end == 10.0
        assert spans[sid].attrs["truncated"] is True


def test_end_span_twice_is_quietly_ignored():
    tracer = RecordingTracer()
    sid = tracer.start_span(ob.GUESS, "X", 0.0)
    tracer.end_span(sid, 1.0, outcome="commit")
    tracer.end_span(sid, 9.0, outcome="abort")
    span = tracer.spans()[0]
    assert span.end == 1.0 and span.attrs["outcome"] == "commit"


# ----------------------------------------------------------------- schema

def test_span_dict_roundtrip():
    span = Span(sid=3, kind=ob.GUESS, name="g", process="X", start=1.0,
                end=2.0, parent=1, attrs={"outcome": "commit"})
    assert span_from_dict(span.to_dict()) == span


def test_as_spans_coercions():
    assert as_spans(None) == []
    assert as_spans([]) == []
    span = Span(sid=0, kind=ob.SEND, name="s", process="X", start=0.0,
                end=0.0)
    assert as_spans([span]) == [span]
    log = [{"kind": "fork", "time": 0.0, "process": "X", "guess": "g"}]
    with pytest.raises(TypeError):
        as_spans(log)
    with pytest.raises(TypeError):
        as_spans(object())


# ---------------------------------------------------------------- metrics

def test_metrics_registry_counters_back_onto_stats():
    stats = Stats()
    registry = MetricsRegistry(stats)
    forks = registry.counter("opt.forks", help="speculative forks")
    forks.inc()
    forks.inc(2)
    assert stats.counters["opt.forks"] == 3
    assert registry.counter("opt.forks") is forks  # idempotent
    with pytest.raises(TypeError):
        registry.gauge("opt.forks")


def test_histogram_buckets_and_count():
    registry = MetricsRegistry()
    hist = registry.histogram("doubt", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        hist.observe(v)
    pairs = hist.cumulative()
    assert pairs == [(1.0, 1), (10.0, 2), (float("inf"), 3)]


def test_prometheus_text_renders_types_and_sanitizes():
    registry = MetricsRegistry()
    registry.counter("opt.forks", help="speculative forks").inc(5)
    registry.histogram("doubt.time", buckets=(1.0,)).observe(0.5)
    text = prometheus_text(registry)
    assert "# TYPE opt_forks counter" in text
    assert "opt_forks 5" in text
    assert "# HELP opt_forks speculative forks" in text
    assert 'doubt_time_bucket{le="1.0"} 1' in text
    assert "doubt_time_count 1" in text


def test_prometheus_text_accepts_stats_and_rejects_junk():
    stats = Stats()
    stats.incr("net.messages", 4)
    assert "net_messages 4" in prometheus_text(stats)
    with pytest.raises(TypeError):
        prometheus_text(42)


# -------------------------------------------------------------- exporters

def _sample_spans():
    tracer = RecordingTracer()
    g = tracer.start_span(ob.GUESS, "X", 0.0, name="g0")
    s = tracer.start_span(ob.SEGMENT, "X", 0.0, name="seg0", tid=1)
    tracer.event(ob.SEND, "X", 1.0, name="call:op", dst="Y")
    tracer.end_span(s, 2.0)
    tracer.end_span(g, 3.0, outcome="commit")
    return tracer.spans()


def test_jsonl_roundtrip_and_validation():
    spans = _sample_spans()
    text = spans_to_jsonl(spans)
    assert validate_jsonl(text) == len(spans)
    reloaded = [span_from_dict(json.loads(line))
                for line in text.splitlines()]
    assert reloaded == spans


def test_chrome_trace_structure():
    trace = chrome_trace(_sample_spans())
    validate_chrome(trace)
    events = trace["traceEvents"]
    # one guess lane (tid >= 1000), one exec lane, one instant lane
    guess_rows = [e for e in events if e["ph"] == "X" and e["tid"] >= 1000]
    assert len(guess_rows) == 1
    assert guess_rows[0]["dur"] == 3000  # 3 virtual units @ TS_SCALE=1000
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 1 and instants[0]["tid"] == 0


def test_chrome_trace_json_is_canonical():
    spans = _sample_spans()
    text = chrome_trace_json(spans)
    assert text == chrome_trace_json(list(spans))
    assert text.endswith("\n")
    assert ": " not in text.splitlines()[0]  # compact separators


# -------------------------------------------------------------- validation

def test_validate_spans_flags_malformed():
    good = _sample_spans()
    counts = validate_spans(good)
    assert counts["guesses"] == counts["commits"] == 1
    bad = [Span(sid=0, kind=ob.GUESS, name="g", process="X", start=5.0,
                end=1.0)]
    with pytest.raises(TraceValidationError):
        validate_spans(bad)
    unresolved = [Span(sid=0, kind=ob.GUESS, name="g", process="X",
                       start=0.0, end=1.0, attrs={"truncated": True})]
    validate_spans(unresolved)  # lenient by default
    with pytest.raises(TraceValidationError):
        validate_spans(unresolved, strict=True)
