"""Span well-formedness over the random duplex space.

Every traced optimistic run — whatever the workload throws at the
protocol (wrong guesses on both sides, cross-process guard dependencies,
rollback chains) — must produce a structurally sound trace: stable ids,
closed intervals, every fork resolved by exactly one commit or abort,
and exporters that stay deterministic.
"""

from hypothesis import given, settings, strategies as st

from repro.obs import spans as ob
from repro.obs.export import chrome_trace_json, spans_to_jsonl
from repro.obs.tracer import RecordingTracer
from repro.obs.validate import validate_chrome, validate_spans
from repro.workloads.random_duplex import DuplexSpec, build_duplex_system

import json

specs = st.builds(
    DuplexSpec,
    n_steps=st.integers(1, 6),
    n_signals=st.integers(0, 3),
    n_servers=st.integers(1, 3),
    latency=st.floats(0.5, 10.0),
    service_time=st.floats(0.0, 2.0),
    seed=st.integers(0, 100_000),
    wrong_guess_bias=st.sampled_from([1, 3, 5]),
)


def traced_run(spec):
    tracer = RecordingTracer()
    system = build_duplex_system(spec, optimistic=True, tracer=tracer)
    result = system.run()
    return result, tracer.spans()


@settings(max_examples=50, deadline=None)
@given(spec=specs)
def test_duplex_spans_well_formed(spec):
    result, spans = traced_run(spec)
    # strict: every guess must resolve (runs quiesce, nothing truncated)
    counts = validate_spans(spans, strict=True)
    assert counts["guesses"] == counts["commits"] + counts["aborts"]

    guesses = [s for s in spans if s.kind == ob.GUESS]
    for span in guesses:
        assert span.end is not None and span.end >= span.start
        assert span.attrs["outcome"] in ("commit", "abort")
        if span.attrs["outcome"] == "abort":
            assert span.attrs.get("reason")

    # spans must agree with the runtime's own accounting
    stats = result.stats.counters
    assert counts["guesses"] == stats.get("opt.forks", 0)
    assert counts["commits"] == stats.get("opt.commits", 0)
    assert counts["aborts"] == stats.get("opt.aborts", 0)


@settings(max_examples=20, deadline=None)
@given(spec=specs)
def test_duplex_exports_deterministic_and_valid(spec):
    _, first = traced_run(spec)
    _, second = traced_run(spec)
    chrome = chrome_trace_json(first)
    assert chrome == chrome_trace_json(second)
    assert spans_to_jsonl(first) == spans_to_jsonl(second)
    validate_chrome(json.loads(chrome))
