"""The public API surface: everything advertised must import and work."""

import dataclasses
import importlib
import inspect
import pathlib

import pytest

import repro
from repro.core import config


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


#: The documented public surface (docs/USAGE.md, docs/BACKENDS.md).  This
#: is asserted *exactly*: adding an export without documenting it — or
#: documenting one without exporting it — fails the suite.
DOCUMENTED_SURFACE = {
    # systems + configuration
    "OptimisticSystem", "OptimisticResult", "OptimisticConfig",
    "CheckpointPolicy", "DeliveryHeuristic", "ControlPlane",
    "SequentialSystem",
    # executor backends
    "ExecutorBackend", "ExecutorCapabilities", "VirtualTimeBackend",
    "ThreadPoolBackend", "ProcessPoolBackend",
    # executor fault tolerance (docs/BACKENDS.md, "Fault tolerance")
    "ExecFaultPlan", "TaskFaults", "WorkerKillSpec",
    "RecoveryPolicy", "FallbackPolicy", "SegmentFailure",
    # programs + plans
    "Program", "Segment", "server_program", "make_call_chain",
    "stream_plan", "ParallelizationPlan", "ForkSpec",
    # effects
    "Call", "Send", "Receive", "Reply", "Compute", "Emit", "GetTime",
    # latency models
    "FixedLatency", "PerLinkLatency", "JitteredLatency", "SkewedLatency",
    # equivalence + rendering
    "assert_equivalent", "traces_equivalent", "render_timeline",
    # observability
    "Tracer", "NullTracer", "RecordingTracer", "Span", "as_spans",
    "MetricsRegistry", "RunResult", "chrome_trace_json", "spans_to_jsonl",
    "write_chrome_trace", "write_jsonl_trace", "prometheus_text",
    "speculation_report", "summarize", "ProvenanceGraph",
    "build_provenance", "WastedWork", "wasted_work", "CriticalPath",
    "critical_path",
    # dual-clock observability
    "PoolReport", "pool_report", "AccessTracker", "ConflictMatrix",
    "conflicts",
    # metadata
    "__version__",
}


def test_exported_surface_is_exactly_the_documented_one():
    assert set(repro.__all__) == DOCUMENTED_SURFACE
    assert len(repro.__all__) == len(DOCUMENTED_SURFACE) == 65


def test_log_to_span_adapter_is_gone():
    assert not hasattr(repro.obs, "spans_from_protocol_log")
    assert "spans_from_protocol_log" not in repro.obs.__all__


SUBPACKAGES = [
    "repro.sim", "repro.csp", "repro.core", "repro.trace",
    "repro.baselines", "repro.workloads", "repro.bench",
    "repro.csp.dsl", "repro.core.predictors", "repro.core.autoplan",
    "repro.core.analysis", "repro.core.invariants",
    "repro.core.output", "repro.core.pool", "repro.core.control",
    "repro.core.recovery", "repro.core.certificates",
    "repro.core.model", "repro.sim.topology", "repro.trace.hb",
    "repro.trace.diagram", "repro.baselines.timewarp",
    "repro.baselines.promises", "repro.workloads.pipelines",
    "repro.workloads.random_programs", "repro.workloads.random_duplex",
    "repro.obs", "repro.obs.spans", "repro.obs.tracer",
    "repro.obs.metrics", "repro.obs.export", "repro.obs.validate",
    "repro.obs.api", "repro.obs.smoke", "repro.obs.realtime",
    "repro.obs.access",
    "repro.exec", "repro.exec.api", "repro.exec.virtual",
    "repro.exec.pool", "repro.exec.faults", "repro.exec.watchdog",
]


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_subpackage_imports(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} needs a module docstring"


def test_subpackage_alls_resolve():
    for module in ("repro.sim", "repro.csp", "repro.core", "repro.trace",
                   "repro.baselines", "repro.workloads", "repro.bench",
                   "repro.obs", "repro.exec"):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


def test_minimal_happy_path_through_top_level_api_only():
    calls = [("s", "op", (1,))]
    client = repro.make_call_chain("c", calls)
    seq = repro.SequentialSystem(repro.FixedLatency(2.0))
    seq.add_program(client)
    seq.add_program(repro.server_program("s", lambda st, r: "ok"))
    r1 = seq.run()

    client2 = repro.make_call_chain("c", calls)
    opt = repro.OptimisticSystem(repro.FixedLatency(2.0))
    opt.add_program(client2, repro.stream_plan(client2))
    opt.add_program(repro.server_program("s", lambda st, r: "ok"))
    r2 = opt.run()
    repro.assert_equivalent(r2.trace, r1.trace)
    assert repro.traces_equivalent(r2.trace, r1.trace)
    assert "time" in repro.render_timeline(r2.trace, r2.protocol_log)


def test_backend_parameterized_happy_path_through_top_level_api():
    def build(backend):
        calls = [("s", "op", (1,))]
        client = repro.make_call_chain("c", calls)
        opt = repro.OptimisticSystem(repro.FixedLatency(2.0),
                                     backend=backend)
        opt.add_program(client, repro.stream_plan(client))
        opt.add_program(repro.server_program("s", lambda st, r: "ok"))
        return opt

    virtual = build(repro.VirtualTimeBackend()).run()
    threaded = build(repro.ThreadPoolBackend(2)).run()
    assert repro.traces_equivalent(threaded.trace, virtual.trace)
    assert threaded.completion_time == virtual.completion_time

    assert repro.VirtualTimeBackend.capabilities.name == "virtual"
    assert repro.ThreadPoolBackend.capabilities.parallel
    assert repro.ProcessPoolBackend.capabilities.requires_picklable


def test_public_docstrings_on_core_classes():
    for obj in (repro.OptimisticSystem, repro.SequentialSystem,
                repro.OptimisticConfig, repro.Program, repro.Segment,
                repro.ParallelizationPlan, repro.ForkSpec,
                repro.Tracer, repro.RecordingTracer, repro.Span,
                repro.MetricsRegistry, repro.RunResult):
        assert obj.__doc__, obj


def test_observability_surface_through_top_level_api_only():
    calls = [("s", "op", (1,))]
    client = repro.make_call_chain("c", calls)
    tracer = repro.RecordingTracer()
    opt = repro.OptimisticSystem(repro.FixedLatency(2.0), tracer=tracer)
    opt.add_program(client, repro.stream_plan(client))
    opt.add_program(repro.server_program("s", lambda st, r: "ok"))
    result = opt.run()

    assert isinstance(result, repro.RunResult)
    assert result.spans and all(isinstance(s, repro.Span)
                                for s in result.spans)
    assert result.completion_time == result.makespan
    assert repro.as_spans(result) == result.spans

    chrome = repro.chrome_trace_json(result.spans)
    assert chrome.endswith("\n") and '"traceEvents"' in chrome
    jsonl = repro.spans_to_jsonl(result.spans)
    assert len(jsonl.splitlines()) == len(result.spans)
    assert "forks=" in repro.speculation_report(result)
    assert "# TYPE" in repro.prometheus_text(result)


def test_every_mode_is_a_runresult_with_spans():
    from repro.baselines.pipelining import run_pipelined_chain
    from repro.baselines.promises import PCall, PromiseSystem, PWait
    from repro.baselines.timewarp.kernel import TimeWarpKernel
    from repro.workloads.generators import ChainSpec

    results = []

    seq = repro.SequentialSystem(repro.FixedLatency(1.0),
                                 tracer=repro.RecordingTracer())
    seq.add_program(repro.make_call_chain("c", [("s", "op", (1,))]))
    seq.add_program(repro.server_program("s", lambda st, r: "ok"))
    results.append(seq.run())

    results.append(run_pipelined_chain(ChainSpec(n_calls=3),
                                       tracer=repro.RecordingTracer()))

    def promise_client(state):
        p = yield PCall("s", "op", (1,))
        state["v"] = yield PWait(p)

    psys = PromiseSystem(tracer=repro.RecordingTracer())
    psys.add_server("s", lambda st, op, args: "ok")
    psys.set_client(promise_client)
    results.append(psys.run())

    tw = TimeWarpKernel(tracer=repro.RecordingTracer())
    tw.add_lp("a", lambda st, p, t: [])
    tw.schedule_initial("a", 1.0, "go")
    results.append(tw.run())

    for result in results:
        assert isinstance(result, repro.RunResult), result
        assert result.spans, result
        repro.obs.validate_spans(result.spans)


#: Every configuration field there is.  Asserted *exactly*, and every name
#: must appear in the knob table of docs/USAGE.md with its justification:
#: a new knob fails here until it is documented and someone has said why
#: a constant would not do.
CONFIG_FIELDS = {
    "OptimisticConfig": {
        "fork_cost", "state_copy_cost", "restore_cost",
        "checkpoint_interval", "max_optimistic_retries",
        "checkpoint_policy", "delivery_heuristic", "strict_exports",
        "early_reply_abort", "eager_cdg_rollback", "compress_guards",
        "control_plane", "static_effects", "max_steps", "resilience",
        "governor",
    },
    "ResilienceConfig": {
        "retransmit_timeout", "retransmit_backoff",
        "retransmit_timeout_max", "max_retransmits",
        "timer_wheel_granularity",
    },
    "GovernorConfig": {
        "max_depth", "increase", "decrease", "probe_interval",
    },
}


def test_configuration_space_has_not_grown():
    counts = {name: len(dataclasses.fields(getattr(config, name)))
              for name in CONFIG_FIELDS}
    assert counts == {"OptimisticConfig": 16, "ResilienceConfig": 5,
                      "GovernorConfig": 4}
    params = inspect.signature(repro.OptimisticSystem.__init__).parameters
    assert list(params) == [
        "self", "latency_model", "config", "fifo_links", "bandwidth",
        "tracer", "faults", "strict_plans", "backend", "access"]


@pytest.mark.parametrize("cls_name", sorted(CONFIG_FIELDS))
def test_config_fields_are_pinned_and_documented(cls_name):
    names = {f.name for f in dataclasses.fields(getattr(config, cls_name))}
    assert names == CONFIG_FIELDS[cls_name]
    usage = (pathlib.Path(__file__).parent.parent / "docs" / "USAGE.md")
    table_rows = [line for line in usage.read_text().splitlines()
                  if line.startswith("| `")]
    for name in names:
        assert any(f"`{name}`" in row.split("|")[1] for row in table_rows), \
            f"{cls_name}.{name} is missing from the knob table of USAGE.md"
