"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``            regenerate all seven paper figures as ASCII diagrams
``scenario <id>``      run one scenario (fig2..fig7) and print its diagram
``profile <id>``       run one scenario traced; report + optional trace file
                       (``--wall`` re-runs it on a thread pool and prints
                       the dual-clock pool telemetry)
``explain <id>``       speculation forensics: provenance, abort attribution,
                       wasted work and the virtual-time critical path
                       (``--conflicts`` records access sets instead and
                       renders the WW/WR/RW conflict heatmap)
``sweep``              print the C1-style latency sweep table
``chaos``              randomized fault schedules against the hardened
                       runtime (``--smoke``, ``--seed N``, ``--check-only``)
``bench-parallel``     wall-clock speedup + cross-backend parity gates for
                       the real executor backends (``--smoke``,
                       ``--workers N``, ``--check-only``)
``lint <target>``      static analysis of programs and plans: scenario
                       names (fig1..fig7, chain, pipeline, random), paths,
                       or dotted modules (see docs/ANALYSIS.md)
``list``               list scenarios and experiments
"""

from __future__ import annotations

import argparse
import sys

from repro.trace.diagram import render_timeline
from repro.workloads import scenarios

PROTOCOL_KINDS = (
    "fork", "commit", "abort", "value_fault", "join_time_fault",
    "early_reply_time_fault", "cycle_abort", "precedence_sent",
    "rollback", "continuation", "committed_complete",
)

# Each builder takes an optional tracer and returns (result, processes);
# the ``profile`` command passes a recording tracer, everything else none.
SCENARIOS = {
    "fig2": ("Figure 2 — no call streaming",
             lambda tracer=None: (
                 scenarios.run_fig2_no_streaming(tracer=tracer),
                 ["X", "Y", "Z"])),
    "fig3": ("Figure 3 — successful call streaming",
             lambda tracer=None: (
                 scenarios.run_fig3_streaming(tracer=tracer).optimistic,
                 ["X", "Y", "Z"])),
    "fig4": ("Figure 4 — time fault",
             lambda tracer=None: (
                 scenarios.run_fig4_time_fault(tracer=tracer).optimistic,
                 ["X", "Y", "Z"])),
    "fig5": ("Figure 5 — value fault",
             lambda tracer=None: (
                 scenarios.run_fig5_value_fault(tracer=tracer).optimistic,
                 ["X", "Y", "Z"])),
    "fig6": ("Figure 6 — two optimistic threads, commit cascade",
             lambda tracer=None: (
                 scenarios.run_fig6_two_threads(tracer=tracer),
                 ["W", "X", "Z", "Y"])),
    "fig7": ("Figure 7 — mutual speculation cycle",
             lambda tracer=None: (
                 scenarios.run_fig7_cycle(tracer=tracer),
                 ["W", "X", "Z", "Y"])),
}


def _build_duplex_abort_heavy(tracer=None, backend=None, access=None):
    from repro.workloads.random_duplex import DuplexSpec, build_duplex_system

    spec = DuplexSpec(n_steps=6, n_signals=2, n_servers=2, seed=11,
                      wrong_guess_bias=2)
    system = build_duplex_system(spec, optimistic=True, tracer=tracer,
                                 backend=backend, access=access)
    return system.run(), ["A", "B"] + spec.server_names()


def _build_pipeline_fault(tracer=None, backend=None, access=None):
    from repro.workloads.pipelines import PipelineSpec, run_pipeline_optimistic

    spec = PipelineSpec(n_requests=4, depth=3, fail_request=1, relay=True)
    _system, result = run_pipeline_optimistic(spec, tracer=tracer,
                                              backend=backend, access=access)
    return result, ["client"] + spec.tier_names()


#: Scenarios whose builders thread an executor ``backend`` and an access
#: tracker through to the system — the ones ``profile --wall`` and
#: ``explain --conflicts`` accept.  The fig2..fig7 reproductions pin the
#: paper's virtual timelines and stay virtual-only.
DUAL_CLOCK_SCENARIOS = {
    "duplex_abort_heavy": (
        "Duplex abort-heavy — both sides speculative, 50% wrong guesses",
        _build_duplex_abort_heavy),
    "pipeline_fault": (
        "Relay pipeline, depth 3 — request 1 fails at tier 0",
        _build_pipeline_fault),
}


def _resolve(sid: str):
    """``(title, build)`` for any profile/explain scenario id, or None."""
    return SCENARIOS.get(sid) or DUAL_CLOCK_SCENARIOS.get(sid)


def _all_ids() -> str:
    return ", ".join(list(SCENARIOS) + list(DUAL_CLOCK_SCENARIOS))


def _show(sid: str) -> None:
    title, build = SCENARIOS[sid]
    result, processes = build()
    protocol_log = getattr(result, "protocol_log", ())
    print(render_timeline(result.trace, protocol_log, processes=processes,
                          protocol_kinds=PROTOCOL_KINDS,
                          title=f"{title}:"))
    print()


def cmd_figures(args: argparse.Namespace) -> int:
    for sid in SCENARIOS:
        _show(sid)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.id not in SCENARIOS:
        print(f"unknown scenario {args.id!r}; try: {', '.join(SCENARIOS)}",
              file=sys.stderr)
        return 2
    _show(args.id)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    entry = _resolve(args.id)
    if entry is None:
        print(f"unknown scenario {args.id!r}; try: {_all_ids()}",
              file=sys.stderr)
        return 2
    from repro.core.analysis import speculation_report
    from repro.obs.export import write_chrome_trace, write_jsonl_trace
    from repro.obs.tracer import RecordingTracer

    title, build = entry
    tracer = RecordingTracer()
    if args.wall:
        if args.id not in DUAL_CLOCK_SCENARIOS:
            print(f"--wall needs a pool-capable scenario; try: "
                  f"{', '.join(DUAL_CLOCK_SCENARIOS)}", file=sys.stderr)
            return 2
        from repro.exec.pool import ThreadPoolBackend
        from repro.obs.realtime import pool_report

        backend = ThreadPoolBackend(workers=args.workers,
                                    realize_scale=0.01)
        result, _processes = build(tracer=tracer, backend=backend)
    else:
        backend = None
        result, _processes = build(tracer=tracer)
    spans = result.spans
    print(speculation_report(result, title=f"{title}:"))
    print(f"  completion time: {result.completion_time}")
    print(f"  spans recorded:  {len(spans)}")
    if backend is not None:
        print()
        print(pool_report(spans, backend.wall_records).render())
    if args.format == "prometheus":
        from repro.obs.export import prometheus_text
        text = prometheus_text(result)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                fh.write(text)
            print(f"  metrics written: {args.trace_out} (prometheus)")
        else:
            print(text, end="")
    elif args.trace_out:
        if args.format == "jsonl":
            write_jsonl_trace(spans, args.trace_out)
        else:
            write_chrome_trace(spans, args.trace_out)
        print(f"  trace written:   {args.trace_out} ({args.format})")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    entry = _resolve(args.id)
    if entry is None:
        print(f"unknown scenario {args.id!r}; try: {_all_ids()}",
              file=sys.stderr)
        return 2
    if args.conflicts:
        return _explain_conflicts(args, entry)
    from repro.obs.critical_path import critical_path
    from repro.obs.forensics import build_provenance
    from repro.obs.tracer import RecordingTracer

    title, build = entry
    tracer = RecordingTracer()
    result, _processes = build(tracer=tracer)
    graph = build_provenance(result)
    path = critical_path(result)
    print(f"{title}: speculation forensics")
    print()
    if args.guess:
        try:
            lines = graph.explain(args.guess)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print("\n".join(lines))
    else:
        print("\n".join(graph.report_lines()))
        print()
        print("\n".join(path.lines()))
    if args.json:
        import json
        artifact = {
            "scenario": args.id,
            "title": title,
            "provenance": graph.to_dict(),
            "critical_path": path.to_dict(),
        }
        with open(args.json, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\njson artifact written: {args.json}")
    return 0


def _explain_conflicts(args: argparse.Namespace, entry) -> int:
    """``explain --conflicts``: access-set recording + WW/WR/RW heatmap."""
    if args.id not in DUAL_CLOCK_SCENARIOS:
        print(f"--conflicts needs an access-capable scenario; try: "
              f"{', '.join(DUAL_CLOCK_SCENARIOS)}", file=sys.stderr)
        return 2
    import json

    from repro.obs.access import AccessTracker, conflicts

    title, build = entry
    tracker = AccessTracker()
    build(access=tracker)
    matrix = conflicts(tracker.records)
    print(f"{title}: access-set conflict heatmap")
    print()
    print(matrix.render())
    out = args.json or f"conflicts_{args.id}.json"
    artifact = {
        "scenario": args.id,
        "title": title,
        "access": tracker.to_dict(),
        "conflicts": matrix.to_dict(),
    }
    with open(out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nconflict artifact written: {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.harness import Table
    from repro.core.config import OptimisticConfig
    from repro.workloads.generators import (
        ChainSpec, run_chain_optimistic, run_chain_sequential,
    )

    table = Table(
        f"streaming speedup, N={args.calls} calls (fork_cost={args.fork_cost})",
        ["latency", "sequential", "optimistic", "speedup"],
    )
    for latency in (0.1, 0.5, 1.0, 5.0, 20.0, 100.0):
        spec = ChainSpec(n_calls=args.calls, n_servers=2, latency=latency,
                         service_time=0.5)
        seq = run_chain_sequential(spec)
        opt = run_chain_optimistic(
            spec, OptimisticConfig(fork_cost=args.fork_cost))
        table.add(latency, seq.makespan, opt.makespan,
                  seq.makespan / opt.makespan)
    print(table.render())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.bench import chaos

    argv = []
    if args.smoke:
        argv.append("--smoke")
    if args.check_only:
        argv.append("--check-only")
    if args.seed is not None:
        argv.extend(["--seed", str(args.seed)])
    if args.exec_seed is not None:
        argv.extend(["--exec-seed", str(args.exec_seed)])
    if args.out is not None:
        argv.extend(["--out", args.out])
    return chaos.main(argv)


def cmd_bench_kernel(args: argparse.Namespace) -> int:
    from repro.bench import kernel

    argv = []
    if args.smoke:
        argv.append("--smoke")
    if args.check_only:
        argv.append("--check-only")
    if args.profile is not None:
        argv.append("--profile")
        if args.profile:
            argv.append(args.profile)
    if args.out is not None:
        argv.extend(["--out", args.out])
    return kernel.main(argv)


def cmd_bench_parallel(args: argparse.Namespace) -> int:
    from repro.bench import parallel

    argv = []
    if args.smoke:
        argv.append("--smoke")
    if args.check_only:
        argv.append("--check-only")
    if args.workers is not None:
        argv.extend(["--workers", str(args.workers)])
    if args.out is not None:
        argv.extend(["--out", args.out])
    return parallel.main(argv)


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analyze.cli import run_lint

    return run_lint(args)


def cmd_list(args: argparse.Namespace) -> int:
    print("scenarios (python -m repro scenario <id>):")
    for sid, (title, _) in SCENARIOS.items():
        print(f"  {sid:6s} {title}")
    print("\ndual-clock scenarios (profile --wall / explain --conflicts):")
    for sid, (title, _) in DUAL_CLOCK_SCENARIOS.items():
        print(f"  {sid:18s} {title}")
    print("\nexperiments: pytest benchmarks/ --benchmark-only "
          "(tables land in benchmarks/results/)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimistic parallelization of CSP (Bacon & Strom 1991)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("figures", help="render all paper figures").set_defaults(
        fn=cmd_figures)
    p_scn = sub.add_parser("scenario", help="run one figure scenario")
    p_scn.add_argument("id", help="fig2..fig7")
    p_scn.set_defaults(fn=cmd_scenario)
    p_prof = sub.add_parser(
        "profile", help="run one scenario with tracing and report on it")
    p_prof.add_argument("id", help="fig2..fig7, duplex_abort_heavy, "
                                   "pipeline_fault")
    p_prof.add_argument("--trace-out", default=None, metavar="FILE",
                        help="also export the span trace to FILE")
    p_prof.add_argument("--format", choices=("chrome", "jsonl", "prometheus"),
                        default="chrome",
                        help="trace file format, or 'prometheus' to dump "
                             "the run's metrics instead (default: chrome)")
    p_prof.add_argument("--wall", action="store_true",
                        help="run on a thread pool and print the dual-clock "
                             "pool telemetry (pool-capable scenarios only)")
    p_prof.add_argument("--workers", type=int, default=4, metavar="N",
                        help="thread-pool size for --wall (default: 4)")
    p_prof.set_defaults(fn=cmd_profile)
    p_exp = sub.add_parser(
        "explain", help="speculation forensics for one scenario")
    p_exp.add_argument("id", help="fig2..fig7, duplex_abort_heavy, "
                                  "pipeline_fault")
    p_exp.add_argument("--guess", default=None, metavar="ID",
                       help="explain one guess (e.g. X:i0.n0) instead of "
                            "the full report")
    p_exp.add_argument("--json", default=None, metavar="FILE",
                       help="also write the forensic artifact as JSON")
    p_exp.add_argument("--conflicts", action="store_true",
                       help="record access sets and render the WW/WR/RW "
                            "conflict heatmap (access-capable scenarios "
                            "only); writes conflicts_<id>.json unless "
                            "--json names the artifact")
    p_exp.set_defaults(fn=cmd_explain)
    p_sweep = sub.add_parser("sweep", help="latency sweep table")
    p_sweep.add_argument("--calls", type=int, default=10)
    p_sweep.add_argument("--fork-cost", type=float, default=0.0)
    p_sweep.set_defaults(fn=cmd_sweep)
    p_chaos = sub.add_parser(
        "chaos", help="fault-injection harness (see repro.bench.chaos)")
    p_chaos.add_argument("--smoke", action="store_true",
                         help="fast fixed-seed subset, no pin rewrite")
    p_chaos.add_argument("--check-only", action="store_true",
                         help="gate against the BENCH_chaos.json pin "
                              "without rewriting it")
    p_chaos.add_argument("--seed", type=int, default=None, metavar="N",
                         help="run a single fault schedule and print its row")
    p_chaos.add_argument("--exec-seed", type=int, default=None, metavar="N",
                         help="run a single executor-fault schedule and "
                              "print its row")
    p_chaos.add_argument("--out", default=None, metavar="FILE",
                         help="where to write the report JSON")
    p_chaos.set_defaults(fn=cmd_chaos)
    p_kern = sub.add_parser(
        "bench-kernel",
        help="simulator kernel throughput bench (see repro.bench.kernel)")
    p_kern.add_argument("--smoke", action="store_true",
                        help="one repeat, no pin rewrite")
    p_kern.add_argument("--check-only", action="store_true",
                        help="gate against the BENCH_kernel.json pin "
                             "without rewriting it")
    p_kern.add_argument("--profile", nargs="?", const="", default=None,
                        metavar="FILE",
                        help="cProfile the kernel workloads and print "
                             "the top-20 cumulative table")
    p_kern.add_argument("--out", default=None, metavar="FILE",
                        help="where to write the report JSON")
    p_kern.set_defaults(fn=cmd_bench_kernel)
    p_par = sub.add_parser(
        "bench-parallel",
        help="wall-clock parallelism bench (see repro.bench.parallel)")
    p_par.add_argument("--smoke", action="store_true",
                       help="tiny workload + 3 parity seeds, no pin rewrite")
    p_par.add_argument("--check-only", action="store_true",
                       help="gate against the BENCH_parallel.json pin "
                            "without rewriting it")
    p_par.add_argument("--workers", type=int, default=None, metavar="N",
                       help="thread-pool size for the speedup section")
    p_par.add_argument("--out", default=None, metavar="FILE",
                       help="where to write the report JSON")
    p_par.set_defaults(fn=cmd_bench_parallel)
    p_lint = sub.add_parser(
        "lint", help="statically analyze programs and plans")
    from repro.analyze.cli import configure_parser as configure_lint
    configure_lint(p_lint)
    p_lint.set_defaults(fn=cmd_lint)
    sub.add_parser("list", help="list scenarios").set_defaults(fn=cmd_list)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
