"""End-to-end host-speed benchmark of the optimistic runtime.

Two forms, one file:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    measures one workload in this process and prints its metrics, the last
    line of standard output being one JSON object.  ``--trace 0`` gives the
    end-to-end metrics (host time, tracing off); ``--trace 1`` profiles the
    main rung and gives the per-layer metrics.

``run.py [--seed N] [--smoke] [--traced] [--repeat R] [--out FILE]``
    runs every workload that way, one child process at a time, prints one
    table and writes one report; ``--repeat 2`` compares two such reports.

Closed loop, one client, one process at a time, no threads: a run is a
simulation to quiescence, and the next starts when the last has been
checked.  Host time is what the simulator costs; simulated (virtual) time
is what the modelled system would take, and a host-speed change must leave
every simulated statistic identical.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

DEFAULT_SEED = 11       # seed 23 is held out for later claims
SETUP_PROBES = 3
UNTRACED_SHARE = 0.25   # of a --trace 1 run, to price the profiler
TRACED_INSTANCES = 16   # of the main rung's round that --trace 1 profiles

Metric = Tuple[float, str]


def _load_program() -> Any:
    """Import the program under test from this checkout's ``src/``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"nothing to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import workloads
    return workloads


# ------------------------------------------------------------- one run

class Phases:
    """Spans of the benchmark's own phases, kept in memory.

    One ``iteration`` span per scenario run with children ``build``,
    ``run``, ``analyze`` and ``check``; a phase's self time is its span
    minus its children.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int]) -> Iterator[int]:
        sid = len(self.spans)
        span = {"id": sid, "name": name, "parent": parent,
                "iteration": sid if parent is None else parent,
                "start": time.perf_counter() - self._origin, "end": None}
        self.spans.append(span)
        try:
            yield sid
        finally:
            span["end"] = time.perf_counter() - self._origin

    def seconds_by_phase(self) -> Dict[str, float]:
        """Self time of each phase, summed over iterations."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals.setdefault(span["name"], 0.0)
            duration = span["end"] - span["start"]
            totals[span["name"]] += duration
            if span["parent"] is not None:
                totals["iteration"] -= duration
        return totals


def _span(phases: Optional[Phases], name: str, parent: Optional[int] = None):
    if phases is None:
        return contextlib.nullcontext()
    return phases.span(name, parent)


def run_once(instance: Any, phases: Optional[Phases] = None,
             profiler: Optional[cProfile.Profile] = None
             ) -> Tuple[float, Any]:
    """One scenario run: its timed wall and its checked summary.

    Build, run and analyze are timed; the check is not.  A run that raises
    or fails its check has no summary and counts as failed.
    """
    summary = None
    with _span(phases, "iteration") as iteration:
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        try:
            with _span(phases, "build", iteration):
                built = instance.build()
            with _span(phases, "run", iteration):
                outcome = instance.run(built)
            with _span(phases, "analyze", iteration):
                instance.analyze(outcome)
            ran = True
        except Exception:       # a failed operation, counted and reported
            traceback.print_exc()
            ran = False
        wall = time.perf_counter() - started
        if profiler is not None:
            profiler.disable()
        if ran:
            with _span(phases, "check", iteration):
                try:
                    summary = instance.check(built, outcome)
                except Exception:
                    traceback.print_exc()
    return wall, summary


class RungResult:
    """Whole rounds of one rung: every instance run once per round."""

    def __init__(self, size: int, instances: Sequence[Any]) -> None:
        self.size = size
        self.instances = instances
        self.round_walls: List[float] = []
        self.run_walls: List[float] = []
        self.first: List[Any] = []      # round one's summaries
        self.attempted = 0
        self.failed = 0

    def measure(self, budget: float, phases: Optional[Phases] = None,
                profiler: Optional[cProfile.Profile] = None) -> None:
        """Run rounds until the one nearest the wall budget has ended."""
        spent = 0.0
        while True:
            gc.collect()
            round_wall = 0.0
            for index, instance in enumerate(self.instances):
                wall, summary = run_once(instance, phases, profiler)
                round_wall += wall
                self.run_walls.append(wall)
                self.attempted += 1
                if not self.round_walls:
                    self.first.append(summary)
                # a simulation is a pure function of its input
                elif summary is not None and summary.digest != getattr(
                        self.first[index], "digest", None):
                    print(f"run {index} of size {self.size} committed a "
                          "different result than in round one",
                          file=sys.stderr)
                    summary = None
                self.failed += summary is None
            self.round_walls.append(round_wall)
            spent += round_wall
            if spent + round_wall / 2 >= budget:
                return

    @property
    def rounds(self) -> int:
        return len(self.round_walls)

    def per_round(self, field: str) -> float:
        return sum(getattr(s, field) for s in self.first if s is not None)

    def counters(self) -> Counter:
        totals: Counter = Counter()
        for summary in self.first:
            if summary is not None:
                totals.update(summary.counters)
        return totals

    def run_wall_samples(self) -> List[float]:
        """Wall time of one scenario run, one sample per round."""
        return [wall / len(self.instances) for wall in self.round_walls]

    def digest(self) -> str:
        return hashlib.sha256("".join(
            s.digest if s is not None else "failed"
            for s in self.first).encode()).hexdigest()


def scaling_exponent(rungs: Sequence[RungResult]) -> float:
    """Least-squares slope of log(median run wall) on log(size)."""
    xs = [math.log(r.size) for r in rungs]
    ys = [math.log(statistics.median(r.run_wall_samples())) for r in rungs]
    x_mean, y_mean = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
            / sum((x - x_mean) ** 2 for x in xs))


def tail(samples: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it.

    None while that percentile would lie below the median.
    """
    if len(samples) <= 20:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return {"percentile": 100.0 * (index + 1) / len(ordered),
            "value": ordered[index], "samples": len(ordered)}


def spread(samples: Sequence[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


# ---------------------------------------------------- one workload, one pass

def setup_seconds(args: argparse.Namespace) -> Tuple[float, List[float]]:
    """Median time for a fresh process to import, generate and warm up.

    The child prints the wall-clock time at which it is ready; waiting for
    its exit instead would add the 50 ms steps of a timed ``wait``.
    """
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        started = time.time()
        done = subprocess.run(command, check=True, timeout=120,
                              capture_output=True, text=True)
        samples.append(float(done.stdout) - started)
    return statistics.median(samples), samples


def end_to_end(workload: Any, rungs: List[RungResult], main: RungResult,
               args: argparse.Namespace
               ) -> Tuple[Dict[str, Metric], Dict[str, Any]]:
    for rung, result in zip(workload.rungs, rungs):
        result.measure(args.seconds * rung.share)
    timed = sum(main.round_walls)
    samples = main.run_wall_samples()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup, setup_samples = setup_seconds(args)
    metrics: Dict[str, Metric] = {
        "ops_per_s": (main.rounds * sum(i.ops for i in main.instances)
                      / timed, "ops/s"),
        "events_per_s": (main.rounds * main.per_round("events") / timed,
                         "events/s"),
        "run_wall_s_p50": (statistics.median(samples), "s"),
        "scaling_exponent": (scaling_exponent(rungs), "exponent"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "setup_s": (setup, "s"),
    }
    detail = {
        "run_wall_tail": tail(main.run_walls),
        "run_wall_spread": spread(samples),
        "setup_samples": setup_samples,
        "ladder": [{"size": r.size, "instances": len(r.instances),
                    "rounds": r.rounds,
                    "run_wall_s_p50": statistics.median(r.run_wall_samples())}
                   for r in rungs],
    }
    return metrics, detail


def per_layer(untraced: RungResult, profiled: RungResult, seconds: float
              ) -> Tuple[Dict[str, Metric], Dict[str, Any]]:
    from layers import OPS, SPANS
    from traced import layer_metrics

    untraced.measure(seconds * UNTRACED_SHARE)
    phases = Phases()
    profiler = cProfile.Profile()
    profiled.measure(seconds * (1 - UNTRACED_SHARE), phases, profiler)
    profiler.create_stats()

    counters = profiled.counters()
    counters[OPS] = sum(i.ops for i in profiled.instances)
    counters[SPANS] = int(profiled.per_round("spans"))
    # the profile covers every round, the counters one: scale them up
    counters = {key: value * profiled.rounds
                for key, value in counters.items()}
    missing: List[str] = []
    metrics = layer_metrics(profiler.stats, counters, missing)
    metrics["trace_overhead_ratio"] = (
        statistics.median(profiled.round_walls)
        / statistics.median(untraced.round_walls), "ratio")
    detail = {
        "missing_functions": missing,
        "profiled_rounds": profiled.rounds,
        "phase_self_seconds": phases.seconds_by_phase(),
        "spans": phases.spans,
    }
    return metrics, detail


def run_workload(args: argparse.Namespace) -> int:
    workloads = _load_program()
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    rungs = [RungResult(rung.size, workload.instances(rung, args.seed))
             for rung in workload.rungs]
    main = rungs[workloads.MAIN]
    _wall, warm = run_once(main.instances[0])
    if args.setup_only:
        print(time.time())
        return 0 if warm is not None else 1

    if args.trace:
        # a profiled round costs three to four untraced ones
        instances = main.instances[:TRACED_INSTANCES]
        main = RungResult(main.size, instances)
        rungs = [main, RungResult(main.size, instances)]
        metrics, detail = per_layer(*rungs, args.seconds)
    else:
        metrics, detail = end_to_end(workload, rungs, main, args)
    sequential, optimistic = (main.per_round("sequential_time"),
                              main.per_round("optimistic_time"))
    simulated: Dict[str, Metric] = {
        "sim.virtual_speedup": (sequential / optimistic, "x"),
        "sim.virtual_makespan": (optimistic / len(main.instances), "vtime"),
    }
    if args.trace:
        metrics.update(simulated)
    attempted = 1 + sum(r.attempted for r in rungs)
    failed = (warm is None) + sum(r.failed for r in rungs)
    report = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "detail": dict(
            detail, sim_digest=main.digest(),
            failed_ops_share=failed / attempted,
            simulated={name: value
                       for name, (value, _unit) in simulated.items()}),
    }
    if args.out:
        _write(args.out, report)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'sim_digest':40s} {report['detail']['sim_digest']}")
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------- every workload

def _write(path: str, report: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _child(name: str, trace: int, args: argparse.Namespace,
           out: str) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--out", out]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=600)
    if not os.path.exists(out):
        sys.exit(f"{name}: exit code {done.returncode} and no report")
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(out)
    report["exit_code"] = done.returncode
    return report


def _declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args: argparse.Namespace, out: str) -> Dict[str, Any]:
    """Every workload, one child at a time; prints and writes one report."""
    names = [w["name"] for w in _declared()["workloads"]]
    report: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                              "smoke": args.smoke, "workloads": {}}
    for name in names:
        passes = {"end_to_end": _child(name, 0, args, out + ".part")}
        if args.traced:
            passes["per_layer"] = _child(name, 1, args, out + ".part")
        report["workloads"][name] = passes
        for kind, child in passes.items():
            print(f"== {name} {kind}: attempted {child['attempted']}, "
                  f"failed {child['failed']}, "
                  f"sim_digest {child['detail']['sim_digest'][:16]}")
            for metric, entry in child["metrics"].items():
                print(f"{metric:40s} {entry['value']:.6g} {entry['unit']}")
    _write(out, report)
    print(f"report written to {os.path.relpath(out)}")
    return report


def report_ok(report: Dict[str, Any]) -> bool:
    return all(child["correct"] and child["exit_code"] == 0
               for passes in report["workloads"].values()
               for child in passes.values())


def _pin_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0``.

    The runtime iterates over sets of guesses, and where a scan stops
    depends on their order: under random string hashing neither the
    per-layer counts nor the host time of a run repeat from one process to
    the next.  Child processes inherit the setting.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))


def main() -> int:
    _pin_hash_seed()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="wall budget of one pass over one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 s budgets, two small rungs: schema only")
    parser.add_argument("--traced", action="store_true",
                        help="every workload: add the per-layer pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="every workload: run R times and compare")
    parser.add_argument("--out", help="write the full report here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else _declared()["run_seconds"]
    if args.workload:
        return run_workload(args)

    stem = args.out or os.path.join(
        OUT_DIR, f"e2e-seed{args.seed}{'-smoke' if args.smoke else ''}.json")
    if args.repeat == 1:
        return 0 if report_ok(run_all(args, stem)) else 1
    from compare import compare

    base, ext = os.path.splitext(stem)
    paths = [f"{base}.{i + 1}{ext}" for i in range(args.repeat)]
    ok = all([report_ok(run_all(args, path)) for path in paths])
    for other in paths[1:]:
        ok = compare(paths[0], other) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
