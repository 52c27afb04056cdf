"""Compare two reports of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both values, B/A with A as the
base, the bound fixed in ``BENCHMARK.json``, and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       it is, and the run-to-run spread is inside the bound;
``unresolved``  it is, but the spread either report measured within its own
                run is wider than the bound, so one pair cannot tell.

Simulated statistics (``sim.virtual_speedup``, ``sim.virtual_makespan``,
``sim_digest``), the failure count and, where both reports carry a traced
pass, every exact per-layer count must match exactly: a host-speed change
leaves them identical.  Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: per-layer metrics that are host times, not exact counts
_TIMED_SUFFIXES = (".self_share", ".self_us_per_event")
_TIMED = ("trace_overhead_ratio",)
#: end-to-end metrics whose within-run spread the report carries
_SPREAD_OF = {"ops_per_s": "run_wall_spread",
              "events_per_s": "run_wall_spread",
              "run_wall_s_p50": "run_wall_spread"}


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def exact_rows(a: Dict[str, Any],
                b: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
    """(label, A, B) for everything that must not differ at all."""
    rows = []
    for kind in sorted(set(a) & set(b)):
        da, db = a[kind]["detail"], b[kind]["detail"]
        rows.append((f"{kind} sim_digest", da["sim_digest"][:16],
                     db["sim_digest"][:16]))
        rows.append((f"{kind} failed", a[kind]["failed"], b[kind]["failed"]))
        for metric in da["simulated"]:
            rows.append((metric, da["simulated"][metric],
                         db["simulated"].get(metric)))
    if "per_layer" in a and "per_layer" in b:
        ma, mb = a["per_layer"]["metrics"], b["per_layer"]["metrics"]
        for metric in ma:
            if metric.endswith(_TIMED_SUFFIXES) or metric in _TIMED:
                continue
            rows.append((metric, ma[metric]["value"],
                         mb.get(metric, {}).get("value")))
    return rows


def compare(path_a: str, path_b: str) -> bool:
    """Print the comparison; False if any row is ``worse``."""
    specs = _load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    a, b = _load(path_a)["workloads"], _load(path_b)["workloads"]
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':18s} {'metric':18s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name in a:
        if name not in b:
            continue
        ea, eb = a[name]["end_to_end"], b[name]["end_to_end"]
        for spec in specs:
            metric, bound = spec["name"], spec["bound"]
            va = ea["metrics"][metric]["value"]
            vb = eb["metrics"][metric]["value"]
            ratio = vb / va
            loss = 1 - ratio if spec["better"] == "higher" else ratio - 1
            verdict = "ok"
            if loss > bound:
                key = _SPREAD_OF.get(metric)
                spreads = [e["detail"][key] for e in (ea, eb) if key]
                noisy = any(s is not None and s > bound for s in spreads)
                verdict = "unresolved" if noisy else "worse"
                worse += verdict == "worse"
            print(f"{name:18s} {metric:18s} {va:12.6g} {vb:12.6g} "
                  f"{ratio:7.3f} {bound:6.2f}  {verdict} "
                  f"({spec['unit']}, base A)")
        differing = [(label, x, y)
                     for label, x, y in exact_rows(a[name], b[name])
                     if x != y]
        for label, x, y in differing:
            print(f"{name:18s} {label}: A={x!r} B={y!r}  worse (exact)")
        worse += len(differing)
        if not differing:
            print(f"{name:18s} simulated statistics and exact counts: "
                  "identical")
    print("no row is worse" if not worse else f"{worse} row(s) worse")
    return worse == 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    sys.exit(0 if compare(sys.argv[1], sys.argv[2]) else 1)
