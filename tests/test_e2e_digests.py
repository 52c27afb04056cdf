"""Timing-free byte-equality gate for the protocol core (``make e2e-digests``).

Each of the five end-to-end workloads runs for half a second and its
``sim_digest`` — every committed trace and every counter of the main rung —
is compared with the one pinned in ``benchmarks/e2e/baseline.json``.  A
refactor of the protocol core is checked against that before anyone looks
at a stopwatch.  ~30 s, so it is ``slow``-marked and outside tier-1.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
BASELINE = json.loads((E2E / "baseline.json").read_text())


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(BASELINE["workloads"]))
def test_sim_digest_equals_the_pinned_one(workload, tmp_path):
    out = tmp_path / f"{workload}.json"
    subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", workload,
         "--seed", str(BASELINE["seed"]), "--seconds", "0.5",
         "--out", str(out)],
        check=True, capture_output=True, timeout=600)
    digest = json.loads(out.read_text())["detail"]["sim_digest"]
    assert digest == BASELINE["workloads"][workload]["sim_digest"]
