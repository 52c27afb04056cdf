"""Timing-free byte-equality gate for the protocol core (``make e2e-digests``).

Each of the five end-to-end workloads runs for half a second and its
``sim_digest`` — every committed trace and every counter of the main rung —
is compared with a pinned one: seed 11 against ``benchmarks/e2e/baseline.json``,
held-out seed 23 against ``tests/data/e2e_digests_seed23.json``.  The duplex
and lossy-chain instances of the two seeds abort and close cycles
differently, so a refactor of the protocol core is checked against both
before anyone looks at a stopwatch.  ~80 s, so it is ``slow``-marked and
outside tier-1.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
BASELINE = json.loads((E2E / "baseline.json").read_text())
SEED23 = json.loads((ROOT / "tests" / "data"
                     / "e2e_digests_seed23.json").read_text())
PINS = {BASELINE["seed"]: {name: pins["sim_digest"] for name, pins
                           in BASELINE["workloads"].items()},
        SEED23["seed"]: SEED23["workloads"]}


@pytest.mark.slow
@pytest.mark.parametrize("seed, workload", [
    (seed, workload) for seed in sorted(PINS) for workload in sorted(PINS[seed])
])
def test_sim_digest_equals_the_pinned_one(seed, workload, tmp_path):
    out = tmp_path / f"{workload}.json"
    subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--out", str(out)],
        check=True, capture_output=True, timeout=600)
    digest = json.loads(out.read_text())["detail"]["sim_digest"]
    assert digest == PINS[seed][workload]
