"""Traced output does not depend on ``PYTHONHASHSEED``.

A run is a pure function of its input, and so must be everything recorded
about it.  Sets of guesses iterate in string-hash order, which changes from
process to process; a ``cdg_edge`` event emitted per member in set order
made the Chrome trace of a duplex or lossy chain differ between two hash
seeds while the protocol log, HB trace and counters agreed.  The graph now
emits the edges of one PRECEDENCE in guard order (process, incarnation,
index).  Both workloads run here in two subprocesses under different hash
seeds, and their traces must be byte-equal.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import hashlib

from repro.obs import RecordingTracer, chrome_trace_json
from tests.e2e_shapes import duplex_abort, lossy_chain

for seed in range(6):
    for build in (duplex_abort, lossy_chain):
        spans = build(16, seed, tracer=RecordingTracer()).run().spans
        text = chrome_trace_json(spans)
        print(build.__name__, seed, hashlib.sha256(text.encode()).hexdigest())
"""


def traces_under(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=600)
    return done.stdout.splitlines()


def test_chrome_traces_are_byte_equal_under_two_hash_seeds():
    first, second = traces_under(0), traces_under(1)
    assert len(first) == 12
    assert first == second
