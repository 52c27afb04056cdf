"""Cost gate for the lossy substrate: counts, not seconds.

On ``chain_lossy`` (a 30-call chain over links that drop, duplicate and
reorder) the fault plane and the reliable transport run once per frame.
Fault draws are buffered (:meth:`RngRegistry.uniform` fetches a block of
doubles per numpy call), so a faulted message costs a small fraction of a
``Generator`` call instead of about three; and the receive path bumps its
counters by key, so an acked frame costs no ``Stats.incr`` and no metric
``.inc()`` call.
"""

import sys

import numpy as np
import pytest

from repro.obs.metrics import Counter
from repro.sim.faults import FaultyNetwork
from repro.sim.stats import Stats

from .e2e_shapes import lossy_chain

#: numpy ``Generator`` calls per message that reaches the fault draws
MAX_GENERATOR_CALLS_PER_MESSAGE = 0.02


class _CountingGenerator:
    """A ``Generator`` whose every method call is counted."""

    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._calls[0] += 1
            return attr(*args, **kwargs)
        return counted


@pytest.fixture(scope="module")
def lossy_run():
    """One 30-call lossy chain with its generator and counter calls."""
    patch = pytest.MonkeyPatch()
    generator_calls = [0]
    faulted = [0]
    receive_path_bumps = [0]
    real_default_rng = np.random.default_rng
    real_send = FaultyNetwork.send
    real_incr = Stats.incr
    real_inc = Counter.inc

    def default_rng(*args, **kwargs):
        return _CountingGenerator(real_default_rng(*args, **kwargs),
                                  generator_calls)

    def send(self, src, dst, payload, *, control=False, size=1):
        if not ({src, dst} & (self.protected | self.down)):
            faulted[0] += 1
        return real_send(self, src, dst, payload, control=control, size=size)

    def on_receive_path(frame):
        code = frame.f_code
        return ((code.co_name == "handler"
                 and code.co_filename.endswith("transport.py"))
                or (code.co_name == "send"
                    and code.co_filename.endswith("faults.py")))

    def incr(self, name, amount=1):
        if on_receive_path(sys._getframe(1)):
            receive_path_bumps[0] += 1
        return real_incr(self, name, amount)

    def inc(self, amount=1):
        if on_receive_path(sys._getframe(1)):
            receive_path_bumps[0] += 1
        return real_inc(self, amount)

    patch.setattr(np.random, "default_rng", default_rng)
    patch.setattr(FaultyNetwork, "send", send)
    patch.setattr(Stats, "incr", incr)
    patch.setattr(Counter, "inc", inc)
    try:
        system = lossy_chain(30, seed=11)
        result = system.run()
    finally:
        patch.undo()
    assert result.unresolved == []
    return {
        "generator_calls": generator_calls[0],
        "faulted": faulted[0],
        "acked_frames": system.stats.get("net.acks_sent"),
        "receive_path_bumps": receive_path_bumps[0],
    }


def test_fault_draws_are_buffered(lossy_run):
    assert lossy_run["faulted"] > 500
    per_message = lossy_run["generator_calls"] / lossy_run["faulted"]
    assert per_message <= MAX_GENERATOR_CALLS_PER_MESSAGE, (
        f"{lossy_run['generator_calls']} numpy Generator calls for "
        f"{lossy_run['faulted']} faulted messages ({per_message:.3f} each)")


def test_acked_frames_bump_no_counter_objects(lossy_run):
    assert lossy_run["acked_frames"] > 500
    assert lossy_run["receive_path_bumps"] == 0, (
        f"{lossy_run['receive_path_bumps']} Stats.incr/Counter.inc calls "
        f"on the receive path for {lossy_run['acked_frames']} acked frames")
