"""Scaling guard for commit/abort resolution: counts, not seconds.

Resolution is by notification (the holder index of ``core/history.py``)
and a guard is kept as index runs, registered once per run: what a
scheduler event costs the view — every query *and* every registration,
``status``, ``live``, ``hold_run``, ``release_run`` and whatever a later
change adds — does not depend on how deep the speculation is.  With one
registration and one query per guard *member* it grew with the depth (52
per event on the 80-call chain below, 3.4 times the 20-call figure; 20.6
on the 20-step duplex); when the sweep and dispatch passes polled, with
its square (485 status queries alone on the same chain).
"""

import inspect

import pytest

from repro.core import OptimisticSystem, stream_plan
from repro.core.history import PeerView
from repro.sim.network import FixedLatency
from repro.workloads.generators import ChainSpec, chain_workload
from repro.workloads.random_duplex import DuplexSpec, build_duplex_system


def chain(n_calls):
    spec = ChainSpec(n_calls=n_calls, n_servers=4, latency=5.0,
                     service_time=1.0, p_fail=0.0, seed=11)
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency))
    system.add_program(client, stream_plan(client))
    for server in servers:
        system.add_program(server)
    return system


def duplex(n_steps):
    return build_duplex_system(
        DuplexSpec(n_steps=n_steps, n_signals=n_steps // 4, n_servers=2,
                   wrong_guess_bias=3, seed=11), optimistic=True)


#: the updates (a message arrived); everything else public is counted
UPDATES = {"note_commit", "note_abort", "note_unknown", "learn_start"}


def view_calls_per_event(system, monkeypatch):
    calls = [0]

    def counting(method):
        def counted(self, *args, **kwargs):
            calls[0] += 1
            return method(self, *args, **kwargs)
        return counted

    with monkeypatch.context() as patch:
        for name, method in vars(PeerView).items():
            if (inspect.isfunction(method) and not name.startswith("_")
                    and name not in UPDATES):
                patch.setattr(PeerView, name, counting(method))
        result = system.run()
    assert result.unresolved == []
    return calls[0] / result.stats.counters["sim.events_processed"]


@pytest.mark.parametrize("build, small, large, ceiling, growth", [
    pytest.param(chain, 20, 80, 12, 1.5, id="chain-20-80"),
    # the member-per-registration index made 20.57 calls per event on the
    # 20-step duplex; its cost still follows the aborts, not the depth
    pytest.param(duplex, 10, 20, 20.57 / 2, 2.0, id="duplex-10-20"),
])
def test_status_queries_per_event_do_not_grow_with_depth(
        build, small, large, ceiling, growth, monkeypatch):
    """All view calls, not only ``status`` (the name is the floor's)."""
    shallow = view_calls_per_event(build(small), monkeypatch)
    deep = view_calls_per_event(build(large), monkeypatch)
    assert deep <= ceiling
    assert deep / shallow <= growth
