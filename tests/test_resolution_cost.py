"""Scaling guard for commit/abort resolution: counts, not seconds.

Resolution is by notification (the holder index of ``core/history.py``), so
``PeerView.status`` is asked about the guesses a message or a notification
names, never about every guard member on every pass.  What is left is one
query per guard member of an arriving message and per holder of a committed
guess, so status queries per scheduler event may grow with the depth of
speculation but no faster; when the sweep and dispatch passes polled, they
grew with its square (485 per event on the 80-call chain below, 14 times
the 20-call figure; 89 on the 20-step duplex, 3.4 times the 10-step one).
"""

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


def queries_per_event(system, monkeypatch):
    calls = [0]
    status = PeerView.status

    def counted(self, guess):
        calls[0] += 1
        return status(self, guess)

    with monkeypatch.context() as patch:
        patch.setattr(PeerView, "status", counted)
        result = system.run()
    assert result.unresolved == []
    return calls[0] / result.stats.counters["sim.events_processed"]


@pytest.mark.parametrize("build, small, large", [(chain, 20, 80),
                                                 (duplex, 10, 20)])
def test_status_queries_per_event_do_not_grow_with_depth(
        build, small, large, monkeypatch):
    shallow = queries_per_event(build(small), monkeypatch)
    deep = queries_per_event(build(large), monkeypatch)
    assert deep <= 60
    assert deep / shallow <= large / small
