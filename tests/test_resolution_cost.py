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
from repro.core.cdg import CommitDependencyGraph
from repro.core.history import PeerView
from repro.sim.network import FixedLatency
from repro.workloads.generators import ChainSpec, chain_workload
from repro.workloads.random_duplex import DuplexSpec, build_duplex_system

from .e2e_shapes import duplex_abort, lossy_chain


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


# ------------------------------------------------- PRECEDENCE and the CDG
#
# A PRECEDENCE(h, Guard) costs what it adds: the edges it adds all end at
# h, so one DFS from h decides whether a cycle is new, and the graph keeps
# Guard as runs.  Before, every PRECEDENCE ran a DFS from every pending
# guess of the process (4.85 per PRECEDENCE on the lossy chain) and added
# one edge per member, so the calls into the graph per scheduler event
# grew with the depth: 2.46 / 3.76 / 6.14 at 15 / 30 / 60 lossy calls.


def precedence_costs(system, monkeypatch):
    """Per PRECEDENCE ingested: the guard's runs, the view registrations
    and predecessor-run updates the graph made, and whether a check's DFS
    from the guess found a cycle; plus the DFS runs inside full scans."""
    runtimes = {id(rt.cdg): rt for rt in system.runtimes.values()}
    adds, scanned, inside = [], [0], [None]
    add_precedence = CommitDependencyGraph.add_precedence
    cycle_through = CommitDependencyGraph.cycle_through
    hold_run = PeerView.hold_run

    def pred_runs(cdg):
        return {(key, dst): runs for key, filed in cdg._pred.items()
                for dst, runs in filed.items()}

    def adding(cdg, guess, guard):
        inside[0], before = cdg, pred_runs(cdg)
        adds.append({"runs": sum(len(runs) // 2 for _k, runs in guard.runs()),
                     "holds": 0, "dfs": 0, "found": 0})
        try:
            return add_precedence(cdg, guess, guard)
        finally:
            inside[0] = None
            adds[-1]["updates"] = sum(
                before.get(entry) != runs
                for entry, runs in pred_runs(cdg).items())

    def holding(peer, incarnation, lo, top, holder):
        if holder is inside[0]:
            adds[-1]["holds"] += 1
        return hold_run(peer, incarnation, lo, top, holder)

    def searching(cdg, node):
        cycle = cycle_through(cdg, node)
        if runtimes[id(cdg)]._cycle_scans:
            scanned[0] += 1
        else:
            adds[-1]["dfs"] += 1
            adds[-1]["found"] += cycle is not None
        return cycle

    with monkeypatch.context() as patch:
        patch.setattr(CommitDependencyGraph, "add_precedence", adding)
        patch.setattr(CommitDependencyGraph, "cycle_through", searching)
        patch.setattr(PeerView, "hold_run", holding)
        assert system.run().unresolved == []
    return adds, scanned[0]


@pytest.mark.parametrize("build, size", [
    pytest.param(lossy_chain, 30, id="lossy-30"),
    pytest.param(duplex_abort, 20, id="duplex-20"),
])
def test_a_precedence_costs_what_it_adds(build, size, monkeypatch):
    adds, scanned, found = [], 0, 0
    for seed in range(4):
        more, scans = precedence_costs(build(size, 11000 + seed), monkeypatch)
        adds += more
        scanned += scans
        found += sum(add["found"] for add in more)
    assert adds
    # at most one DFS per PRECEDENCE; the fork-order scan only on a cycle
    assert all(add["dfs"] <= 1 for add in adds)
    assert scanned == 0 or found > 0
    # one predecessor-run update per guard run; registrations: one per run
    # overall, the guess itself at most once more
    assert all(add["updates"] <= add["runs"] for add in adds)
    assert all(add["holds"] <= add["runs"] + 1 for add in adds)
    assert sum(add["holds"] for add in adds) <= sum(
        add["runs"] for add in adds)


def cdg_calls(system, monkeypatch):
    """Calls into the graph (private ones too), DFS runs among them, and
    the scheduler events of the run."""
    calls = {"all": 0, "cycle_through": 0}

    def counting(name, method):
        def counted(self, *args, **kwargs):
            calls["all"] += 1
            calls[name] = calls.get(name, 0) + 1
            return method(self, *args, **kwargs)
        return counted

    with monkeypatch.context() as patch:
        for name, method in vars(CommitDependencyGraph).items():
            if inspect.isfunction(method) and name != "__init__":
                patch.setattr(CommitDependencyGraph, name,
                              counting(name, method))
        result = system.run()
    assert result.unresolved == []
    return calls, result.stats.counters["sim.events_processed"]


def test_cdg_work_per_event_does_not_grow_with_the_lossy_chain(monkeypatch):
    """From 15 to 30 lossy calls, per scheduler event: every call into the
    graph, and the DFS runs (0.287 -> 0.474 per event before, 1.65x)."""
    def per_event(n_calls):
        calls, events = {"all": 0, "cycle_through": 0}, 0
        for seed in range(4):
            more, happened = cdg_calls(lossy_chain(n_calls, 11000 + seed),
                                       monkeypatch)
            events += happened
            for name in calls:
                calls[name] += more[name]
        return {name: count / events for name, count in calls.items()}

    shallow, deep = per_event(15), per_event(30)
    for name in shallow:
        assert deep[name] <= 1.5 * shallow[name]
