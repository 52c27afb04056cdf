"""Speculation state is reclaimed where it settles (§3.2).

A committing computation "discards any state it created for purposes of
rolling back": the runtime drops a destroyed thread, a settled guess
record and a finished left thread at the site that settles them, and a
control relay forgets who depends on a guess once its COMMIT or ABORT has
gone out.  These tests step the scheduler one event at a time, check I11
(:func:`~repro.core.invariants.unreclaimed`) after every event, and hold
the stepped run to the committed trace, makespan, final states and
counters of an unstepped run of the same system.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OptimisticSystem, stream_plan
from repro.core.config import ControlPlane, GovernorConfig, OptimisticConfig
from repro.core.invariants import unreclaimed, validate_run
from repro.core.runtime import ProcessRuntime
from repro.core.thread import ThreadStatus
from repro.csp.effects import Call, Compute
from repro.csp.plan import ForkSpec, ParallelizationPlan
from repro.csp.process import Program, Segment, server_program
from repro.sim.network import FixedLatency
from repro.workloads.generators import ChainSpec, chain_workload
from repro.workloads.random_duplex import DuplexSpec, build_duplex_system
from repro.workloads.random_programs import (RandomProgramSpec,
                                             build_random_system)


def stepped(system, at_each=None):
    """Run ``system`` one scheduler event at a time, asserting I11 after
    every event; ``at_each(system)`` runs after each check."""
    system.start()
    while system.scheduler.step():
        for rt in system.runtimes.values():
            assert unreclaimed(rt) == [], rt.name
        if at_each is not None:
            at_each(system)
    return system.run()


def committed(result):
    return [(ev.kind, ev.src, ev.dst, ev.payload, ev.time, ev.seq, ev.porder)
            for ev in result.trace]


def assert_same_run(build):
    """A stepped run of ``build()`` equals an unstepped one, and the
    system it leaves holds nothing reclaimable."""
    plain = build().run()
    system = build()
    result = stepped(system)
    assert committed(result) == committed(plain)
    assert result.makespan == plain.makespan
    assert result.final_states == plain.final_states
    assert result.stats.counters == plain.stats.counters
    validate_run(system)
    return system, result


def timed_out_guess():
    """S1 computes for 50 units; its fork timer expires at t=10."""
    def s1(state):
        yield Compute(50.0)
        state["v"] = 1

    def s2(state):
        state["r"] = yield Call("srv", "op", (state["v"],))

    prog = Program("X", [Segment("s1", s1, exports=("v",)),
                         Segment("s2", s2)])
    plan = ParallelizationPlan().add(
        "s1", ForkSpec(predictor={"v": 1}, timeout=10.0))
    system = OptimisticSystem(FixedLatency(2.0))
    system.add_program(prog, plan)
    system.add_program(server_program("srv", lambda s, r: r.args[0]))
    return system


def chain(p_fail=0.0, seed=0, n_calls=10, config=None):
    spec = ChainSpec(n_calls=n_calls, n_servers=2, latency=5.0,
                     service_time=0.5, p_fail=p_fail, seed=seed)
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency), config=config)
    system.add_program(client, stream_plan(client))
    for s in servers:
        system.add_program(s)
    return system


def test_timed_out_guess_is_kept_until_its_left_thread_joins():
    """The timer aborts the guess at t=10; its record outlives the abort
    while S1 still computes, for the left thread's join at t=50 reads it
    and spawns the continuation."""
    system = timed_out_guess()
    seen = []

    def at_each(sys_):
        rt = sys_.runtimes["X"]
        if 10.0 <= sys_.scheduler.now < 50.0:
            seen.append([r.status for r in rt.records.values()])

    result = stepped(system, at_each)
    assert ["aborted"] in seen
    assert result.stats.get("opt.aborts.timeout") == 1
    assert result.makespan == 54.0
    assert result.final_states["X"] == {"v": 1, "r": 1}
    assert system.runtimes["X"].records == {}
    assert_same_run(timed_out_guess)


def test_destroyed_threads_leave_the_table():
    system, result = assert_same_run(
        lambda: chain(p_fail=0.5, seed=7, n_calls=8))
    assert result.stats.get("opt.threads_destroyed") > 0
    for rt in system.runtimes.values():
        assert all(t.status is not ThreadStatus.DESTROYED
                   for t in rt.threads.values())


def test_final_states_preserved():
    system, result = assert_same_run(
        lambda: chain(p_fail=0.4, seed=3, n_calls=8))
    assert (system.runtimes["client"].final_state()
            == result.final_states["client"])


def test_midrun_behaviour_identical():
    assert_same_run(lambda: chain(p_fail=0.4, seed=7))


def test_reclaimed_at_quiescence():
    """At quiescence a committed chain keeps its main line and servers:
    no record, no left thread, no dependents."""
    config = OptimisticConfig(control_plane=ControlPlane.TARGETED)
    system, result = assert_same_run(lambda: chain(config=config))
    assert result.stats.get("opt.commits") > 0
    for rt in system.runtimes.values():
        assert rt.records == {} and rt.open_records == {}
        assert rt.control.dependents == {}
        assert len(rt.threads) == 1


def test_a_second_look_finds_nothing():
    """Looking again at a quiescent system finds nothing to reclaim and
    changes no table."""
    config = OptimisticConfig(control_plane=ControlPlane.TARGETED)
    system, _ = assert_same_run(lambda: chain(n_calls=6, config=config))

    def tables():
        return {name: (list(rt.threads), dict(rt.records),
                       dict(rt.open_records), dict(rt.control.dependents))
                for name, rt in system.runtimes.items()}

    before = tables()
    validate_run(system)
    assert all(unreclaimed(rt) == [] for rt in system.runtimes.values())
    assert tables() == before


@settings(max_examples=25, deadline=None)
@given(spec=st.builds(
           RandomProgramSpec,
           n_segments=st.integers(1, 7),
           n_servers=st.integers(1, 3),
           latency=st.floats(0.5, 8.0),
           service_time=st.floats(0.0, 2.0),
           seed=st.integers(0, 100_000),
           guess_accuracy_bias=st.sampled_from([1, 2, 4])),
       control=st.sampled_from(list(ControlPlane)))
def test_random_programs_reclaim_at_every_event(spec, control):
    config = OptimisticConfig(control_plane=control)
    assert_same_run(
        lambda: build_random_system(spec, optimistic=True, config=config))


@settings(max_examples=25, deadline=None)
@given(spec=st.builds(
           DuplexSpec,
           n_steps=st.integers(1, 6),
           n_signals=st.integers(0, 3),
           n_servers=st.integers(1, 3),
           latency=st.floats(0.5, 10.0),
           service_time=st.floats(0.0, 2.0),
           seed=st.integers(0, 100_000),
           wrong_guess_bias=st.sampled_from([1, 3, 5])),
       control=st.sampled_from(list(ControlPlane)))
def test_random_duplex_reclaim_at_every_event(spec, control):
    config = OptimisticConfig(control_plane=control)
    assert_same_run(
        lambda: build_duplex_system(spec, optimistic=True, config=config))


@pytest.mark.parametrize("config, seed", [
    (OptimisticConfig(governor=GovernorConfig(max_depth=3)), 2),
    (OptimisticConfig(eager_cdg_rollback=True), 0),
], ids=["governed", "eager_cdg_rollback"])
def test_an_undone_fork_never_spins_the_sweep(monkeypatch, config, seed):
    """A record whose fork a rollback undid is settled at once.  Kept
    open, it made sweep phase 2 "spawn" its continuation (a no-op) and
    report a change on every pass, for ever, once the former left thread
    had finished the whole range."""
    passes = [0]
    sweep_once = ProcessRuntime._sweep_once

    def counted(rt):
        passes[0] += 1
        assert passes[0] < 100_000, "resolve_sweep does not converge"
        return sweep_once(rt)

    monkeypatch.setattr(ProcessRuntime, "_sweep_once", counted)
    spec = DuplexSpec(n_steps=12, n_signals=4, n_servers=2,
                      wrong_guess_bias=3, seed=seed)
    system = build_duplex_system(spec, optimistic=True, config=config)
    result = system.run()
    assert result.unresolved == []
    validate_run(system)
    if not config.eager_cdg_rollback:   # the literal §4.2.8 rule is unsound
        reference = build_duplex_system(spec, optimistic=False).run()
        for side in ("A", "B"):
            assert result.final_states[side] == reference.final_states[side]


# ------------------------------------------------------------ bound gates

MAX_DEPTH = 8


def governed_chain(n_calls):
    """The e2e ``chain_commit`` spec, speculation depth bounded."""
    spec = ChainSpec(n_calls=n_calls, n_servers=4, latency=5.0,
                     service_time=1.0, p_fail=0.0, seed=11000)
    client, servers = chain_workload(spec)
    system = OptimisticSystem(
        FixedLatency(spec.latency),
        config=OptimisticConfig(governor=GovernorConfig(max_depth=MAX_DEPTH)))
    system.add_program(client, stream_plan(client))
    for server in servers:
        system.add_program(server)
    return system


def test_retained_state_is_bounded_by_speculation_depth():
    """1,600 governed calls: the client never holds more than a constant
    times ``max_depth`` threads or records, sampled at every 100th event
    and at quiescence."""
    system = governed_chain(1600)
    client = system.runtimes["client"]
    system.start()
    samples = []
    while system.scheduler.step():
        if system.scheduler.steps_executed % 100 == 0:
            samples.append((len(client.threads), len(client.records)))
    result = system.run()
    samples.append((len(client.threads), len(client.records)))
    assert result.stats.get("opt.commits") > 1000
    assert max(threads for threads, _ in samples) <= 2 * MAX_DEPTH
    assert max(records for _, records in samples) <= 2 * MAX_DEPTH


def peak_per_call(n_calls):
    system = governed_chain(n_calls)
    tracemalloc.start()
    try:
        system.run()
        return tracemalloc.get_traced_memory()[1] / n_calls
    finally:
        tracemalloc.stop()


@pytest.mark.slow
def test_memory_per_call_is_flat_on_a_long_stream():
    """The tracemalloc peak per call at 1,600 governed calls stays within
    1.2x of the peak per call at 200."""
    assert peak_per_call(1600) <= 1.2 * peak_per_call(200)
