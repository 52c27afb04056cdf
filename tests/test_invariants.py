"""Post-run invariant validation over the standard scenarios."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OptimisticSystem, make_call_chain, stream_plan
from repro.core.invariants import validate_run
from repro.csp.process import server_program
from repro.sim.network import FixedLatency
from repro.workloads.generators import ChainSpec, chain_workload


def run_system(spec: ChainSpec) -> OptimisticSystem:
    client, servers = chain_workload(spec)
    system = OptimisticSystem(FixedLatency(spec.latency))
    system.add_program(client, stream_plan(client))
    for s in servers:
        system.add_program(s)
    system.run()
    return system


def test_fault_free_run_satisfies_all_invariants():
    system = run_system(ChainSpec(n_calls=8, n_servers=2, latency=5.0,
                                  service_time=0.5))
    assert validate_run(system) == ["I1", "I2", "I3", "I4", "I5", "I6",
                                    "I7", "I8", "I9", "I11"]


def test_faulty_runs_satisfy_all_invariants():
    for p_fail, seed in [(0.3, 2), (0.6, 5), (1.0, 1)]:
        system = run_system(ChainSpec(n_calls=8, n_servers=2, latency=5.0,
                                      service_time=0.5, p_fail=p_fail,
                                      seed=seed))
        validate_run(system)


def test_fig7_requires_allow_unresolved():
    from repro.csp.plan import ForkSpec, ParallelizationPlan
    from repro.csp.effects import Receive, Send, Call
    from repro.csp.process import Program, Segment

    def s1(state):
        req = yield Receive()
        state["v"] = req.args[0]

    def x_s2(state):
        yield Call("W", "log", (state["v"],))
        yield Send("Z", "M2", (state["v"],))

    def z_s2(state):
        yield Call("Y", "log", (state["v"],))
        yield Send("X", "M1", (state["v"],))

    system = OptimisticSystem(FixedLatency(3.0))
    system.add_program(
        Program("X", [Segment("s1", s1, exports=("v",)),
                      Segment("s2", x_s2)]),
        ParallelizationPlan().add("s1", ForkSpec(predictor={"v": 7})))
    system.add_program(
        Program("Z", [Segment("s1", s1, exports=("v",)),
                      Segment("s2", z_s2)]),
        ParallelizationPlan().add("s1", ForkSpec(predictor={"v": 7})))
    system.add_program(server_program("W", lambda s, r: True))
    system.add_program(server_program("Y", lambda s, r: True))
    system.run(until=300.0)
    # after the mutual abort, the re-executed S1s block forever: the run
    # quiesces with deliberately-unresolved state
    validate_run(system, allow_unresolved=True)


@settings(max_examples=25, deadline=None)
@given(
    n_calls=st.integers(1, 7),
    n_servers=st.integers(1, 3),
    latency=st.floats(0.5, 10.0),
    p_fail=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 5000),
)
def test_invariants_hold_across_workload_space(n_calls, n_servers, latency,
                                               p_fail, seed):
    system = run_system(ChainSpec(n_calls=n_calls, n_servers=n_servers,
                                  latency=latency, service_time=0.5,
                                  p_fail=p_fail, seed=seed))
    validate_run(system)


def test_i4_reports_a_pooled_envelope_a_blocked_thread_would_take():
    """I4 is a real check: plant what dispatch would never leave behind."""
    from repro.core.guess import GuessId
    from repro.core.messages import DataEnvelope
    from repro.csp.payloads import OneWay
    from repro.errors import ProtocolError

    system = run_system(ChainSpec(n_calls=3, n_servers=1, latency=2.0,
                                  service_time=0.5))
    validate_run(system)
    server = system.runtimes["S0"]      # quiesced, blocked in its Receive
    stray = DataEnvelope("client", "S0", OneWay("op", ()), frozenset())
    server.inbox.envelopes.append(stray)
    with pytest.raises(ProtocolError, match=r"I4: S0 pool retains envelope"):
        validate_run(system)
    # ...while an orphan nobody dispatched is fine
    dead = GuessId.make("client", 7, 0)
    server.view.note_abort(dead)
    server.inbox.envelopes[:] = [
        DataEnvelope("client", "S0", OneWay("op", ()), frozenset({dead}))]
    validate_run(system)


def test_i9_reports_a_holding_the_index_misses_and_a_stale_entry():
    """I9 is a real check: both directions of index/holder disagreement."""
    from repro.core.guess import GuessId
    from repro.errors import ProtocolError

    system = run_system(ChainSpec(n_calls=3, n_servers=1, latency=2.0,
                                  service_time=0.5))
    validate_run(system)
    server = system.runtimes["S0"]
    thread = next(iter(server.threads.values()))
    # a guard member acquired behind the index's back
    unheard = GuessId.make("client", 0, 40)
    thread.guard.add(unheard)
    with pytest.raises(ProtocolError,
                       match=r"I9: S0 index misses client:i0.n40 held by "
                             r"OptimisticThread"):
        validate_run(system, allow_unresolved=True)
    server.view.hold(unheard, thread)
    validate_run(system, allow_unresolved=True)
    # a run registered short of its top: the member above it is uncovered
    for index in (41, 42):
        thread.guard.add(GuessId.make("client", 0, index))
    server.view.release(unheard, thread)
    server.view.peer("client").hold_run(0, 40, 41, thread)
    with pytest.raises(ProtocolError,
                       match=r"I9: S0 index misses client:i0.n42 held by "
                             r"OptimisticThread"):
        validate_run(system, allow_unresolved=True)
    server.view.peer("client").release_run(0, 40, 41, thread)
    server.view.hold_all(thread.guard, thread)      # one run, under n42
    validate_run(system, allow_unresolved=True)
    # a resolution that bypasses the view's funnel (what ``abort_own`` used
    # to do): the table truncates the guess, nobody is told
    server.view.peer("client").incarnations.learn_start(1, 0)
    with pytest.raises(ProtocolError,
                       match=r"I9: S0 index retains resolved client:i0.n42"):
        validate_run(system, allow_unresolved=True)


def test_i4_is_clean_on_every_chaos_schedule():
    """Lossy links, duplicates, a crash: no schedule strands a message."""
    from repro.bench import chaos

    for seed in range(chaos.N_SCHEDULES):
        assert chaos.run_schedule(seed)["invariant_problems"] == [], seed
