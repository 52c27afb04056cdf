"""Satellite: the §3.2 divergence re-timeout path.

A left thread whose fork timer was cancelled at the join can be rolled
back *past* that join by a foreign abort; the re-execution of S1 is then
uncovered unless ``_perform_rollback`` re-arms the divergence timer (the
``.retimeout`` label).  These tests pin both halves of that contract:
the re-armed timer fires and aborts the guess when re-execution stalls,
and it is cancelled again on commit — no zombie timers.
"""

import pytest

from repro.core import OptimisticSystem
from repro.csp.effects import Call, Compute, Receive, Send
from repro.csp.plan import ForkSpec, ParallelizationPlan
from repro.csp.process import Program, Segment, server_program
from repro.sim.network import FixedLatency
from repro.sim.scheduler import Scheduler
from repro.trace.recorder import RECV


def _m2_deliveries(res):
    """Committed M2 payloads that reached Y."""
    return [ev.payload[2] for ev in res.trace
            if ev.kind == RECV and ev.dst == "Y"]


def _recv_one(state):
    req = yield Receive()
    state["v"] = req.args[0]


def build(z_timeout: float) -> OptimisticSystem:
    """Fig-6 variant where x1 aborts while z1 is pending on PRECEDENCE.

    X's predictor is wrong only in ``q`` — the speculative M1 payload is
    correct, so Z's first join passes the value check and z1 parks as
    pending on {x1}.  When x1's value fault lands, Z rolls back past its
    join into s1, which must re-arm the divergence timer.  The
    continuation's M1 is delayed (state-dependent compute), leaving a
    window in which the re-armed timer may fire.
    """
    def x_s1(state):
        state["r"] = yield Call("W", "work", ())
        state["q"] = state["r"] + 1

    def x_s2(state):
        yield Compute(0.0 if state["q"] == 0 else 15.0)
        yield Send("Z", "M1", (state["r"],))

    prog_x = Program("X", [Segment("s1", x_s1, exports=("r", "q")),
                           Segment("s2", x_s2)])
    plan_x = ParallelizationPlan().add(
        "s1", ForkSpec(predictor={"r": 42, "q": 0}))

    def z_s2(state):
        yield Send("Y", "M2", (state["v"],))

    prog_z = Program("Z", [Segment("s1", _recv_one, exports=("v",)),
                           Segment("s2", z_s2)])
    plan_z = ParallelizationPlan().add(
        "s1", ForkSpec(predictor={"v": 42}, timeout=z_timeout))

    def worker(state, req):
        return 42

    def collector(state, req):
        state.setdefault("got", []).append(tuple(req.args))
        return None

    system = OptimisticSystem(FixedLatency(3.0))
    system.add_program(prog_x, plan_x)
    system.add_program(prog_z, plan_z)
    system.add_program(server_program("W", worker, service_time=1.0))
    system.add_program(server_program("Y", collector))
    return system


@pytest.fixture
def rearm_labels(monkeypatch):
    """Record every ``.retimeout`` timer armed during the run."""
    labels = []
    orig = Scheduler.timer

    def spy(self, delay, fn, label=None):
        if label is not None and label.endswith(".retimeout"):
            labels.append(label)
        return orig(self, delay, fn, label=label)

    monkeypatch.setattr(Scheduler, "timer", spy)
    return labels


def test_rearmed_timer_fires_and_aborts(rearm_labels):
    # T=5 outlives the original S1 (speculative M1 arrives at ~3) but not
    # the wait for the continuation's delayed M1 (~25): the re-armed timer
    # fires mid-re-execution and aborts z1 by timeout.
    res = build(z_timeout=5.0).run()
    assert rearm_labels, "rollback past the join must re-arm the timer"
    assert res.stats.get("opt.aborts.timeout") == 1
    assert res.count("timeout_abort", "Z") == 1
    # the run still converges to the sequential outcome
    assert res.unresolved == []
    assert _m2_deliveries(res) == [(42,)]
    assert res.final_states["Z"]["v"] == 42


def test_rearmed_timer_cancelled_on_commit(rearm_labels):
    # T far beyond the continuation's M1: re-execution terminates, z1
    # commits, and the commit must cancel the re-armed timer.
    system = build(z_timeout=200.0)
    system.start()
    records = {}    # the runtime reclaims a record at commit: keep them
    while system.scheduler.step():
        records.update(system.runtimes["Z"].records)
    res = system.run()
    assert rearm_labels, "rollback past the join must re-arm the timer"
    assert res.stats.get("opt.aborts.timeout") == 0
    assert res.count("commit", "Z") == 1
    assert res.unresolved == []
    assert _m2_deliveries(res) == [(42,)]
    assert records
    for record in records.values():
        assert (record.timer is None or record.timer.cancelled
                or record.timer.fired)
    # quiescence long before the 200-unit timer would have fired
    assert res.makespan < 100.0
