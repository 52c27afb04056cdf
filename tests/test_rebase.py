"""Journal rebase (checkpoint compaction) semantics."""

import pytest

from repro.errors import ProtocolError
from repro.core import OptimisticSystem, make_call_chain, stream_plan
from repro.core.thread import ThreadStatus
from repro.csp.process import server_program
from repro.csp.sequential import SequentialSystem
from repro.sim.network import FixedLatency
from repro.trace import assert_equivalent


def build(optimistic, n_calls=6, fail_at=None):
    def handler(state, req):
        state.setdefault("served", []).append(req.args[0])
        return req.args[0] != fail_at

    calls = [("srv", "op", (f"q{i}",)) for i in range(n_calls)]
    client = make_call_chain("client", calls, stop_on_failure=True,
                             failure_value=False)
    system = (OptimisticSystem if optimistic else SequentialSystem)(
        FixedLatency(3.0))
    if optimistic:
        system.add_program(client, stream_plan(client))
    else:
        system.add_program(client)
    system.add_program(server_program("srv", handler, service_time=0.5))
    return system


def compact_servers(system):
    """Rebase every thread that may compact now; the slots reclaimed."""
    return sum(t.rebase() for rt in system.runtimes.values()
               for t in list(rt.threads.values())
               if t.rebase_refusal() is None)


def run_to_quiescence(system, step=4.0):
    system.start()
    t = 0.0
    while system.scheduler.queue.peek_time() is not None:
        t += step
        system.scheduler.run(until=t)
        yield t


def test_rebase_requires_blocked_receive():
    system = build(True)
    system.start()
    system.scheduler.run(until=0.5)
    client_rt = system.runtimes["client"]
    thread = client_rt.threads[0]  # blocked in a CALL, not a receive
    assert thread.status is ThreadStatus.BLOCKED_CALL
    assert thread.rebase_refusal() is not None
    with pytest.raises(ProtocolError):
        thread.rebase()


def test_rebase_requires_empty_guard():
    system = build(True)
    system.start()
    system.scheduler.run(until=0.5)
    srv = system.runtimes["srv"].threads[0]
    assert srv.status is ThreadStatus.BLOCKED_RECV
    from repro.core.guess import GuessId

    srv.guard.add(GuessId("client", 0, 0))
    with pytest.raises(ProtocolError):
        srv.rebase()
    srv.guard.discard(GuessId("client", 0, 0))


def test_rollback_after_rebase_replays_from_compacted_base():
    """A server rebased mid-run must roll back correctly afterwards."""
    # fail q4 so a late value fault rolls the server back AFTER we have
    # compacted its journal mid-run.
    system = build(True, n_calls=6, fail_at="q4")
    reference = build(False, n_calls=6, fail_at="q4").run()

    rebased = False
    for t in run_to_quiescence(system, step=2.0):
        srv = system.runtimes["srv"].threads[0]
        if (not rebased and srv.status is ThreadStatus.BLOCKED_RECV
                and not srv.guard and srv.journal.live
                and len(srv.journal.slots) >= 3):
            assert srv.rebase_refusal() is None
            compact_servers(system)  # rebases the server loop
            rebased = True
            assert len(srv.journal.slots) == 0
    assert rebased, "test never reached a rebase point"
    result = system.run()
    assert result.unresolved == []
    assert_equivalent(result.trace, reference.trace)


def test_porder_continuity_across_rebase():
    """Events after a rebase must not reuse pre-rebase program orders."""
    system = build(True, n_calls=6)
    reference = build(False, n_calls=6).run()
    compacted = 0
    for t in run_to_quiescence(system, step=2.0):
        compacted += compact_servers(system)  # compact at every pause
    assert compacted > 0
    result = system.run()
    assert_equivalent(result.trace, reference.trace)
    porders = [e.porder for e in result.trace
               if e.kind == "recv" and e.dst == "srv"]
    assert len(porders) == len(set(porders)), "duplicate program orders"
