"""MessagePool (§4.2.3) on its own: fakes, no scheduler run."""

import pytest

from repro.core.config import (DeliveryHeuristic, OptimisticConfig,
                               ResilienceConfig)
from repro.core.guess import GuessId
from repro.core.history import SystemView
from repro.core.journal import RESULT, Slot
from repro.core.messages import DataEnvelope
from repro.core.pool import MessagePool
from repro.core.thread import ThreadStatus
from repro.csp.effects import Receive
from repro.csp.payloads import CallRequest, CallResponse, OneWay
from repro.errors import ProtocolError

from .core_fakes import FakeSystem, FakeThread

G = GuessId.make("C", 0, 0)


def make(config=None):
    system, view = FakeSystem(config), SystemView()
    return MessagePool("S", view, system), view, system


def request(op="put", guard=()):
    return DataEnvelope("C", "S", OneWay(op, (1,)), frozenset(guard))


def table(*threads):
    """The tid -> thread table the runtime hands the pool."""
    return {t.tid: t for t in threads}


def receiver(tid, **kw):
    return FakeThread(tid, ThreadStatus.BLOCKED_RECV, receive=Receive(), **kw)


def test_reply_goes_to_the_thread_blocked_on_that_call():
    pool, _view, _system = make()
    other = FakeThread(0, ThreadStatus.BLOCKED_CALL, call_id=(0, 1))
    # pessimistic, and the reply is still guarded: a reply is a forced move
    caller = FakeThread(1, ThreadStatus.BLOCKED_CALL, call_id=(1, 1),
                        pessimistic=True)
    reply = DataEnvelope("S2", "S", CallResponse((1, 1), "v", "op"),
                         frozenset({G}))
    assert pool.accept(reply)
    assert pool.next_delivery(table(other, caller)) == (reply, caller)
    pool.deliver(reply, caller)
    assert caller.delivered == [("reply", reply, "v", "op")]
    assert pool.envelopes == []
    assert pool.taker(reply, table(other)) is None


def test_request_needs_a_blocked_receiver_that_accepts_the_op():
    pool, _view, _system = make()
    call = DataEnvelope("C", "S", CallRequest("get", (), (0, 1), "C"),
                        frozenset())
    busy = FakeThread(0, ThreadStatus.COMPUTING)
    picky = FakeThread(1, ThreadStatus.BLOCKED_RECV,
                       receive=Receive(ops=("put",)))
    assert pool.taker(call, table(busy, picky)) is None
    anyop = receiver(2)
    assert pool.taker(call, table(busy, picky, anyop)) is anyop
    pool.accept(call)
    pool.deliver(call, anyop)
    kind, _env, req = anyop.delivered[0]
    assert kind == "request" and req.is_call and req.reply_to == "C"


@pytest.mark.parametrize("heuristic, chosen", [
    (DeliveryHeuristic.MIN_NEW_DEPS, 0),
    (DeliveryHeuristic.LATEST_THREAD, 1),
])
def test_delivery_heuristic_picks_among_eligible_receivers(heuristic, chosen):
    pool, _view, _system = make(OptimisticConfig(delivery_heuristic=heuristic))
    # t0 already depends on G, so the G-tagged request costs it nothing new
    threads = [receiver(0, guard=(G,)), receiver(1)]
    assert pool.taker(request(guard=(G,)), table(*threads)).tid == chosen


def test_pessimistic_receiver_takes_only_committed_requests():
    pool, view, _system = make()
    thread = receiver(0, pessimistic=True)
    env = request(guard=(G,))
    assert pool.taker(env, table(thread)) is None
    view.note_commit(G)
    assert pool.taker(env, table(thread)) is thread


def test_orphans_are_discarded_on_arrival_and_at_dispatch():
    pool, view, system = make()
    pooled = request(guard=(G,))
    assert pool.accept(pooled)
    view.note_abort(G)
    assert not pool.accept(request(guard=(G,)))         # on arrival
    assert pool.next_delivery(table(receiver(0))) is None    # at dispatch
    assert pool.envelopes == []
    assert system.stats.get("opt.orphans_discarded") == 2
    assert [kind for _p, kind, _d in system.log] == ["orphan_discard"] * 2


def test_duplicates_are_suppressed_only_under_resilience():
    env = request()
    plain, _view, _system = make()
    assert plain.accept(env) and plain.accept(env)
    resilient, _view, system = make(
        OptimisticConfig(resilience=ResilienceConfig()))
    assert resilient.accept(env) and not resilient.accept(env)
    assert system.stats.get("opt.data_duplicates") == 1


def test_requeue_puts_consumed_envelopes_back_first_in_msg_id_order():
    pool, _view, _system = make()
    first, second, waiting = request(), request(), request()
    pool.accept(waiting)
    pool.requeue([
        Slot(kind=RESULT, signature=("receive", 0), envelope=second),
        Slot(kind=RESULT, signature=("gettime", 0), result=3.0),
        Slot(kind=RESULT, signature=("receive", 0), envelope=first),
    ])
    assert pool.envelopes == [first, second, waiting]


def test_acquire_guards_records_the_rollback_position():
    pool, view, system = make()
    done = GuessId.make("D", 0, 0)
    view.note_commit(done)
    thread = receiver(0)
    pool.acquire_guards(thread, request(guard=(G, done)), before_position=4)
    assert thread.guard.members() == {G} and thread.rollbacks == [(4, {G})]
    assert thread.interval == 1
    assert system.stats.get("opt.guards_acquired") == 1


def test_bad_payload_is_a_protocol_error():
    pool, _view, _system = make()
    with pytest.raises(ProtocolError):
        pool.taker(DataEnvelope("C", "S", "junk", frozenset()), {})
