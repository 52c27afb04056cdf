"""Recovery (orphan scan, QUERY, crash/restart) on its own: fakes only."""

from types import SimpleNamespace

from repro.core.config import OptimisticConfig, ResilienceConfig
from repro.core.guess import GuessId
from repro.core.history import SystemView
from repro.core.messages import AbortMsg, CommitMsg, DataEnvelope, QueryMsg
from repro.core.pool import MessagePool
from repro.core.recovery import (ORPHAN_SCAN_INTERVAL, ORPHAN_SCAN_MAX_IDLE,
                                 Recovery)
from repro.csp.payloads import OneWay

from .core_fakes import FakeSystem, FakeThread

FOREIGN = GuessId.make("Z", 0, 0)
OWN = GuessId.make("X", 0, 0)


class FakeHost:
    def __init__(self, threads=(), records=()):
        self.threads = {t.tid: t for t in threads}
        self.records = {r.guess: r for r in records}
        self.calls = []

    def abort_own(self, records, reason):
        self.calls.append(("abort_own", [r.guess for r in records], reason))

    def resolve_sweep(self):
        self.calls.append(("resolve_sweep",))


def record(guess, status="pending"):
    rec = SimpleNamespace(guess=guess, status=status, cancelled=False)
    rec.cancel_timer = lambda: setattr(rec, "cancelled", True)
    return rec


def make(host, resilient=True):
    config = OptimisticConfig(
        resilience=ResilienceConfig() if resilient else None)
    system, view = FakeSystem(config), SystemView()
    pool = MessagePool("X", view, system)
    for thread in host.threads.values():     # as ``_create_thread`` does
        for g in thread.guard:
            view.hold(g, thread)
    return Recovery("X", view, system, host), view, system, pool


def test_scan_queries_owners_then_disarms_after_unchanged_rounds():
    host = FakeHost([FakeThread(0, guard=(FOREIGN, OWN))])
    recovery, _view, system, _pool = make(host)
    recovery.arm_scan()
    timers = system.backend.timers
    assert [t.delay for t in timers] == [ORPHAN_SCAN_INTERVAL]
    recovery.arm_scan()                      # already armed: no second timer
    assert len(timers) == 1
    rounds = 0
    while not timers[-1].fired:
        timers[-1].fire()
        rounds += 1
    # one round to see the doubt, then MAX_IDLE rounds in which it is
    # unchanged; the last of them gives up without asking or re-arming
    assert rounds == ORPHAN_SCAN_MAX_IDLE + 1
    queries = [(dst, msg) for _src, dst, msg in system.control]
    assert queries == [("Z", QueryMsg(guess=FOREIGN))] * ORPHAN_SCAN_MAX_IDLE
    assert system.log[-1] == ("X", "orphan_scan_idle",
                              {"unresolved": [FOREIGN.key()]})
    assert system.stats.get("opt.orphan_scans") == rounds


def test_scan_sees_pooled_envelopes_and_stops_when_doubt_resolves():
    host = FakeHost()
    recovery, view, system, pool = make(host)
    recovery.arm_scan()
    assert system.backend.timers == []       # nothing in doubt: no timer
    pool.accept(DataEnvelope("Z", "X", OneWay("op", ()), frozenset({FOREIGN})))
    assert recovery.unresolved_foreign() == {FOREIGN}
    recovery.arm_scan()
    view.note_commit(FOREIGN)
    system.backend.timers[-1].fire()
    assert system.control == [] and len(system.backend.timers) == 1


def test_no_scan_without_a_resilience_configuration():
    recovery, _view, system, _pool = make(
        FakeHost([FakeThread(0, guard=(FOREIGN,))]), resilient=False)
    recovery.arm_scan()
    assert system.backend.timers == []


def test_query_is_answered_only_for_resolved_guesses():
    recovery, view, system, _pool = make(FakeHost())
    recovery.answer_query(QueryMsg(guess=OWN), "A")
    assert system.control == []
    view.note_commit(OWN)
    recovery.answer_query(QueryMsg(guess=OWN), "A")
    aborted = GuessId.make("X", 0, 1)
    view.note_abort(aborted)
    recovery.answer_query(QueryMsg(guess=aborted), "B")
    assert system.control == [("X", "A", CommitMsg(guess=OWN)),
                              ("X", "B", AbortMsg(guess=aborted))]
    assert system.stats.get("opt.query_replies") == 2


def test_crash_freezes_and_restart_aborts_what_was_in_doubt():
    thread = FakeThread(0, guard=(FOREIGN,))
    thread.active = False                    # nothing to replay in a fake
    pending, settled = record(OWN), record(GuessId.make("X", 0, 1), "committed")
    host = FakeHost([thread], [pending, settled])
    recovery, _view, system, _pool = make(host)
    recovery.arm_scan()
    recovery.crash()
    recovery.crash()                         # idempotent
    assert recovery.crashed and thread.cancelled
    assert pending.cancelled and settled.cancelled
    assert system.backend.timers[-1].cancelled
    recovery.arm_scan()                      # a down process arms nothing
    assert len(system.backend.timers) == 1
    recovery.restart()
    assert not recovery.crashed
    assert host.calls == [("abort_own", [OWN], "crash"), ("resolve_sweep",)]
    assert [kind for _p, kind, _d in system.log] == ["crash", "restart"]
