"""PRECEDENCE by delta: a check looks for the cycle a new edge can close.

Every edge ``add_precedence(h, guard)`` adds ends at ``h``, so while no
pending guess of a process is on a cycle, a new cycle runs through ``h``:
``ProcessRuntime._check_own_cycles`` runs one DFS from ``h`` and scans every
pending guess only when that finds a cycle, or when a scan is already in
progress further up the stack.  Two differential checks hold the argument
to the code.  After every call, brute force over the member edges finds no
pending guess of the process on a cycle.  And a run whose check scans every
pending guess every time — the rule before — writes the same protocol log.
"""

import pytest

from repro.bench.chaos import chaos_config, fault_schedule
from repro.core import OptimisticSystem
from repro.core.guards import GuardSet
from repro.core.guess import GuessId
from repro.core.runtime import GuessRecord, ProcessRuntime
from repro.csp.process import Program, Segment
from repro.sim.network import FixedLatency
from repro.workloads.random_programs import build_random_system
from repro.workloads.scenarios import run_fig4_time_fault, run_fig7_cycle

from .e2e_shapes import duplex_abort, lossy_chain
from .reference_cdg import CommitDependencyGraph as MemberGraph


def own_pending_on_cycles(rt):
    """The pending guesses of ``rt`` on a cycle of its CDG, by brute force."""
    graph = MemberGraph()
    for src, dst in rt.cdg.edges():
        graph.add_edge(src, dst)
    return [record.guess.key() for record in rt.records.values()
            if record.status == "pending"
            and graph.cycle_through(record.guess) is not None]


def scan_everything(rt, guess, grew):
    """The check as it was: every pending guess, in fork order, every time."""
    for record in list(rt.open_records.values()):
        if record.status != "pending":
            continue
        cycle = rt.cdg.cycle_through(record.guess)
        if cycle is not None:
            keys = [g.key() for g in cycle]
            rt.m.aborts_cycle.inc()
            rt.log_event("cycle_abort", guess=record.guess.key(), cycle=keys)
            rt.abort_own([record], reason="cycle", detail={"cycle": keys})


def fig4():
    return run_fig4_time_fault().optimistic


def fig7():
    return run_fig7_cycle()


def chaos(seed):
    spec, plan = fault_schedule(seed)
    return build_random_system(spec, optimistic=True, config=chaos_config(),
                               faults=plan).run()


def log_of(result):
    """The protocol log, less envelope ids: a process-wide counter."""
    return [{key: value for key, value in entry.items() if key != "msg_id"}
            for entry in result.protocol_log]


def both_ways(run, monkeypatch):
    """``run()`` with the delta check, asserting after every call, and with
    the full scan: their protocol logs, and the delta run's checks."""
    checks = []
    delta = ProcessRuntime._check_own_cycles

    def checked(rt, guess, grew):
        delta(rt, guess, grew)
        checks.append(guess)
        assert own_pending_on_cycles(rt) == []

    with monkeypatch.context() as patch:
        patch.setattr(ProcessRuntime, "_check_own_cycles", scan_everything)
        before = log_of(run())
    with monkeypatch.context() as patch:
        patch.setattr(ProcessRuntime, "_check_own_cycles", checked)
        after = log_of(run())
    return before, after, checks


RUNS = ([pytest.param(fig4, id="fig4"), pytest.param(fig7, id="fig7")]
        + [pytest.param(lambda s=s: duplex_abort(20, s).run(),
                        id=f"duplex-{s}") for s in range(20)]
        + [pytest.param(lambda s=s: lossy_chain(30, s).run(),
                        id=f"lossy-{s}") for s in range(10)])


@pytest.mark.parametrize("run", RUNS)
def test_no_pending_guess_is_left_on_a_cycle(run, monkeypatch):
    before, after, _checks = both_ways(run, monkeypatch)
    assert after == before


def test_fig7_checks_and_finds_its_cycle(monkeypatch):
    """Non-vacuity: the checks run, and the scan aborts on a cycle."""
    _before, after, checks = both_ways(fig7, monkeypatch)
    assert checks
    assert any(entry["kind"] == "cycle_abort" for entry in after)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(24))
def test_no_pending_guess_is_left_on_a_cycle_under_chaos(seed, monkeypatch):
    before, after, _checks = both_ways(lambda: chaos(seed), monkeypatch)
    assert after == before


def idle(state):
    return
    yield


def test_a_scan_in_progress_makes_a_nested_check_scan_too(monkeypatch):
    """One PRECEDENCE closes two cycles, ``y0 -> x0 -> y0`` and ``y0 -> x1
    -> y0``.  The scan aborts ``x0`` first; that abort replays a join, whose
    guess ``x2`` gains a predecessor and is checked — nested in the scan,
    and on no cycle.  A scan of everything aborts ``x1`` right there, in the
    nested check, before the outer scan reaches it, and so must the delta
    rule; a nested check that looked from ``x2`` alone would leave ``x1``
    pending on a cycle when it returns."""
    x0, x1, x2 = (GuessId.make("X", 0, n) for n in range(3))
    y0, z0 = GuessId.make("Y", 0, 0), GuessId.make("Z", 0, 0)

    def aborts(check):
        system = OptimisticSystem(FixedLatency(1.0))
        rt = system.add_program(Program("X", [Segment("s", idle)]))
        for n, guess in enumerate((x0, x1, x2)):
            rt.records[guess] = rt.open_records[guess] = GuessRecord(
                guess=guess, site="s", site_seg=0, range_end=1, spec=None,
                guessed={}, left_tid=2 * n, right_tid=2 * n + 1)
        order, depth = [], [0]

        def abort_own(records, reason, root=None, detail=None):
            for record in records:
                record.status = "aborted"
                rt.cdg.remove_node(record.guess)
                order.append((record.guess, depth[0]))
                if record.guess == x0:      # the replayed join of x2
                    depth[0] += 1
                    rt._check_own_cycles(
                        x2, rt.cdg.add_precedence(x2, GuardSet([z0])))
                    depth[0] -= 1
                    assert own_pending_on_cycles(rt) == []

        rt.abort_own = abort_own
        with monkeypatch.context() as patch:
            patch.setattr(ProcessRuntime, "_check_own_cycles", check)
            for x in (x0, x1):
                rt._check_own_cycles(x, rt.cdg.add_precedence(x, [y0]))
            rt._check_own_cycles(
                y0, rt.cdg.add_precedence(y0, GuardSet([x0, x1])))
        return order

    delta = aborts(ProcessRuntime._check_own_cycles)
    assert delta == aborts(scan_everything) == [(x0, 0), (x1, 1)]
