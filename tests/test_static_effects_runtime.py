"""Runtime consumers of the static effects layer (config.static_effects).

Three certified shortcuts, each tested against the uncertified baseline:

* **deferred guesses** — exports the continuation provably ignores are
  dropped from the guess at fork; the committed actuals overlay the
  final state, so a wrong "guess" for them costs nothing;
* **guess-free commits** — a guess trimmed to nothing still forks (pure
  parallelism) and verifies trivially;
* **commutative repair** — a wrong guess on a bump-certified export is
  folded in as a delta at commit instead of aborting the subtree.

Every scenario also runs sequentially; final states must match exactly.
"""

from __future__ import annotations

from repro.core import OptimisticSystem
from repro.core.config import OptimisticConfig
from repro.csp.effects import Call
from repro.csp.plan import ForkSpec, ParallelizationPlan
from repro.csp.process import Program, Segment, server_program
from repro.csp.sequential import SequentialSystem
from repro.sim.network import FixedLatency

REPLIES = {"base": 7, "op": 3, "op2": 4}


def _server():
    def handler(state, req):
        return REPLIES[req.op]

    return server_program("S", handler)


def _run(program, plan, *, static):
    config = OptimisticConfig(static_effects=static)
    system = OptimisticSystem(FixedLatency(2.0), config=config)
    system.add_program(program, plan)
    system.add_program(_server())
    return system.run()


def _run_sequential(program):
    system = SequentialSystem(FixedLatency(2.0))
    system.add_program(program)
    system.add_program(_server())
    return system.run()


# ------------------------------------------------------------ bump repair

def _bump_program():
    def s0(state):
        state["count"] = yield Call("S", "base", ())

    def s1(state):
        state["count"] += 2
        state["r1"] = yield Call("S", "op", ())

    def s2(state):
        state["count"] += 3
        state["r2"] = yield Call("S", "op2", ())

    program = Program("client", [
        Segment("s0", s0, exports=("count",)),
        Segment("s1", s1, exports=("r1",)),
        Segment("s2", s2, exports=("r2",)),
    ])
    # Guess 5; the server returns 7 — wrong by a delta of 2.
    plan = ParallelizationPlan().add("s0", ForkSpec(predictor={"count": 5}))
    return program, plan


def test_wrong_bump_guess_aborts_without_static_effects():
    program, plan = _bump_program()
    result = _run(program, plan, static=False)
    assert result.stats.get("opt.aborts") >= 1
    assert result.final_states["client"]["count"] == 7 + 2 + 3


def test_wrong_bump_guess_repairs_with_static_effects():
    program, plan = _bump_program()
    result = _run(program, plan, static=True)
    assert result.stats.get("opt.aborts") == 0
    assert result.stats.get("opt.commutative_repairs") == 1
    assert result.final_states["client"]["count"] == 7 + 2 + 3
    seq = _run_sequential(program)
    assert dict(result.final_states["client"]) == \
        dict(seq.final_states["client"])


# -------------------------------------------------------- deferred guesses

def _deferral_program():
    def s0(state):
        state["r0"] = yield Call("S", "op", ())
        state["aux"] = state["r0"] * 10

    def s1(state):
        state["r1"] = (yield Call("S", "op2", ())) + state["r0"]

    program = Program("client", [
        Segment("s0", s0, exports=("r0", "aux")),
        Segment("s1", s1, exports=("r1",)),
    ])
    # r0 is guessed right; aux is guessed absurdly wrong — but nothing
    # downstream touches aux, so the wrong value is deferrable.
    plan = ParallelizationPlan().add(
        "s0", ForkSpec(predictor={"r0": REPLIES["op"], "aux": 999}))
    return program, plan


def test_wrong_deferrable_guess_aborts_without_static_effects():
    program, plan = _deferral_program()
    result = _run(program, plan, static=False)
    assert result.stats.get("opt.aborts") >= 1
    assert result.final_states["client"]["aux"] == REPLIES["op"] * 10


def test_wrong_deferrable_guess_is_skipped_with_static_effects():
    program, plan = _deferral_program()
    result = _run(program, plan, static=True)
    assert result.stats.get("opt.aborts") == 0
    assert result.stats.get("opt.guesses_deferred") == 1
    # The deferred export carries the committed actual, not the guess.
    assert result.final_states["client"]["aux"] == REPLIES["op"] * 10
    seq = _run_sequential(program)
    assert dict(result.final_states["client"]) == \
        dict(seq.final_states["client"])


# ------------------------------------------------------- guess-free forks

def _guess_free_program():
    def s0(state):
        state["aux"] = yield Call("S", "op", ())

    def s1(state):
        state["r1"] = yield Call("S", "op2", ())

    program = Program("client", [
        Segment("s0", s0, exports=("aux",)),
        Segment("s1", s1, exports=("r1",)),
    ])
    # The whole guess is deferrable (and wrong, which must not matter).
    plan = ParallelizationPlan().add(
        "s0", ForkSpec(predictor={"aux": 999}))
    return program, plan


def test_fully_deferred_guess_commits_guess_free():
    program, plan = _guess_free_program()
    baseline = _run(program, plan, static=False)
    result = _run(program, plan, static=True)
    assert result.stats.get("opt.aborts") == 0
    assert result.stats.get("opt.guess_free_forks") == 1
    assert result.stats.get("opt.guesses_deferred") == 1
    # The fork survives deferral: overlap is preserved, so the makespan
    # must not regress to the unforked (or aborted) baseline.
    assert result.makespan <= baseline.makespan
    assert result.final_states["client"]["aux"] == REPLIES["op"]
    seq = _run_sequential(program)
    assert dict(result.final_states["client"]) == \
        dict(seq.final_states["client"])


def test_default_config_leaves_speculation_unchanged():
    program, plan = _deferral_program()
    result = _run(program, plan, static=False)
    assert result.stats.get("opt.guesses_deferred") == 0
    assert result.stats.get("opt.guess_free_forks") == 0
    assert result.stats.get("opt.commutative_repairs") == 0


def test_analyzer_failure_turns_the_feature_off_and_says_so(monkeypatch):
    def broken(program):
        raise RuntimeError("analyzer exploded")

    monkeypatch.setattr("repro.analyze.effects.infer_program_effects", broken)
    program, plan = _deferral_program()
    system = OptimisticSystem(FixedLatency(2.0),
                              config=OptimisticConfig(static_effects=True))
    runtime = system.add_program(program, plan)
    system.add_program(_server())
    result = system.run()
    assert runtime.certs.effects is None
    events = [e for e in result.protocol_log
              if e["kind"] == "static_effects_unavailable"]
    # one per runtime that asked for the analysis: the client and the server
    assert [e["process"] for e in events] == ["client", "S"]
    assert all(e["error"] == "RuntimeError('analyzer exploded')"
               for e in events)
    # committed output is that of a run that never asked
    monkeypatch.undo()
    baseline = _run(program, plan, static=False)
    assert result.trace == baseline.trace
    assert result.final_states == baseline.final_states
    assert result.makespan == baseline.makespan
