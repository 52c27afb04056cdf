"""Error branches of the optimistic runtime and supporting machinery."""

import pytest

from repro.errors import EffectError, ProgramError, ProtocolError
from repro.core import OptimisticSystem
from repro.csp.effects import Call, Emit, Receive, Reply, Send
from repro.csp.plan import ForkSpec, ParallelizationPlan
from repro.csp.process import Program, Segment, server_program
from repro.sim.network import FixedLatency


def single(name, fn, **kw):
    return Program(name, [Segment("main", fn, **kw)])


class TestEffectErrors:
    def test_unknown_effect_in_optimistic_runtime(self):
        def bad(state):
            yield 42

        system = OptimisticSystem()
        system.add_program(single("X", bad))
        with pytest.raises(EffectError):
            system.run()

    def test_reply_to_oneway_rejected(self):
        def client(state):
            yield Send("srv", "m", ())

        def srv(state):
            req = yield Receive()
            yield Reply(req, 1)

        system = OptimisticSystem()
        system.add_program(single("c", client))
        system.add_program(single("srv", srv))
        with pytest.raises(EffectError):
            system.run()

    def test_emit_to_unknown_sink_rejected(self):
        def client(state):
            yield Emit("nowhere", "x")

        system = OptimisticSystem()
        system.add_program(single("X", client))
        with pytest.raises(ProgramError):
            system.run()


class TestAssemblyErrors:
    def test_duplicate_program_name(self):
        system = OptimisticSystem()
        system.add_program(server_program("a", lambda s, r: None))
        with pytest.raises(ProgramError):
            system.add_program(server_program("a", lambda s, r: None))

    def test_duplicate_sink_name(self):
        system = OptimisticSystem()
        system.add_sink("display")
        with pytest.raises(ProgramError):
            system.add_program(server_program("display", lambda s, r: None))

    def test_plan_for_unknown_segment_rejected_at_add(self):
        def fn(state):
            yield Call("srv", "op", ())

        prog = Program("X", [Segment("a", fn, exports=("r",)),
                             Segment("b", fn)])
        plan = ParallelizationPlan().add("zzz", ForkSpec(predictor={}))
        system = OptimisticSystem()
        with pytest.raises(ProgramError):
            system.add_program(prog, plan)


class TestDoubleForkGuard:
    def test_thread_cannot_guard_two_guesses(self):
        # a left thread whose range somehow re-enters a plan-marked
        # segment would be a protocol bug; the runtime asserts against it.
        # (Constructed directly since normal flows cannot produce it.)
        from repro.core.runtime import ProcessRuntime

        def s1(state):
            state["a"] = yield Call("srv", "op", ())

        def s2(state):
            state["b"] = yield Call("srv", "op", ())

        def s3(state):
            yield Call("srv", "op", ())

        prog = Program("X", [Segment("s1", s1, exports=("a",)),
                             Segment("s2", s2, exports=("b",)),
                             Segment("s3", s3)])
        plan = (ParallelizationPlan()
                .add("s1", ForkSpec(predictor={"a": 1}))
                .add("s2", ForkSpec(predictor={"b": 1})))
        system = OptimisticSystem(FixedLatency(1.0))
        rt = system.add_program(prog, plan)
        system.add_program(server_program("srv", lambda s, r: 1))
        rt.start()
        system.scheduler.run(until=0.5)
        main = rt.threads[0]
        assert main.own_guess is not None
        with pytest.raises(ProtocolError):
            rt.maybe_fork(main, 1)


class TestReleasedEmissionRollbackGuard:
    def test_dropping_released_emission_is_protocol_error(self):
        from repro.core.output import Emission

        system = OptimisticSystem()
        system.add_sink("display")
        rt = system.add_program(server_program("X", lambda s, r: None))
        em = Emission(emission_id=1, tid=0, sink="display", payload="x",
                      size=1, porder=(0, 0), pending=set(), released=True)
        rt.output.emissions.append(em)
        with pytest.raises(ProtocolError):
            rt.output.drop(1)


class TestOrphanConsumeGuard:
    def test_acquiring_aborted_guard_is_protocol_error(self):
        from repro.core.guess import GuessId
        from repro.core.messages import DataEnvelope

        system = OptimisticSystem()
        rt = system.add_program(server_program("X", lambda s, r: None))
        rt.start()
        system.scheduler.run(until=0.1)
        dead = GuessId("other", 0, 0)
        rt.view.note_abort(dead)
        envelope = DataEnvelope(src="other", dst="X", payload=None,
                                guard=frozenset({dead}))
        thread = rt.threads[0]
        with pytest.raises(ProtocolError):
            rt.inbox.acquire_guards(thread, envelope, before_position=0)
