"""The copy-on-write snapshot layer (repro.core.snapshot).

Three obligations: (1) freeze/thaw is an observational round-trip for the
value shapes thread state actually holds; (2) a whole optimistic run on
COW snapshots is indistinguishable — traces, final states, virtual
makespan, rollback counts — from one on the ``copy.deepcopy`` reference
below; (3) the layer actually earns its keep: no full copy per fork on
fork-heavy workloads, and the ``strict_exports`` check still catches
mutated-after-send payloads on both implementations.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CheckpointPolicy, OptimisticConfig
from repro.core.snapshot import (
    _FALLBACK_TAG,
    CowState,
    Snapshotter,
    StateSnapshot,
    freeze,
    live_state,
    thaw,
)
from repro.errors import ProgramError
from repro.sim.stats import Stats
from repro.trace import assert_equivalent
from repro.workloads.generators import ChainSpec, run_chain_optimistic
from repro.workloads.random_duplex import DuplexSpec, build_duplex_system
from repro.workloads.random_programs import (
    RandomProgramSpec,
    build_random_system,
)


class DeepcopySnapshotter(Snapshotter):
    """Reference implementation: one full ``copy.deepcopy`` per capture,
    per derive and per restore — what the runtime did before COW."""

    def _deep(self, state):
        self._count("snap.full_copies")
        self._count("snap.nodes_copied", len(state))
        return {k: copy.deepcopy(v) for k, v in state.items()}

    def capture(self, state):
        self._count("snap.captures")
        return StateSnapshot(
            {k: (_FALLBACK_TAG, v) for k, v in self._deep(state).items()},
            all_scalar=False)

    def derive(self, base, overlay):
        merged = {k: v[1] for k, v in base.frozen.items()}
        merged.update(overlay)
        return StateSnapshot(
            {k: (_FALLBACK_TAG, v) for k, v in self._deep(merged).items()},
            all_scalar=False)

    def restore(self, snap, into=None):
        self._count("snap.restores")
        items = self._deep({k: v[1] for k, v in snap.frozen.items()})
        if into is None:
            return items
        into.update(items)
        return into


def run_cow(build):
    return build().run()


def run_deepcopy(build):
    """Build and run a system whose runtimes snapshot by deepcopy."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.core.runtime.Snapshotter", DeepcopySnapshotter)
        system = build()
        assert all(type(rt.snap) is DeepcopySnapshotter
                   for rt in system.runtimes.values())
        return system.run()


# --------------------------------------------------------------- freeze/thaw

state_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.binary(max_size=8),
    lambda leaf: st.lists(leaf, max_size=4)
    | st.dictionaries(st.text(max_size=4), leaf, max_size=4)
    | st.tuples(leaf, leaf)
    | st.sets(st.integers(), max_size=4)
    | st.frozensets(st.integers(), max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(value=state_values)
def test_freeze_thaw_roundtrip(value):
    thawed = thaw(freeze(value))
    assert thawed == value
    assert type(thawed) is type(value)


@settings(max_examples=100, deadline=None)
@given(value=state_values)
def test_cow_copy_value_is_independent(value):
    out = thaw(freeze(value))
    assert out == copy.deepcopy(value)  # same observable result
    if isinstance(value, (list, dict, set)):
        assert out is not value


def test_frozen_forms_distinguish_container_types():
    # strict_exports depends on [1,2] != (1,2) surviving freezing
    assert freeze([1, 2]) != freeze((1, 2))
    assert freeze({1, 2}) != freeze(frozenset({1, 2}))
    assert freeze({"a": 1}) != freeze([("a", 1)])


def test_freeze_falls_back_to_deepcopy_for_unknown_types():
    class Box:
        def __init__(self, v):
            self.v = v

        def __eq__(self, other):
            return isinstance(other, Box) and other.v == self.v

    stats = Stats()
    snap = Snapshotter(stats)
    box = Box([1, 2])
    out = thaw(freeze(box))
    assert out == box
    assert out is not box
    assert out.v is not box.v  # deep, not shallow
    # the same inside a state capture/restore, where it is counted
    restored = snap.restore(snap.capture({"box": box}))["box"]
    assert restored == box and restored.v is not box.v
    assert stats.get("snap.deepcopy_fallbacks") > 0


# ------------------------------------------------------- capture cache logic

def test_unchanged_all_scalar_state_capture_is_cached():
    stats = Stats()
    snap = Snapshotter(stats)
    state = live_state({"a": 1, "b": "x"})
    first = snap.capture(state)
    second = snap.capture(state)
    assert second is first
    assert stats.get("snap.capture_hits") == 1
    assert stats.full_copies() == 1


def test_scalar_write_triggers_incremental_not_full_capture():
    stats = Stats()
    snap = Snapshotter(stats)
    state = live_state({"a": 1, "b": 2})
    first = snap.capture(state)
    state["a"] = 5
    second = snap.capture(state)
    assert second is not first
    assert snap.restore(second) == {"a": 5, "b": 2}
    assert snap.restore(first) == {"a": 1, "b": 2}  # old snapshot intact
    assert stats.get("snap.capture_incremental") == 1
    assert stats.full_copies() == 1  # only the first walk


def test_key_deletion_falls_back_to_full_walk():
    stats = Stats()
    snap = Snapshotter(stats)
    state = live_state({"a": 1, "b": 2})
    snap.capture(state)
    del state["a"]
    second = snap.capture(state)
    assert snap.restore(second) == {"b": 2}
    assert stats.full_copies() == 2


def test_mutable_value_defeats_the_cache_but_stays_correct():
    stats = Stats()
    snap = Snapshotter(stats)
    state = live_state({"log": [1], "n": 0})
    first = snap.capture(state)
    state["log"].append(2)  # in-place: invisible to version tracking...
    second = snap.capture(state)
    # ...but a non-scalar state never installs a cache, so the re-capture
    # walks the real current contents.
    assert snap.restore(second) == {"log": [1, 2], "n": 0}
    assert snap.restore(first) == {"log": [1], "n": 0}
    assert stats.get("snap.capture_hits") == 0


def test_restore_preinstalls_cache_on_fresh_state():
    stats = Stats()
    snap = Snapshotter(stats)
    born = snap.restore(snap.capture({"a": 1, "b": 2}))
    assert isinstance(born, CowState)
    recapture = snap.capture(born)  # unchanged since birth
    assert stats.get("snap.capture_hits") == 1
    born["a"] = 9
    inc = snap.capture(born)
    assert snap.restore(inc) == {"a": 9, "b": 2}
    assert snap.restore(recapture) == {"a": 1, "b": 2}
    assert stats.full_copies() == 1


def test_derive_shares_base_and_applies_overlay():
    stats = Stats()
    snap = Snapshotter(stats)
    base = snap.capture({"a": 1, "b": 2})
    derived = snap.derive(base, {"b": 7, "c": 8})
    assert snap.restore(derived) == {"a": 1, "b": 7, "c": 8}
    assert snap.restore(base) == {"a": 1, "b": 2}
    assert stats.full_copies() == 1  # the derive was not a full copy


def test_cowstate_survives_deepcopy_as_plain_contents():
    state = live_state({"a": [1, 2]})
    dup = copy.deepcopy(state)
    assert isinstance(dup, CowState)
    assert dup == state
    assert dup["a"] is not state["a"]


# ----------------------------------------------- policy equivalence (system)

specs = st.builds(
    RandomProgramSpec,
    n_segments=st.integers(1, 7),
    n_servers=st.integers(1, 3),
    latency=st.floats(0.5, 10.0),
    service_time=st.floats(0.0, 2.0),
    seed=st.integers(0, 100_000),
    branch_probability=st.sampled_from([0.0, 0.4, 0.8]),
    emit_probability=st.sampled_from([0.0, 0.5]),
    send_probability=st.sampled_from([0.0, 0.4]),
    guess_accuracy_bias=st.sampled_from([1, 2, 4]),
)


def assert_runs_identical(cow, dc):
    assert cow.makespan == dc.makespan
    assert cow.tentative_makespan == dc.tentative_makespan
    assert cow.completion_times == dc.completion_times
    assert cow.final_states == dc.final_states
    assert_equivalent(cow.trace, dc.trace)
    assert (cow.stats.get("opt.aborts"), cow.stats.get("opt.forks")) == \
        (dc.stats.get("opt.aborts"), dc.stats.get("opt.forks"))


@settings(max_examples=40, deadline=None)
@given(spec=specs)
def test_cow_equals_deepcopy_on_random_programs(spec):
    def build():
        return build_random_system(spec, optimistic=True)

    cow, dc = run_cow(build), run_deepcopy(build)
    assert_runs_identical(cow, dc)
    assert cow.sink_output("display") == dc.sink_output("display")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), bias=st.sampled_from([2, 3]),
       policy=st.sampled_from(list(CheckpointPolicy)),
       interval=st.sampled_from([None, 2]))
def test_cow_equals_deepcopy_on_abort_heavy_duplex(seed, bias, policy,
                                                   interval):
    spec = DuplexSpec(n_steps=5, n_signals=2, seed=seed,
                      wrong_guess_bias=bias)

    def build():
        return build_duplex_system(
            spec, optimistic=True,
            config=OptimisticConfig(checkpoint_policy=policy,
                                    checkpoint_interval=interval))

    assert_runs_identical(run_cow(build), run_deepcopy(build))


def test_cow_matches_sequential_reference():
    spec = RandomProgramSpec(n_segments=6, seed=42, branch_probability=0.4,
                             guess_accuracy_bias=2)
    seq = build_random_system(spec, optimistic=False).run()
    cow = build_random_system(spec, optimistic=True).run()
    assert cow.unresolved == []
    assert_equivalent(cow.trace, seq.trace)


# ------------------------------------------------------------ copy counting

def test_cow_at_least_3x_fewer_full_copies_on_fork_heavy_chain():
    # A deepcopy implementation pays three full copies a fork (capture,
    # derive, restore).  COW pays one walk per process for its initial
    # state and none per fork, however many forks there are.
    spec = ChainSpec(n_calls=30, n_servers=2, p_fail=0.0)
    cow = run_chain_optimistic(spec, OptimisticConfig())
    assert cow.stats.get("opt.forks") == 29
    assert cow.stats.full_copies() <= spec.n_servers + 1


def test_perf_counters_exposed_under_snap_namespace():
    res = run_chain_optimistic(ChainSpec(n_calls=6), OptimisticConfig())
    perf = res.stats.perf("snap.")
    assert "snap.captures" in perf
    assert "snap.full_copies" in perf
    assert all(k.startswith("snap.") for k in perf)
    assert res.stats.get("opt.guard_tag_units") > 0


# ------------------------------------------------------- strict_exports

def _leaky_system():
    """S1 mutates a state key it does not export (must be caught)."""
    from repro.csp.effects import Call
    from repro.csp.plan import ForkSpec, ParallelizationPlan
    from repro.csp.process import Program, Segment, server_program
    from repro.core import OptimisticSystem
    from repro.sim.network import FixedLatency

    def s1(state):
        state["ok"] = yield Call("srv", "op", ())
        state["hidden"].append(99)  # mutated after capture, not exported

    def s2(state):
        state["done"] = True
        yield Call("srv", "op2", ())

    prog = Program("X", [Segment("s1", s1, exports=("ok",)),
                         Segment("s2", s2)],
                   initial_state={"hidden": []})
    plan = ParallelizationPlan().add("s1", ForkSpec(predictor={"ok": True}))
    system = OptimisticSystem(FixedLatency(2.0))
    system.add_program(prog, plan)
    system.add_program(server_program("srv", lambda s, r: True))
    return system


@pytest.mark.parametrize("run", [run_cow, run_deepcopy],
                         ids=["cow", "deepcopy"])
def test_strict_exports_catches_inplace_mutation_under_both_policies(run):
    with pytest.raises(ProgramError, match="hidden"):
        run(_leaky_system)
