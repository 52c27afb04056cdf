"""The shipped fault plane against its per-draw reference, and buffered draws.

``FaultyNetwork`` resolves its plan once per plane and draws through
:meth:`RngRegistry.uniform`; ``tests/reference_faults.py`` keeps the
per-call form it replaced.  Over random plans (drop, duplicate, reorder,
spike, a window, a protected sink, an endpoint that goes down and up) and
random message sequences on both planes, every message must meet the same
fate at the same times and every ``faults.*`` counter must agree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.faults import FaultPlan, FaultyNetwork, LinkFaults
from repro.sim.network import PerLinkLatency
from repro.sim.rng import BLOCK, RngRegistry
from repro.sim.scheduler import Scheduler

from .reference_faults import ReferenceFaultyNetwork

NAMES = ("a", "b", "c", "sink")

probabilities = st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9, 1.0])
delays = st.sampled_from([0.0, 0.5, 3, 10.0, 37.25])

link_faults = st.builds(
    LinkFaults,
    drop_p=probabilities,
    dup_p=probabilities,
    reorder_p=probabilities,
    reorder_spread=delays,
    spike_p=probabilities,
    spike_delay=delays,
)

windows = st.one_of(
    st.none(),
    st.tuples(st.floats(0, 20), st.floats(0, 40)).map(
        lambda w: (min(w), max(w))),
)

messages = st.lists(
    st.tuples(
        st.floats(0, 50, allow_nan=False),      # send time
        st.sampled_from(NAMES),                 # src
        st.sampled_from(NAMES),                 # dst
        st.booleans(),                          # control plane
        st.integers(1, 4),                      # size
    ),
    max_size=60,
)


def _run(network_cls, plan, msgs, *, fifo, bandwidth, down):
    scheduler = Scheduler()
    latency = PerLinkLatency(
        default=2.0, links={("a", "b"): 7.0, ("b", "c"): 0.5})
    net = network_cls(scheduler, latency, plan, fifo_links=fifo,
                      bandwidth=bandwidth)
    deliveries = []
    for name in NAMES:
        net.register(name, lambda src, payload, n=name: deliveries.append(
            (scheduler.now, src, n, payload)))
    net.protect("sink")
    returned = []
    if down is not None:
        start, end = down
        scheduler.at(start, lambda: net.mark_down("c"))
        scheduler.at(end, lambda: net.mark_up("c"))
    for i, (t, src, dst, control, size) in enumerate(msgs):
        scheduler.at(t, lambda i=i, src=src, dst=dst, control=control,
                     size=size: returned.append(
                         (i, net.send(src, dst, i, control=control,
                                      size=size))))
    scheduler.run()
    return returned, deliveries, dict(net.stats.counters)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    data=link_faults,
    control=link_faults,
    window=windows,
    msgs=messages,
    fifo=st.booleans(),
    bandwidth=st.sampled_from([None, 2.0]),
    down=st.one_of(st.none(), st.tuples(st.floats(0, 25), st.floats(25, 50))),
)
def test_fault_schedule_equals_reference(seed, data, control, window, msgs,
                                         fifo, bandwidth, down):
    plan = FaultPlan(seed=seed, data=data, control=control, window=window)
    runs = [
        _run(cls, plan, msgs, fifo=fifo, bandwidth=bandwidth, down=down)
        for cls in (FaultyNetwork, ReferenceFaultyNetwork)
    ]
    (got_at, got_deliveries, got_counters), (ref_at, ref_deliveries,
                                             ref_counters) = runs
    assert got_at == ref_at                  # each message's deliver_at
    assert got_deliveries == ref_deliveries  # fate, duplicate copies, times
    assert got_counters == ref_counters      # faults.* and net.* alike


def test_reference_sees_faults_at_all():
    # guard against a vacuous differential: the shared workload must
    # exercise every fault class on both planes
    link = LinkFaults(drop_p=0.2, dup_p=0.3, reorder_p=0.3, spike_p=0.2)
    plan = FaultPlan(seed=5, data=link, control=link)
    msgs = [(i * 0.5, "a", "b", i % 2 == 0, 1) for i in range(200)]
    _, _, counters = _run(ReferenceFaultyNetwork, plan, msgs, fifo=True,
                          bandwidth=None, down=(10.0, 20.0))
    for kind in ("data", "control"):
        for what in ("dropped", "duplicated", "reordered", "spiked"):
            assert counters[f"faults.{kind}.{what}"] > 0
    _, _, counters = _run(ReferenceFaultyNetwork, plan,
                          [(15.0, "a", "c", False, 1)], fifo=True,
                          bandwidth=None, down=(10.0, 20.0))
    assert counters["faults.data.down_dropped"] == 1


# ------------------------------------------------------- buffered draws


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
    low=st.sampled_from([0.0, 0, -2.5, 1.25]),
    width=st.sampled_from([1.0, 6, 0.3, 10.0]),
    order=st.lists(st.booleans(), min_size=1, max_size=50),
)
def test_uniform_equals_generator_uniform(seed, n, low, width, order):
    high = low + width
    buffered = RngRegistry(seed)
    raw = RngRegistry(seed)
    for i in range(n):
        # two interleaved streams, in a random but repeating pattern
        name = "x" if order[i % len(order)] else "y"
        got = buffered.uniform(name, low, high)
        want = float(raw.stream(name).uniform(low, high))
        assert got == want, (i, name)
    assert isinstance(got, float)


def test_default_bounds_are_the_unit_interval():
    reg = RngRegistry(3)
    gen = RngRegistry(3).stream("u")
    draws = [reg.uniform("u") for _ in range(BLOCK + 1)]
    assert draws == [float(gen.uniform(0.0, 1.0)) for _ in draws]


def test_stream_is_buffered_or_raw_for_life():
    reg = RngRegistry(0)
    reg.uniform("faults.data")
    with pytest.raises(SimulationError):
        reg.stream("faults.data")
    reg.stream("other")
    with pytest.raises(SimulationError):
        reg.uniform("other")
    reg.reset()
    with pytest.raises(SimulationError):
        reg.stream("faults.data")


def test_reset_drops_buffers():
    reg = RngRegistry(9)
    first = [reg.uniform("s") for _ in range(5)]
    reg.reset()
    assert [reg.uniform("s") for _ in range(5)] == first
