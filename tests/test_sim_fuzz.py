"""Fuzz tests for the DES kernel: random process soups.

Hypothesis generates random collections of processes doing random
sequences of sleeps, acquires and releases over a shared resource pool,
and the kernel must always either complete with consistent accounting or
deadlock *detectably* — never hang, never corrupt time, never lose a
process.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    Acquire,
    Release,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.events import EventKind


class UnloggedSimulator(Simulator):
    """A kernel whose ``log`` appends no event and draws no sequence
    number — the rule the vector backend's contention kernel relies on
    when it takes seqs only for heap pushes and queue appends."""

    def log(self, kind, agent=None, **data):
        return None


def make_worker(sim, name, script, resources):
    """A process following a (kind, arg) script.

    Scripts are sanitized: every acquire is matched with a release
    immediately after the following sleep, so well-formed scripts always
    terminate.
    """

    def gen():
        held = []
        for kind, arg in script:
            if kind == "sleep":
                yield Timeout(arg)
            elif kind == "use":
                res = resources[arg % len(resources)]
                yield Acquire(res)
                sim.log(EventKind.STROKE_START, agent=name)
                yield Timeout(0.5)
                sim.log(EventKind.STROKE_END, agent=name)
                yield Release(res)
        for res in held:  # pragma: no cover - defensive
            yield Release(res)

    return gen()


script_steps = st.lists(
    st.tuples(st.sampled_from(["sleep", "use"]),
              st.integers(min_value=0, max_value=5)),
    min_size=0, max_size=8,
).map(lambda steps: [
    ("sleep", float(arg) * 0.25) if kind == "sleep" else ("use", arg)
    for kind, arg in steps
])


class TestKernelFuzz:
    @given(
        scripts=st.lists(script_steps, min_size=1, max_size=6),
        n_resources=st.integers(min_value=1, max_value=3),
        capacity=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_terminates_consistently(self, scripts, n_resources,
                                            capacity):
        def soup(sim):
            resources = [sim.resource(f"r{i}", capacity=capacity)
                         for i in range(n_resources)]
            for i, script in enumerate(scripts):
                sim.add_process(f"w{i}", make_worker(sim, f"w{i}", script,
                                                     resources))
            return resources

        sim = Simulator()
        resources = soup(sim)
        makespan = sim.run()

        # Every process finished.
        assert len(sim.finish_times) == len(scripts)
        # Time is consistent: monotone event log, non-negative makespan.
        assert makespan >= 0
        times = [e.time for e in sim.events]
        assert times == sorted(times)
        # Every resource is free again.
        for res in resources:
            assert res.holders == []
            assert res.queue == []
        # Stroke events pair up.
        starts = sum(1 for e in sim.events
                     if e.kind == EventKind.STROKE_START)
        ends = sum(1 for e in sim.events if e.kind == EventKind.STROKE_END)
        assert starts == ends
        # The event log never steers scheduling: without it, every
        # process finishes at the same time.
        unlogged = UnloggedSimulator()
        soup(unlogged)
        assert unlogged.run() == makespan
        assert unlogged.finish_times == sim.finish_times
        assert unlogged.events == []

    @given(
        scripts=st.lists(script_steps, min_size=1, max_size=4),
        seed_tag=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_determinism_under_fuzz(self, scripts, seed_tag):
        def run():
            sim = Simulator()
            resources = [sim.resource("r0"), sim.resource("r1")]
            for i, script in enumerate(scripts):
                sim.add_process(f"w{i}", make_worker(sim, f"w{i}", script,
                                                     resources))
            sim.run()
            return [(e.time, e.seq, e.kind.value, e.agent)
                    for e in sim.events]

        assert run() == run()

    def test_double_acquire_same_resource_deadlocks_detectably(self):
        """A process acquiring a capacity-1 resource twice without release
        deadlocks on itself; the kernel reports it instead of hanging."""
        sim = Simulator()
        res = sim.resource("r")

        def greedy():
            yield Acquire(res)
            yield Acquire(res)

        sim.add_process("g", greedy())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()

    def test_circular_wait_deadlocks_detectably(self):
        sim = Simulator()
        a, b = sim.resource("a"), sim.resource("b")

        def w1():
            yield Acquire(a)
            yield Timeout(1.0)
            yield Acquire(b)

        def w2():
            yield Acquire(b)
            yield Timeout(1.0)
            yield Acquire(a)

        sim.add_process("w1", w1())
        sim.add_process("w2", w2())
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()
