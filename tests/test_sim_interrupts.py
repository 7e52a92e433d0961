"""Tests for engine-level interrupts, resource failure, watchdogs, and
the deadlock diagnostics."""

import pytest

from repro.sim.engine import (
    Acquire,
    DeadlockError,
    Interrupt,
    KillInterrupt,
    Release,
    ResourceFailure,
    SimulationError,
    Simulator,
    StallInterrupt,
    Timeout,
    WaitAll,
    WatchdogExceeded,
)
from repro.sim.events import EventKind


def sleeper(sim, name, delay):
    yield Timeout(delay)
    sim.log(EventKind.NOTE, agent=name, msg="woke")


def holder(sim, res, work):
    yield Acquire(res)
    yield Timeout(work)
    yield Release(res)


class TestInterrupts:
    def test_interrupt_during_timeout(self):
        sim = Simulator()
        seen = []

        def proc():
            try:
                yield Timeout(100.0)
            except StallInterrupt as s:
                seen.append((sim.now, s.duration))
                yield Timeout(s.duration)

        sim.add_process("p", proc())
        sim.schedule_interrupt(10.0, "p", StallInterrupt(5.0))
        assert sim.run() == 15.0
        assert seen == [(10.0, 5.0)]

    def test_interrupt_while_parked_in_resource_queue(self):
        sim = Simulator()
        res = sim.resource("marker")
        seen = []

        def waiter():
            try:
                yield Acquire(res)
            except Interrupt as exc:
                seen.append(exc.reason)

        sim.add_process("hog", holder(sim, res, 50.0))
        sim.add_process("w", waiter())
        sim.schedule_interrupt(10.0, "w", Interrupt("poke"))
        sim.run()
        assert seen == ["poke"]
        # The interrupted waiter left the queue: no grant happened for it.
        assert not res.held_by("w")

    def test_interrupt_while_blocked_on_waitall(self):
        sim = Simulator()
        seen = []

        def joiner():
            try:
                yield WaitAll(("slow",))
            except Interrupt:
                seen.append(sim.now)

        sim.add_process("slow", sleeper(sim, "slow", 100.0))
        sim.add_process("j", joiner())
        sim.schedule_interrupt(3.0, "j", Interrupt("go"))
        sim.run()
        assert seen == [3.0]

    def test_kill_releases_held_resources(self):
        sim = Simulator()
        res = sim.resource("marker")
        sim.add_process("hog", holder(sim, res, 100.0))
        sim.add_process("next", holder(sim, res, 1.0))
        sim.schedule_interrupt(5.0, "hog", KillInterrupt("dropout"))
        makespan = sim.run()
        assert sim.killed == {"hog": 5.0}
        # The kill released the marker; the queued process got it at t=5.
        assert makespan == 6.0
        kinds = [e.kind for e in sim.events]
        assert EventKind.PROCESS_KILLED in kinds

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()
        sim.add_process("a", sleeper(sim, "a", 1.0))
        sim.run()
        assert sim.interrupt("a", KillInterrupt("late")) is False

    def test_interrupt_unknown_process_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="unknown process"):
            sim.interrupt("ghost")

    def test_uncaught_interrupt_kills_the_process(self):
        sim = Simulator()
        sim.add_process("a", sleeper(sim, "a", 100.0))
        sim.schedule_interrupt(2.0, "a", KillInterrupt("gone"))
        sim.run()
        assert sim.is_finished("a")
        assert "a" in sim.killed

    def test_stale_wakeup_after_interrupt_is_ignored(self):
        sim = Simulator()
        log = []

        def proc():
            try:
                yield Timeout(10.0)
                log.append("original wake")
            except StallInterrupt:
                yield Timeout(1.0)
                log.append("resumed")

        sim.add_process("p", proc())
        sim.schedule_interrupt(5.0, "p", StallInterrupt(1.0))
        sim.run()
        # The pre-interrupt wakeup at t=10 must not re-enter the process.
        assert log == ["resumed"]


class TestResourceFailure:
    def test_permanent_failure_interrupts_queued_waiters(self):
        sim = Simulator()
        res = sim.resource("marker")
        outcomes = []

        def waiter(name):
            try:
                yield Acquire(res)
                outcomes.append((name, "got it"))
            except ResourceFailure as f:
                outcomes.append((name, f.resource))

        sim.add_process("hog", holder(sim, res, 50.0))
        sim.add_process("w1", waiter("w1"))
        sim.add_process("w2", waiter("w2"))
        sim.schedule_call(10.0, sim.fail_resource, res)
        sim.run()
        assert ("w1", "marker") in outcomes
        assert ("w2", "marker") in outcomes

    def test_acquire_after_permanent_failure_fails_immediately(self):
        sim = Simulator()
        res = sim.resource("marker")
        outcomes = []

        def late_waiter():
            yield Timeout(20.0)
            try:
                yield Acquire(res)
            except ResourceFailure:
                outcomes.append(sim.now)

        sim.add_process("late", late_waiter())
        sim.schedule_call(10.0, sim.fail_resource, res)
        sim.run()
        assert outcomes == [20.0]

    def test_holder_unaffected_until_release(self):
        sim = Simulator()
        res = sim.resource("marker")
        sim.add_process("hog", holder(sim, res, 50.0))
        sim.schedule_call(10.0, sim.fail_resource, res)
        assert sim.run() == 50.0

    def test_repairable_failure_keeps_waiters_queued(self):
        sim = Simulator()
        res = sim.resource("marker")
        got = []

        def waiter():
            yield Timeout(5.0)
            yield Acquire(res)
            got.append(sim.now)
            yield Release(res)

        sim.add_process("w", waiter())
        sim.schedule_call(1.0, sim.fail_resource, res, 30.0)
        sim.run()
        # The waiter queued at t=5 and was granted at repair time t=30.
        assert got == [30.0]
        kinds = [e.kind for e in sim.events]
        assert EventKind.RESOURCE_FAILED in kinds
        assert EventKind.RESOURCE_REPAIRED in kinds

    def test_double_failure_rejected(self):
        sim = Simulator()
        res = sim.resource("marker")
        res.fail()
        with pytest.raises(SimulationError):
            res.fail()


class TestWatchdog:
    def test_max_time_budget(self):
        sim = Simulator()
        sim.add_process("a", sleeper(sim, "a", 100.0))
        with pytest.raises(WatchdogExceeded) as ei:
            sim.run(max_time=10.0)
        assert ei.value.budget == "time"
        assert ei.value.limit == 10.0

    def test_max_events_budget(self):
        sim = Simulator()

        def chatty():
            for _ in range(1000):
                yield Timeout(1.0)

        sim.add_process("a", chatty())
        with pytest.raises(WatchdogExceeded) as ei:
            sim.run(max_events=50)
        assert ei.value.budget == "events"

    def test_budgets_not_hit_run_normally(self):
        sim = Simulator()
        sim.add_process("a", sleeper(sim, "a", 5.0))
        assert sim.run(max_events=1000, max_time=1000.0) == 5.0


class TestUntilHorizon:
    def test_event_past_horizon_not_dropped(self):
        sim = Simulator()
        sim.add_process("a", sleeper(sim, "a", 10.0))
        assert sim.run(until=5.0) == 5.0
        # The satellite fix: the popped-but-future wakeup is pushed back,
        # so resuming the run still delivers it.
        assert sim.run(until=None) == 10.0
        assert sim.is_finished("a")


class TestDeadlockDiagnostics:
    def test_cycle_is_named_in_the_error(self):
        sim = Simulator()
        blue = sim.resource("blue_marker")
        red = sim.resource("red_marker")

        def crossed(mine, theirs):
            yield Acquire(mine)
            yield Timeout(1.0)
            yield Acquire(theirs)

        sim.add_process("P1", crossed(blue, red))
        sim.add_process("P2", crossed(red, blue))
        with pytest.raises(DeadlockError) as ei:
            sim.run()
        msg = str(ei.value)
        assert "deadlock" in msg
        assert "wait-for cycle" in msg
        assert "P1" in msg and "P2" in msg
        assert "blue_marker" in msg or "red_marker" in msg
        # The structured cycle alternates process, resource, process, ...
        assert ei.value.cycle[0] == ei.value.cycle[-1]
        assert set(ei.value.blocked) == {"P1", "P2"}

    def test_waitall_cycle_detected(self):
        sim = Simulator()

        def wait_on(other):
            yield WaitAll((other,))

        sim.add_process("a", wait_on("b"))
        sim.add_process("b", wait_on("a"))
        with pytest.raises(DeadlockError) as ei:
            sim.run()
        assert "wait-for cycle" in str(ei.value)


class TestWaitAllValidation:
    def test_self_wait_rejected(self):
        sim = Simulator()

        def selfish():
            yield WaitAll(("me",))

        sim.add_process("me", selfish())
        with pytest.raises(SimulationError, match="cannot wait on itself"):
            sim.run()

    def test_duplicate_names_rejected(self):
        sim = Simulator()

        def doubled():
            yield WaitAll(("a", "a"))

        sim.add_process("a", sleeper(sim, "a", 1.0))
        sim.add_process("j", doubled())
        with pytest.raises(SimulationError, match="duplicate names"):
            sim.run()


class TestScheduledCalls:
    def test_call_runs_at_its_time(self):
        sim = Simulator()
        fired = []
        sim.add_process("a", sleeper(sim, "a", 10.0))
        sim.schedule_call(4.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]

    @pytest.mark.parametrize("call_first", [True, False])
    def test_call_and_wakeup_at_one_time_run_in_scheduled_order(
            self, call_first):
        """A call and a process wakeup due at the same simulated time run
        in the order they were scheduled."""
        sim = Simulator()
        order = []

        def napper():
            yield Timeout(2.0)  # schedules its wakeup when it starts
            order.append("wake")

        def caller():
            sim.schedule_call(2.0, order.append, "call")
            yield from ()

        procs = [("caller", caller()), ("napper", napper())]
        if not call_first:
            procs.reverse()
        for name, gen in procs:
            sim.add_process(name, gen)
        sim.run()
        assert order == (["call", "wake"] if call_first
                         else ["wake", "call"])

    def test_past_call_rejected(self):
        sim = Simulator()
        sim.add_process("a", sleeper(sim, "a", 10.0))
        sim.schedule_interrupt(5.0, "a", StallInterrupt(1.0))

        def too_late():
            sim.schedule_call(1.0, lambda: None)

        sim.schedule_call(3.0, too_late)
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.run()
