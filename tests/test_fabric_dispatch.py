"""Dispatch order on the coordinator's one pending queue.

No processes and no sleeps: stub connections stand in for worker
pipes and record every message the coordinator sends, the clock is
set by hand, and the coordinator's loop steps (dispatch, retry
promotion, hedging, heartbeat expiry, death) are called one at a time
with the messages a worker would have sent.
"""

import pytest

from repro.fabric import FabricConfig, FabricCoordinator, FabricError
from repro.fabric.coordinator import _Worker
from repro.fabric.worker import MSG_ERROR, MSG_HELLO, MSG_LEASE, MSG_RESULT
from repro.obs import MetricsRegistry
from repro.sweep import SweepSpec

#: Eight cells; they are only ever turned into task dicts, never run.
SPEC = SweepSpec(flags=("poland",), scenarios=(1, 2, 3, 4),
                 team_sizes=(4, 5), n_trials=1, seed=3)


class StubConn:
    """A worker pipe end that records what the coordinator sends."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def recv(self):
        raise EOFError

    def poll(self):
        return False

    def close(self):
        pass


class StubThread:
    """A remote worker's relay thread whose death the test decides."""

    def __init__(self):
        self.alive = True

    def is_alive(self):
        return self.alive


class Fleet:
    """A coordinator over stub workers, with a hand-set clock."""

    def __init__(self, names, ready=None, **config):
        self.registry = MetricsRegistry()
        self.coordinator = FabricCoordinator(
            SPEC, FabricConfig(workers=len(names), **config),
            registry=self.registry)
        self.clock = 0.0
        self.coordinator._now = lambda: self.clock
        ready = set(names if ready is None else ready)
        for name in names:
            self.coordinator._workers[name] = _Worker(
                name=name, conn=StubConn(), ready=name in ready)
        cells = range(len(SPEC.cells()))
        self.coordinator._remaining = set(cells)
        self.coordinator._pending.extend(cells)

    def worker(self, name):
        return self.coordinator._workers[name]

    def leased(self, name):
        """Cell indices leased to ``name``, in the order sent."""
        return [m[2] for m in self.worker(name).conn.sent
                if m[0] == MSG_LEASE]

    def pending(self):
        return list(self.coordinator._pending)

    def reply(self, name, tag, *rest):
        """``name`` answers its current lease with ``tag``."""
        worker = self.worker(name)
        lease = self.coordinator._leases[worker.lease_id]
        self.coordinator._on_message(
            worker, (tag, name, lease.lease_id, lease.cell_index) + rest)

    def step(self, seconds=0.0):
        """Advance the clock, then run the loop's timer steps once."""
        self.clock += seconds
        self.coordinator._promote_due_retries()
        self.coordinator._dispatch_idle_workers()
        self.coordinator._hedge_stragglers()


class TestDispatchOrder:
    def test_idle_workers_take_the_head_in_grid_order(self):
        fleet = Fleet(["w0", "w1"], hedge_after_s=None)
        fleet.step()
        assert fleet.leased("w0") == [0]
        assert fleet.leased("w1") == [1]
        assert fleet.pending() == [2, 3, 4, 5, 6, 7]

    def test_due_retry_leased_before_never_leased_cells(self):
        fleet = Fleet(["w0"], hedge_after_s=None)
        fleet.step()
        fleet.reply("w0", MSG_ERROR, "boom")
        fleet.step()  # the backoff is not due yet: the next cell goes
        assert fleet.leased("w0") == [0, 1]
        assert fleet.pending() == [2, 3, 4, 5, 6, 7]
        fleet.reply("w0", MSG_RESULT, [])
        fleet.step(seconds=10.0)  # past retry_cap_s: the retry is due
        assert fleet.leased("w0") == [0, 1, 0]
        assert fleet.pending() == [2, 3, 4, 5, 6, 7]
        assert fleet.registry.counter("fabric_leases_total").value(
            kind="retry") == 1

    def test_healthy_idle_worker_gets_the_head_before_a_suspect(self):
        fleet = Fleet(["w0", "w1"], ready=["w0"], hedge_after_s=None,
                      heartbeat_timeout_s=1.0)
        fleet.step()
        assert fleet.leased("w0") == [0]
        # w0 goes silent: its lease expires and it turns suspect.
        fleet.clock += 5.0
        fleet.coordinator._expire_silent_leases()
        assert fleet.worker("w0").suspect
        # w1 says hello late; both are idle when the retry falls due.
        fleet.coordinator._on_message(fleet.worker("w1"),
                                      (MSG_HELLO, "w1"))
        fleet.step(seconds=10.0)
        assert fleet.leased("w1") == [0]  # healthy: the retry at the head
        assert fleet.leased("w0") == [0, 1]  # suspect: the next cell

    def test_no_hedge_while_a_cell_is_queued(self):
        fleet = Fleet(["w0", "w1"], hedge_after_s=0.5)
        fleet.step()
        fleet.clock += 10.0  # w0's lease on cell 0 is now a straggler
        for expected in (1, 2, 3, 4, 5, 6):
            assert fleet.leased("w1")[-1] == expected
            fleet.reply("w1", MSG_RESULT, [])
            # w1 is idle and cell 0 straggles, but cells are queued.
            fleet.coordinator._hedge_stragglers()
            assert fleet.coordinator.stats.hedges == 0
            fleet.step()
        # w1 took the last queued cell; once it is free again, the
        # straggler is hedged.
        assert fleet.leased("w1")[-1] == 7
        assert fleet.pending() == []
        fleet.reply("w1", MSG_RESULT, [])
        fleet.step()
        assert fleet.coordinator.stats.hedges == 1
        assert fleet.leased("w1") == [1, 2, 3, 4, 5, 6, 7, 0]

    def test_death_leaves_the_queue_order_unchanged(self):
        fleet = Fleet(["w0", "w1", "w2"], hedge_after_s=None)
        fleet.step()
        assert fleet.pending() == [3, 4, 5, 6, 7]
        fleet.coordinator._on_death(fleet.worker("w1"))
        assert fleet.pending() == [3, 4, 5, 6, 7]
        assert fleet.coordinator.stats.worker_deaths == 1
        # The dead worker's in-flight cell comes back exactly once,
        # through the backoff heap, at the head of the queue.
        fleet.step(seconds=10.0)
        assert fleet.pending() == [1, 3, 4, 5, 6, 7]
        fleet.reply("w0", MSG_RESULT, [])
        fleet.step()
        assert fleet.leased("w0") == [0, 1]
        assert fleet.pending() == [3, 4, 5, 6, 7]
        assert fleet.coordinator.stats.retries == 1
        assert fleet.coordinator.stats.attempts[SPEC.cells()[1].key()] == 2


class TestDeadRemoteThreads:
    """A remote worker whose relay thread died is a dead worker."""

    def test_lease_of_a_dead_thread_is_re_leased_once(self):
        fleet = Fleet(["w0", "r0"], hedge_after_s=None)
        thread = fleet.worker("r0").thread = StubThread()
        fleet.step()
        assert fleet.leased("r0") == [0]
        thread.alive = False
        fleet.coordinator._reap_silent_processes()
        fleet.coordinator._reap_silent_processes()
        assert not fleet.worker("r0").alive
        assert fleet.coordinator.stats.worker_deaths == 1
        assert fleet.pending() == [2, 3, 4, 5, 6, 7]
        # Back through the backoff heap, at the head of the queue.
        fleet.step(seconds=10.0)
        assert fleet.pending() == [0, 2, 3, 4, 5, 6, 7]
        fleet.reply("w0", MSG_RESULT, [])
        fleet.step()
        assert fleet.leased("w0") == [1, 0]
        assert fleet.leased("r0") == [0]
        assert fleet.coordinator.stats.retries == 1

    def test_remote_only_fleet_dead_before_hello_raises(self):
        fleet = Fleet(["r0"], ready=[], hedge_after_s=None)
        fleet.worker("r0").thread = StubThread()
        fleet.worker("r0").thread.alive = False
        fleet.coordinator._reap_silent_processes()
        assert not fleet.worker("r0").alive
        with pytest.raises(FabricError, match="all workers died"):
            fleet.coordinator._loop()
