"""Tests for ``repro.races.sanitizer`` — happens-before detection.

The invariant under test is *determinism*: a finding means no recorded
edge orders the conflicting accesses, which is a property of the
program's synchronization structure, so the same racy program yields a
byte-identical report on every run while a properly locked twin stays
clean.  The tail of the file exercises the ``REPRO_SAN=1`` gate the CI
``race-and-bench`` job flips, including the fabric-coordinator parity run.
"""

import threading

import pytest

from repro.fabric import FabricConfig, run_fabric_sweep
from repro.races import RaceSanitizer, enabled, maybe_sanitized
from repro.races.sanitizer import SanEvent, SanLock, SanThread
from repro.sweep import SweepSpec, run_sweep

SPEC = SweepSpec(flags=("poland",), scenarios=(3, 4), n_trials=2, seed=5)


def racy_report_json():
    """One run of the canonical racy program; returns report bytes.

    Two threads bump a registered cell while the lock guards only an
    unrelated attribute — the planted bug shape from the regression
    suite, reduced to its synchronization skeleton.
    """
    san = RaceSanitizer()
    with san.patched():
        counter = san.state("counter")
        other = san.state("other")
        lock = threading.Lock()

        def worker():
            with lock:
                other.write(1)
            counter.write((counter.read() or 0) + 1)  # outside the lock

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return san.report().to_json()


class TestDetection:
    def test_unordered_writes_are_flagged(self):
        san = RaceSanitizer()
        with san.patched():
            cell = san.state("n")

            def worker():
                cell.write(1)

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        report = san.report()
        assert not report.ok
        (issue,) = report.findings
        assert issue.code == "data_race"
        assert "write/write on n between T1 and T2" in issue.message

    def test_lock_ordered_writes_are_clean(self):
        san = RaceSanitizer()
        with san.patched():
            cell = san.state("n")
            lock = threading.Lock()

            def worker():
                with lock:
                    cell.write((cell.read() or 0) + 1)

            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert san.report().ok
        assert san.state("n").value == 2

    def test_fork_and_join_edges_order_accesses(self):
        san = RaceSanitizer()
        with san.patched():
            cell = san.state("handoff")
            cell.write("before-fork")  # main

            def child():
                assert cell.read() == "before-fork"  # fork edge
                cell.write("from-child")

            t = threading.Thread(target=child)
            t.start()
            t.join()
            assert cell.read() == "from-child"  # join edge
        assert san.report().ok

    def test_deque_handoff_carries_the_edge(self):
        # No lock and no join before the read: only the deque's
        # publish/join pair orders producer writes before consumer
        # reads, so a clean report proves the hand-off edge works.
        san = RaceSanitizer()
        with san.patched():
            cell = san.state("payload")
            q = san.deque()

            def producer():
                cell.write("ready")
                q.append("token")

            t = threading.Thread(target=producer)
            t.start()
            while not q:
                pass
            assert q.popleft() == "token"
            assert cell.read() == "ready"
            t.join()
        assert san.report().ok

    def test_racy_report_is_byte_identical_across_runs(self):
        # The acceptance property: scheduling noise never changes the
        # report, because findings depend on edges, not interleavings.
        reports = {racy_report_json() for _ in range(5)}
        assert len(reports) == 1
        body = reports.pop().decode("utf-8")
        assert "write/write on counter between T1 and T2" in body


class TestAuditedClass:
    class Counter:
        def __init__(self):
            self.lock = threading.Lock()
            self.n = 0

    def hammer(self, audited, locked):
        inst = audited()
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            for _ in range(3):
                if locked:
                    with inst.lock:
                        inst.n += 1
                else:
                    inst.n += 1

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return inst

    def test_unlocked_attribute_races(self):
        san = RaceSanitizer()
        with san.patched():
            audited = san.audited_class(self.Counter, "n")
            self.hammer(audited, locked=False)
        report = san.report()
        assert not report.ok
        assert any("Counter#0.n" in i.message for i in report.findings)

    def test_locked_attribute_is_clean(self):
        san = RaceSanitizer()
        with san.patched():
            audited = san.audited_class(self.Counter, "n")
            inst = self.hammer(audited, locked=True)
            assert inst.n == 6
        assert san.report().ok


class TestPatching:
    def test_primitives_are_restored(self):
        saved = (threading.Lock, threading.RLock, threading.Condition,
                 threading.Thread, threading.Event)
        san = RaceSanitizer()
        with san.patched():
            assert isinstance(threading.Lock(), SanLock)
            assert threading.Thread is SanThread
            assert threading.Event is SanEvent
        assert (threading.Lock, threading.RLock, threading.Condition,
                threading.Thread, threading.Event) == saved

    def test_nested_sanitizers_are_rejected(self):
        san = RaceSanitizer()
        with san.patched():
            with pytest.raises(RuntimeError, match="already active"):
                with RaceSanitizer().patched():
                    pass  # pragma: no cover
        # and the failed nest did not clobber the outer restore
        assert threading.Thread is not SanThread

    def test_condition_wait_edges(self):
        san = RaceSanitizer()
        with san.patched():
            cell = san.state("cond-payload")
            cond = threading.Condition()
            done = []

            def waiter():
                with cond:
                    while not done:
                        cond.wait(timeout=5.0)
                assert cell.read() == "set"  # ordered via the cond lock

            t = threading.Thread(target=waiter)
            t.start()
            with cond:
                cell.write("set")
                done.append(True)
                cond.notify()
            t.join()
        assert san.report().ok


class TestGate:
    def test_off_by_default_yields_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAN", raising=False)
        assert not enabled()
        with maybe_sanitized() as san:
            assert san is None

    def test_on_yields_active_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAN", "1")
        assert enabled()
        with maybe_sanitized() as san:
            assert isinstance(san, RaceSanitizer)
            assert isinstance(threading.Lock(), SanLock)
        assert threading.Lock is not SanLock

    def test_require_clean_raises_on_race(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAN", "1")
        with pytest.raises(AssertionError, match="data_race"):
            with maybe_sanitized() as san:
                cell = san.state("n")

                def worker():
                    cell.write(1)

                threads = [threading.Thread(target=worker)
                           for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()


class TestSanitizedFabric:
    def test_coordinator_heartbeats_race_free(self):
        # The CI race-and-bench job runs this with REPRO_SAN=1: the coordinator
        # loop, its worker heartbeats, and the process-pool plumbing
        # all execute on sanitizer shims, and the sweep must still be
        # byte-identical to serial.  Unsanitized (tier-1 default) it is
        # a plain parity check.
        serial = run_sweep(SPEC)
        with maybe_sanitized():
            fabric = run_fabric_sweep(SPEC, FabricConfig(workers=2))
        assert len(fabric.cells) == len(serial.cells)
        for ca, cb in zip(fabric.cells, serial.cells):
            assert ca.cell == cb.cell
            assert ca.trials == cb.trials
