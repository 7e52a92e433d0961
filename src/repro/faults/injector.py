"""Compile a fault plan into engine interrupts and recover as they fire.

:class:`FaultInjector` turns each :class:`~repro.faults.plan.FaultPlan`
entry into kernel-level scheduled calls — dropout kills, implement
failures (permanent or with a scheduled spare), stall interrupts — and
performs the recovery bookkeeping (redistribution, abandonment
accounting) the moment a fault fires.

The workers it interrupts are the ordinary
:func:`~repro.schedule.runner.paint_worker` generators every run uses:
they pull strokes from per-worker deques the injector can refill, ride
out stalls wherever they land, abandon ops whose implement died, and
hand their in-flight stroke back on a kill.  There is no separate
fault-aware worker, so an empty plan's trace is byte-identical to a
no-plan run (a property test pins this).
"""

from __future__ import annotations

from typing import Deque, Dict, List, Set

from ..grid.palette import Color
from ..sim.engine import (
    KillInterrupt,
    ResourceHandle,
    Simulator,
    StallInterrupt,
)
from ..sim.events import EventKind
from .plan import (
    FaultError,
    FaultPlan,
    ImplementFailure,
    LateArrival,
    StudentDropout,
    TransientStall,
)
from .recovery import FaultAccounting, RecoveryConfig


class FaultInjector:
    """Compiles a :class:`FaultPlan` into kernel schedule entries and
    performs recovery the moment each fault fires.

    Construct it after the simulator and resources exist but before
    ``sim.run()``; call :meth:`install`, then register each worker with
    ``start_at=injector.start_delay(i)``.
    """

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        workers: List[str],
        queues: Dict[str, Deque],
        resources: Dict[Color, ResourceHandle],
        recovery: RecoveryConfig,
        accounting: FaultAccounting,
        dead_colors: Set[Color],
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.workers = workers
        self.queues = queues
        self.resources = resources
        self.recovery = recovery
        self.accounting = accounting
        self.dead_colors = dead_colors
        self._start_delays: Dict[int, float] = {}

    def _worker_name(self, index: int) -> str:
        if not 0 <= index < len(self.workers):
            raise FaultError(
                f"fault targets worker {index}, but the run has only "
                f"{len(self.workers)} active workers"
            )
        return self.workers[index]

    def install(self) -> None:
        """Validate the plan against this run and schedule every fault.

        Raises:
            FaultError: for worker indices outside the active worker
                list or colors the run has no implement for.
        """
        for f in self.plan.faults:
            if isinstance(f, StudentDropout):
                name = self._worker_name(f.worker)
                self.sim.schedule_call(f.at, self._fire_dropout, name)
            elif isinstance(f, ImplementFailure):
                if f.color not in self.resources:
                    raise FaultError(
                        f"implement failure for {f.color.name}, but the "
                        f"run only uses "
                        f"{sorted(c.name for c in self.resources)}"
                    )
                self.sim.schedule_call(f.at, self._fire_implement_failure,
                                       f.color)
            elif isinstance(f, TransientStall):
                name = self._worker_name(f.worker)
                self.sim.schedule_call(f.at, self._fire_stall, name,
                                       f.duration)
            elif isinstance(f, LateArrival):
                name = self._worker_name(f.worker)
                self._start_delays[f.worker] = f.delay
                self.accounting.faults_fired += 1
                self.accounting.late_arrivals += 1
                self.sim.log(EventKind.FAULT_INJECTED, agent=name,
                             fault=f.kind.value, delay=f.delay)

    def start_delay(self, worker_index: int) -> float:
        """Start offset for a worker (0.0 unless it arrives late)."""
        return self._start_delays.get(worker_index, 0.0)

    # -- fault callbacks (run at kernel level at the scheduled time) -------
    def _fire_dropout(self, name: str) -> None:
        sim = self.sim
        sim.log(EventKind.FAULT_INJECTED, agent=name,
                fault=StudentDropout.kind.value,
                policy=self.recovery.policy.value)
        self.accounting.faults_fired += 1
        self.accounting.dropouts += 1
        sim.interrupt(name, KillInterrupt("student dropout"))
        remaining = list(self.queues[name])
        self.queues[name].clear()
        if not remaining:
            return
        if self.recovery.reassigns_dropout_work:
            survivors = [w for w in self.workers
                         if w != name and not sim.is_finished(w)]
            if survivors:
                recipient = min(
                    survivors,
                    key=lambda w: (len(self.queues[w]),
                                   self.workers.index(w)),
                )
                self.queues[recipient].extend(remaining)
                sim.log(EventKind.OP_REASSIGNED, agent=recipient,
                        from_agent=name, n_ops=len(remaining))
                self.accounting.ops_reassigned += len(remaining)
                overhead = self.recovery.redistribute_overhead
                if overhead > 0:
                    if sim.observer is not None:
                        sim.observer.on_recovery(
                            "redistribute_pickup", sim.now,
                            sim.now + overhead, agent=recipient,
                            from_agent=name, n_ops=len(remaining))
                    sim.interrupt(recipient,
                                  StallInterrupt(overhead, reason="pickup"))
                    self.accounting.recovery_latencies.append(overhead)
                return
        # ABANDON, or nobody left standing to take the work.
        sim.log(EventKind.OP_ABANDONED, agent=name, n_ops=len(remaining),
                reason="dropout")
        self.accounting.ops_abandoned += len(remaining)

    def _fire_implement_failure(self, color: Color) -> None:
        sim = self.sim
        res = self.resources[color]
        if res.failed:
            # Already down (two failures of one color in a plan): no-op.
            sim.log(EventKind.NOTE, resource=res.name,
                    msg="implement already failed")
            return
        sim.log(EventKind.FAULT_INJECTED,
                fault=ImplementFailure.kind.value, resource=res.name,
                color=color.name, policy=self.recovery.policy.value)
        self.accounting.faults_fired += 1
        self.accounting.implement_failures += 1
        if self.recovery.repairs_implements:
            delay = self.recovery.spare_fetch_delay
            if sim.observer is not None:
                sim.observer.on_recovery(
                    "spare_fetch", sim.now, sim.now + delay,
                    resource=res.name, color=color.name)
            sim.fail_resource(res, repair_at=sim.now + delay)
            self.accounting.recovery_latencies.append(delay)
        else:
            # Permanent: queued waiters are notified now; mark the color
            # dead so nobody even tries again.
            self.dead_colors.add(color)
            sim.fail_resource(res)

    def _fire_stall(self, name: str, duration: float) -> None:
        sim = self.sim
        delivered = sim.interrupt(name, StallInterrupt(duration))
        sim.log(EventKind.FAULT_INJECTED, agent=name,
                fault=TransientStall.kind.value, duration=duration,
                delivered=delivered)
        if delivered:
            self.accounting.faults_fired += 1
            self.accounting.stalls += 1
