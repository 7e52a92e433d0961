"""The scalar replay path: exact event interleaving without the trimmings.

Runs with implement contention or multi-owner cells cannot be advanced
as batched arithmetic — which worker waits, for how long, and which
stroke lands last on a shared cell all depend on the sampled durations.
For those runs the vector backend replays the *real* generators
(:func:`repro.schedule.runner.paint_worker`, the one worker every
reference run uses, driven by the real team and RNG stream) on a
stripped-down kernel that reproduces the reference engine's scheduling
decisions exactly but skips everything metric payloads do not need:
event logging, observers, traces, interrupt epochs, and the full
:class:`~repro.grid.canvas.Canvas` bookkeeping.

Fidelity notes:

- the heap is keyed ``(time, seq)`` with one shared monotone counter
  for heap pushes and resource-queue entries, preserving the reference
  kernel's relative ordering (log events draw from the same counter
  there, but only *relative* order is ever compared);
- acquire/grant/release semantics are copied verbatim from
  ``Simulator._try_acquire`` / ``_grant_queued`` / ``_do_release``;
- the stub canvas applies last-write-wins color codes in paint-call
  order, which is dispatch (time) order — the only part of the real
  canvas the correctness check reads.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from ...agents.team import Team
from ...schedule.runner import build_resources, paint_worker
from ..engine import (
    Acquire,
    ProcessGen,
    Release,
    ResourceHandle,
    SimulationError,
    Timeout,
)
from .plan import RunPlan


class _StubCanvas:
    """The minimal canvas surface ``paint_worker`` and grading touch."""

    def __init__(self, rows: int, cols: int) -> None:
        self.codes = np.zeros((rows, cols), dtype=np.int8)

    def paint(self, cell, color, *, agent=None, time=None,
              coverage=1.0) -> None:
        """Record a stroke: last write wins, like an overpaintable canvas."""
        self.codes[cell] = int(color)

    def matches(self, target: np.ndarray, *,
                ignore_blank_target: bool = True) -> bool:
        """Section V-C grading, mirroring ``Canvas.matches``."""
        if ignore_blank_target:
            care = target != 0
            return bool(np.array_equal(self.codes[care], target[care]))
        return bool(np.array_equal(self.codes, target))


class _MiniKernel:
    """A logging-free event loop with the reference engine's scheduling.

    Supports exactly the command set ``paint_worker`` yields without a
    fault plan — :class:`Timeout`, :class:`Acquire`, :class:`Release` —
    plus the ``log``/``now`` surface the worker generator reads.  It
    never throws stalls, kills or resource failures into a worker, so
    the worker's fault handling stays dormant.  Reuses the
    real :class:`~repro.sim.engine.ResourceHandle` so FIFO queue and
    capacity semantics are shared code, not a copy.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, str]] = []
        self._seq = itertools.count()
        self._procs: Dict[str, ProcessGen] = {}
        self._done: Dict[str, float] = {}
        self._resources: Dict[str, ResourceHandle] = {}

    def resource(self, name: str, capacity: int = 1) -> ResourceHandle:
        """Create (or fetch) a named shared resource."""
        if name not in self._resources:
            self._resources[name] = ResourceHandle(name, capacity)
        return self._resources[name]

    def add_process(self, name: str, gen: ProcessGen) -> None:
        """Register a process to start at time 0 (insertion order ties)."""
        self._procs[name] = gen
        heapq.heappush(self._heap, (0.0, next(self._seq), name))

    def log(self, kind, agent=None, **data) -> None:
        """Swallow a domain event; replay keeps metrics, not traces."""

    def run(self) -> float:
        """Drive every process to completion; returns the makespan.

        Raises:
            SimulationError: if the heap empties with a process still
                blocked (clean scenario runs never deadlock; this guard
                turns a planner bug into a loud failure).
        """
        while self._heap:
            t, _, name = heapq.heappop(self._heap)
            self.now = t
            self._step(name)
        blocked = sorted(n for n in self._procs if n not in self._done)
        if blocked:
            raise SimulationError(
                f"vector replay deadlocked with {blocked} still blocked")
        return self.now

    def _step(self, name: str) -> None:
        gen = self._procs[name]
        while True:
            try:
                cmd = next(gen)
            except StopIteration:
                self._done[name] = self.now
                return
            if isinstance(cmd, Timeout):
                heapq.heappush(self._heap,
                               (self.now + cmd.delay, next(self._seq), name))
                return
            if isinstance(cmd, Acquire):
                res = cmd.resource
                if (not res.failed and len(res.holders) < res.capacity
                        and not res.queue):
                    res.holders.append(name)
                    continue
                res.queue.append((next(self._seq), name))
                return
            if isinstance(cmd, Release):
                res = cmd.resource
                if name not in res.holders:
                    raise SimulationError(
                        f"{name!r} released {res.name!r} without holding it")
                res.holders.remove(name)
                while (not res.failed and res.queue
                       and len(res.holders) < res.capacity):
                    res.queue.sort()
                    _, waiter = res.queue.pop(0)
                    res.holders.append(waiter)
                    heapq.heappush(self._heap,
                                   (self.now, next(self._seq), waiter))
                continue
            raise SimulationError(
                f"vector replay cannot execute {cmd!r} from {name!r}")


def run_replay_trial(run: RunPlan, team: Team,
                     rng: np.random.Generator) -> Dict[str, object]:
    """Execute one trial of a contended run; returns its metric payload.

    Mirrors :func:`repro.schedule.runner.run_partition` step for step —
    same resource construction order, same worker registration order,
    same shared ``last_holder`` map, same timer measurement — with the
    real ``paint_worker`` generators drawing from ``rng``, so the RNG
    stream advances exactly as the reference engine advances it.
    """
    sim = _MiniKernel()
    canvas = _StubCanvas(run.rows, run.cols)
    resources = build_resources(sim, team, run.sorted_colors)
    last_holder: Dict[str, str] = {}
    students = team.colorers(run.n_active)
    for student, ops in zip(students, run.active_ops):
        sim.add_process(
            student.name,
            paint_worker(sim, student, deque(ops), team, canvas, resources,
                         rng, style=run.style, policy=run.policy,
                         last_holder=last_holder),
        )
    true_makespan = sim.run()
    measured = team.timer.measure(true_makespan, rng)
    return {
        "label": run.label,
        "strategy": run.strategy,
        "n_workers": run.n_active,
        "true_makespan": true_makespan,
        "measured_time": measured,
        "correct": canvas.matches(run.target, ignore_blank_target=True),
    }
