"""The replay path: exact event interleaving, metrics only.

Runs with implement contention cannot be advanced as batched
arithmetic — which worker waits, for how long, and how many handoff
draws the stream takes all depend on the sampled durations.
For those runs the vector backend replays the *real* generators
(:func:`repro.schedule.runner.paint_worker`, the one worker every
reference run uses, driven by the real team and RNG stream) on the
reference kernel itself, :class:`~repro.sim.engine.Simulator`, with two
things left out because metric payloads never read them: the event log
and the full :class:`~repro.grid.canvas.Canvas` bookkeeping.

Fidelity notes:

- :meth:`Simulator.log` is the only override.  A logged event draws a
  number from the counter that also orders heap and resource-queue
  entries, so skipping it shifts absolute sequence numbers but keeps
  their relative order — and only relative order is ever compared;
- the stub canvas applies last-write-wins color codes in paint-call
  order, which is dispatch (time) order, and grades with the same
  :func:`~repro.grid.canvas.codes_match` rule as the real canvas — the
  only parts of the real canvas the correctness check reads.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Optional

import numpy as np

from ...agents.team import Team
from ...grid.canvas import codes_match
from ...schedule.runner import build_resources, paint_worker
from ..engine import Simulator
from ..events import EventKind
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
        """Section V-C grading, the rule ``Canvas.matches`` applies."""
        return codes_match(self.codes, target,
                           ignore_blank_target=ignore_blank_target)


class _UnloggedSimulator(Simulator):
    """The reference kernel with its event log switched off."""

    def log(self, kind: EventKind, agent: Optional[str] = None,
            **data: Any) -> None:
        """Drop a domain event: replay keeps metrics, not traces."""


def run_replay_trial(run: RunPlan, team: Team,
                     rng: np.random.Generator) -> Dict[str, object]:
    """Execute one trial of a contended run; returns its metric payload.

    Mirrors :func:`repro.schedule.runner.run_partition` step for step —
    same resource construction order, same worker registration order,
    same shared ``last_holder`` map, same timer measurement — with the
    real ``paint_worker`` generators drawing from ``rng``, so the RNG
    stream advances exactly as the reference engine advances it.
    """
    sim = _UnloggedSimulator()
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
