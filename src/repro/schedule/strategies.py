"""Dynamic (self-scheduling) strategies: the shared work queue.

Static decompositions fix each worker's strokes in advance; a *dynamic*
strategy lets idle workers pull the next chunk of strokes from a shared
queue, trading coordination for load balance.  This is the classroom
equivalent of "whoever finishes their part helps the others", and the
classic remedy for the load imbalance the Webster Canadian-flag variation
surfaces.

Chunking is the usual grain-size dial: chunk=1 is pure self-scheduling
(perfect balance, maximal implement churn), large chunks approach a static
block split.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..agents.student import FillStyle, StudentProcessor
from ..agents.team import Team
from ..flags.spec import PaintOp, PaintProgram
from ..sim.engine import ProcessGen, Release, ResourceHandle
from ..sim.trace import Trace
from .runner import RunResult, Stage


class StrategyError(Exception):
    """Raised for invalid dynamic-schedule configurations."""


def _dynamic_worker(stage: Stage, student: StudentProcessor,
                    queue: Deque[PaintOp], chunk: int,
                    rng: np.random.Generator,
                    style: FillStyle) -> ProcessGen:
    """One worker repeatedly pulling up to ``chunk`` strokes off the queue."""
    while queue:
        batch = [queue.popleft() for _ in range(min(chunk, len(queue)))]
        held: Optional[ResourceHandle] = None
        for op in batch:
            held = yield from stage.stroke(student, op, held, rng, style)
        # Release between chunks: self-scheduling means nobody hogs an
        # implement across queue pulls, otherwise one worker could
        # monopolize a color for an entire single-color phase.
        if held is not None:
            yield Release(held)


def run_dynamic(
    program: PaintProgram,
    team: Team,
    n_workers: int,
    rng: np.random.Generator,
    *,
    chunk: int = 4,
    label: Optional[str] = None,
    style: FillStyle = FillStyle.SCRIBBLE,
    target: Optional[np.ndarray] = None,
) -> RunResult:
    """Simulate self-scheduling workers over a shared stroke queue.

    The queue holds the program's strokes in program (layer) order, so for
    layered flags dynamic scheduling stays *approximately* legal: a cell may
    still be overpainted out of order if two layers' strokes are in flight
    simultaneously.  Use :mod:`repro.schedule.depsched` when strict layer
    correctness matters; this runner is the load-balance workhorse for flat
    flags.

    Raises:
        StrategyError: on a non-positive worker count or chunk size.
    """
    if n_workers < 1:
        raise StrategyError(f"need at least one worker, got {n_workers}")
    if chunk < 1:
        raise StrategyError(f"chunk must be >= 1, got {chunk}")
    stage = Stage(program, team)
    queue: Deque[PaintOp] = deque(program.ops)
    for student in team.colorers(n_workers):
        stage.sim.add_process(
            student.name,
            _dynamic_worker(stage, student, queue, chunk, rng, style),
        )
    true_makespan, measured = stage.run(rng)
    if target is None:
        from ..flags.compiler import execute
        target = execute(program).codes
    return RunResult(
        label=label or f"{program.flag}/dynamic(chunk={chunk})",
        strategy=f"dynamic_chunk{chunk}",
        n_workers=n_workers,
        true_makespan=true_makespan,
        measured_time=measured,
        trace=Trace(stage.sim.events),
        canvas=stage.canvas,
        correct=stage.canvas.matches(target),
        extra={"chunk": chunk},
    )


def chunk_sweep(
    program: PaintProgram,
    team_factory,
    n_workers: int,
    chunks: Sequence[int],
    seed: int,
    *,
    trials: int = 3,
) -> Dict[int, List[RunResult]]:
    """Run the dynamic strategy across chunk sizes; fresh team per trial.

    Trial streams follow :mod:`repro.sweep.seeding`, keyed by chunk
    size, so no (seed, chunk, trial) shares a stream with another.
    """
    from ..sweep.seeding import trial_rngs

    out: Dict[int, List[RunResult]] = {}
    for chunk in chunks:
        runs = []
        key = f"dynamic/chunk={chunk}"
        for rng in trial_rngs(seed, trials, cell_key=key):
            team = team_factory(rng)
            runs.append(run_dynamic(program, team, n_workers, rng, chunk=chunk))
        out[chunk] = runs
    return out
