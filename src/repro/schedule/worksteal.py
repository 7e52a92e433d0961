"""Work stealing: the classroom's "whoever finishes, helps the others".

Each worker starts with their static share (a vertical slice, say), and a
worker whose own deque empties *steals* the back half of the most-loaded
teammate's remaining strokes.  This fixes the Canadian-flag imbalance
without the central queue of :mod:`repro.schedule.strategies` — the
classic distributed remedy, at the cost of occasional extra implement
churn when the thief needs different colors.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

from ..agents.student import FillStyle, StudentProcessor
from ..agents.team import Team
from ..flags.decompose import Partition
from ..sim.engine import (ProcessGen, Release, ResourceHandle, Simulator,
                          Timeout)
from ..sim.events import EventKind
from ..sim.trace import Trace
from .runner import RunResult, Stage


class WorkStealError(Exception):
    """Raised for invalid work-stealing configurations."""


def steal_back_half(queues: Dict[str, Deque[T]],
                    thief: str) -> Optional[Tuple[str, List[T]]]:
    """Move the back half of the largest other queue into the thief's.

    The core work-stealing primitive, independent of the simulation: it
    operates on any mapping of owner name to deque of work items, and
    the in-sim stealing runner below rebalances through it.  (The sweep
    fabric needs no stealing: its one coordinator thread owns a single
    shared queue.)  Ties between equally-loaded victims break toward the
    lexicographically largest name, deterministically.

    Returns ``(victim, stolen_items)`` with the items already moved to
    the thief's deque (victim's intended order preserved), or ``None``
    when every other queue is empty.
    """
    victims = [(len(q), name) for name, q in queues.items()
               if name != thief and q]
    if not victims:
        return None
    victims.sort(reverse=True)
    _, victim = victims[0]
    vq = queues[victim]
    n = max(1, len(vq) // 2)
    stolen = [vq.pop() for _ in range(n)]
    stolen.reverse()  # keep the victim's intended order
    queues[thief].extend(stolen)
    return victim, stolen


def _steal(queues: Dict[str, Deque], thief: str,
           sim: Simulator) -> Optional[int]:
    """Steal into the thief's queue and log the NOTE event.

    Returns the number of strokes stolen, or None when nothing remains
    anywhere.
    """
    moved = steal_back_half(queues, thief)
    if moved is None:
        return None
    victim, stolen = moved
    sim.log(EventKind.NOTE, agent=thief, stole=len(stolen), victim=victim)
    return len(stolen)


def _stealing_worker(
    stage: Stage,
    student: StudentProcessor,
    queues: Dict[str, Deque],
    rng: np.random.Generator,
    style: FillStyle,
    steal_overhead: float,
) -> ProcessGen:
    my_q = queues[student.name]
    held: Optional[ResourceHandle] = None
    while True:
        if my_q:
            op = my_q.popleft()
        else:
            if held is not None:
                yield Release(held)
                held = None
            if _steal(queues, student.name, stage.sim) is None:
                break
            # Take one stroke in hand *before* walking back: work in a
            # queue can be re-stolen during the overhead delay, and
            # without this an op could ping-pong between idle workers
            # forever.  Holding one guarantees progress per steal.
            op = my_q.popleft()
            if steal_overhead > 0:
                yield Timeout(steal_overhead)
        held = yield from stage.stroke(student, op, held, rng, style)
    if held is not None:
        yield Release(held)


def run_work_stealing(
    partition: Partition,
    team: Team,
    rng: np.random.Generator,
    *,
    style: FillStyle = FillStyle.SCRIBBLE,
    steal_overhead: float = 2.0,
    label: Optional[str] = None,
) -> RunResult:
    """Run a static partition with work stealing on top.

    Note: stealing can reorder strokes across workers, so this runner is
    only offered for *flat* (non-layered) programs where any stroke order
    is legal.

    Raises:
        WorkStealError: when the program is layered (stealing could
            violate the painter's order) or the team is too small.
    """
    program = partition.program
    layers_per_cell: Dict = {}
    for op in program.ops:
        layers_per_cell.setdefault(op.cell, []).append(op.layer)
    if any(len(ls) > 1 for ls in layers_per_cell.values()):
        raise WorkStealError(
            "work stealing supports only flat programs; "
            "layered flags need the barrier scheduler"
        )

    stage = Stage(program, team)
    active = [(i, ops) for i, ops in enumerate(partition.assignments) if ops]
    students = team.colorers(len(active))
    queues: Dict[str, Deque] = {
        student.name: deque(ops)
        for student, (_, ops) in zip(students, active)
    }
    for student in students:
        stage.sim.add_process(
            student.name,
            _stealing_worker(stage, student, queues, rng, style,
                             steal_overhead),
        )
    true_makespan, measured = stage.run(rng)
    from ..flags.compiler import execute
    target = execute(program).codes
    return RunResult(
        label=label or f"{program.flag}/{partition.strategy}+stealing",
        strategy=partition.strategy + "+stealing",
        n_workers=len(active),
        true_makespan=true_makespan,
        measured_time=measured,
        trace=Trace(stage.sim.events),
        canvas=stage.canvas,
        correct=stage.canvas.matches(target),
        extra={"steal_overhead": steal_overhead},
    )


def count_steals(trace: Trace) -> int:
    """How many steal events occurred in a run."""
    return sum(1 for e in trace.of_kind(EventKind.NOTE)
               if "stole" in e.data)
