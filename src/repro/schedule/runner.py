"""The core scenario runner: replay a partition on the simulation engine.

This module turns a static :class:`~repro.flags.decompose.Partition` plus a
:class:`~repro.agents.team.Team` into simulator processes, runs them, and
packages the outcome as a :class:`RunResult`.  It is the path every
experiment goes through: :func:`paint_stroke` is the one per-stroke step
(take the implement, color the cell, ride out stalls) that the static,
fault-tolerant, self-scheduling, work-stealing and layered runners all
share, and :class:`Stage` is the one run setup they all build.

Implement sharing follows the classroom physics: a team owns one implement
per color (unless issued duplicates), an implement is a single-holder FIFO
resource, and changing hands costs handoff time.  The acquisition *policy*
— hold an implement through a same-color run vs. release after every
stroke — is a modeling knob the ablations sweep.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Deque, Dict, Generator, List,
                    Optional, Sequence, Set, Tuple)

import numpy as np

from ..agents.student import FillStyle, StudentProcessor
from ..agents.team import Team
from ..flags.spec import PaintOp, PaintProgram
from ..flags.decompose import Partition
from ..grid.canvas import Canvas
from ..grid.palette import Color
from ..sim.engine import (
    Acquire,
    KillInterrupt,
    ProcessGen,
    Release,
    ResourceFailure,
    ResourceHandle,
    Simulator,
    StallInterrupt,
    Timeout,
)
from ..sim.events import EventKind
from ..sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.plan import FaultPlan
    from ..faults.recovery import FaultAccounting, RecoveryConfig
    from ..obs.observer import Observer
    from ..obs.summary import ObsSummary


class AcquirePolicy(enum.Enum):
    """When a worker gives a shared implement back.

    HOLD_COLOR_RUN: keep the implement until the next stroke needs a
    different color — the natural classroom behavior, and the one that
    makes scenario 4 self-organize into a pipeline (FIFO queues hand the
    red marker down the line of waiting workers).

    RELEASE_PER_STROKE: release after every cell — maximal fairness,
    pathological handoff overhead; the thrashing baseline.
    """

    HOLD_COLOR_RUN = "hold_color_run"
    RELEASE_PER_STROKE = "release_per_stroke"


@dataclass
class RunResult:
    """Everything one simulated scenario run produced.

    Attributes:
        label: human-readable run identifier ("scenario3", ...).
        strategy: the decomposition/schedule that was used.
        n_workers: processors that actually colored.
        true_makespan: simulated seconds until the last stroke/process end.
        measured_time: what the timer student's stopwatch reported.
        trace: the full event trace for metric extraction.
        canvas: the colored sheet.
        correct: whether the canvas reproduces the target image.
        faults: fault/recovery accounting when the run executed under a
            :class:`~repro.faults.plan.FaultPlan`; None for clean runs.
        obs: the observability digest when the run executed with a
            :class:`~repro.obs.observer.RunObserver` attached; None
            otherwise (see :mod:`repro.obs`).
    """

    label: str
    strategy: str
    n_workers: int
    true_makespan: float
    measured_time: float
    trace: Trace
    canvas: Canvas
    correct: bool
    extra: Dict[str, object] = field(default_factory=dict)
    faults: Optional["FaultAccounting"] = None
    obs: Optional["ObsSummary"] = None


def marker_name(color: Color) -> str:
    """Canonical resource name for a color's implement."""
    return f"{color.name.lower()}_marker"


def build_resources(sim: Simulator, team: Team,
                    colors: Sequence[Color]) -> Dict[Color, ResourceHandle]:
    """One FIFO resource per color, capacity = duplicate implements issued."""
    return {
        c: sim.resource(marker_name(c), capacity=team.kit.copies)
        for c in colors
    }


def _ride_out(sim: Simulator, agent: str, stall: StallInterrupt,
              end: float):
    """Sleep out ``stall`` and the rest of a timeout that was due at
    ``end``, riding out any further stalls the same way.

    Kill interrupts are not caught: they reach the worker's handler.
    """
    while True:
        sim.log(EventKind.STALL, agent=agent, duration=stall.duration,
                reason=stall.reason)
        delay = stall.duration + max(0.0, end - sim.now)
        end = sim.now + delay
        try:
            yield Timeout(delay)
            return
        except StallInterrupt as s:
            stall = s


def _reacquire(sim: Simulator, agent: str, res: ResourceHandle,
               exc: Exception):
    """Finish an acquire that ``exc`` interrupted; False on permanent
    failure.

    A stall delivered while parked in the queue drops our queue slot, so
    after sleeping it out we re-request, unless the grant had already
    landed (granted-but-not-yet-woken), in which case we simply proceed.
    """
    while isinstance(exc, StallInterrupt):
        yield from _ride_out(sim, agent, exc, sim.now)
        if res.held_by(agent):
            return True
        try:
            yield Acquire(res)
            return True
        except (ResourceFailure, StallInterrupt) as e:
            exc = e
    return False


def paint_stroke(
    sim: Simulator,
    student: StudentProcessor,
    op: PaintOp,
    held: Optional[ResourceHandle],
    team: Team,
    canvas: Canvas,
    resources: Dict[Color, ResourceHandle],
    rng: np.random.Generator,
    *,
    style: FillStyle,
    last_holder: Dict[str, str],
    dead_colors: Set[Color],
    accounting: Optional["FaultAccounting"] = None,
) -> Generator[Any, Any, Optional[ResourceHandle]]:
    """Paint one stroke; returns the implement the worker now holds.

    The one per-stroke step of every runner: pick up the op's implement
    (putting down ``held`` if it is another one, waiting in line, paying
    handoff time when it changes hands), color the cell, and keep the
    implement.  Stalls are ridden out wherever they land.  Only the rule
    for choosing the next op differs between workers.

    Args:
        held: the implement the worker holds before this stroke.
        last_holder: shared map resource-name -> last agent who held it;
            pass the same dict to every worker of a run.
        dead_colors: shared set of colors whose implement permanently
            failed; their ops are abandoned, not attempted.
        accounting: fault ledger charged for abandoned ops, if any.

    Returns:
        The op's implement, ``held`` unchanged when the op's color is
        dead, or ``None`` when the implement failed while we waited.
    """
    name = student.name
    res = resources[op.color]
    dead = op.color in dead_colors
    if not dead and held is not res:
        if held is not None:
            yield Release(held)
            held = None
        # Each engine command is yielded here directly, and a fault only
        # diverts into _reacquire/_ride_out once it lands: the fault-free
        # path pays no nested generator per command.
        try:
            yield Acquire(res)
            got = True
        except (ResourceFailure, StallInterrupt) as exc:
            got = yield from _reacquire(sim, name, res, exc)
        if got:
            prev = last_holder.get(res.name)
            if prev is not None and prev != name:
                delay = student.handoff_time(rng)
                sim.log(EventKind.HANDOFF, agent=name, resource=res.name,
                        from_agent=prev, delay=delay)
                end = sim.now + delay
                try:
                    yield Timeout(delay)
                except StallInterrupt as stall:
                    yield from _ride_out(sim, name, stall, end)
            last_holder[res.name] = name
            held = res
        else:
            dead = True
            dead_colors.add(op.color)
    if dead:
        sim.log(EventKind.OP_ABANDONED, agent=name, cell=op.cell,
                color=op.color.name, reason="implement_failed")
        if accounting is not None:
            accounting.ops_abandoned += 1
        return held
    implement = team.kit.implement_for(op.color)
    duration, coverage, fault = student.stroke_time(
        implement, rng, style, complexity=op.complexity)
    color = op.color.name
    sim.log(EventKind.STROKE_START, agent=name, cell=op.cell, color=color,
            layer=op.layer)
    end = sim.now + duration
    try:
        yield Timeout(duration)
    except StallInterrupt as stall:
        yield from _ride_out(sim, name, stall, end)
    canvas.paint(op.cell, op.color, agent=name, time=sim.now,
                 coverage=coverage)
    sim.log(EventKind.STROKE_END, agent=name, cell=op.cell, color=color,
            layer=op.layer)
    if fault is not None:
        sim.log(EventKind.FAULT, agent=name, resource=res.name, delay=fault)
        end = sim.now + fault
        try:
            yield Timeout(fault)
        except StallInterrupt as stall:
            yield from _ride_out(sim, name, stall, end)
    return res


def paint_worker(
    sim: Simulator,
    student: StudentProcessor,
    queue: Deque[PaintOp],
    team: Team,
    canvas: Canvas,
    resources: Dict[Color, ResourceHandle],
    rng: np.random.Generator,
    *,
    style: FillStyle = FillStyle.SCRIBBLE,
    policy: AcquirePolicy = AcquirePolicy.HOLD_COLOR_RUN,
    last_holder: Optional[Dict[str, str]] = None,
    accounting: Optional["FaultAccounting"] = None,
    dead_colors: Optional[Set[Color]] = None,
) -> ProcessGen:
    """Generator for one student working through their stroke deque.

    Args:
        queue: this worker's strokes in order; fault recovery may append
            a dropped teammate's strokes mid-run, and on a kill the
            worker pushes its in-flight stroke back so redistribution
            never loses an op.
        last_holder / accounting / dead_colors: see :func:`paint_stroke`.
    """
    if last_holder is None:
        last_holder = {}
    if dead_colors is None:
        dead_colors = set()
    held: Optional[ResourceHandle] = None
    op: Optional[PaintOp] = None
    try:
        while queue:
            op = queue.popleft()
            held = yield from paint_stroke(
                sim, student, op, held, team, canvas, resources, rng,
                style=style, last_holder=last_holder,
                dead_colors=dead_colors, accounting=accounting)
            op = None
            if held is not None and policy is AcquirePolicy.RELEASE_PER_STROKE:
                yield Release(held)
                held = None
        if held is not None:
            yield Release(held)
    except KillInterrupt:
        # Hand the in-flight stroke back for the recovery controller,
        # then let the kernel finalize the kill (it releases what we hold).
        if op is not None:
            queue.appendleft(op)
        raise


class Stage:
    """The shared room of one run: engine, sheet, implements, handoffs.

    Every runner builds it the same way and in this order (the engine's
    sequence counter makes the order part of the trace): reset the
    team's fatigue, then the :class:`Simulator`, the overpaintable
    :class:`Canvas`, one implement per color in code order, and the
    ``last_holder`` map and ``dead_colors`` set every worker shares.
    """

    def __init__(self, program: PaintProgram, team: Team,
                 observer: Optional["Observer"] = None) -> None:
        team.begin_scenario()
        self.team = team
        self.sim = Simulator(observer=observer)
        self.canvas = Canvas(program.rows, program.cols, allow_overpaint=True)
        colors = sorted({op.color for op in program.ops}, key=int)
        self.resources = build_resources(self.sim, team, colors)
        self.last_holder: Dict[str, str] = {}
        self.dead_colors: Set[Color] = set()

    def stroke(self, student: StudentProcessor, op: PaintOp,
               held: Optional[ResourceHandle], rng: np.random.Generator,
               style: FillStyle
               ) -> Generator[Any, Any, Optional[ResourceHandle]]:
        """:func:`paint_stroke` on this stage."""
        return paint_stroke(self.sim, student, op, held, self.team,
                            self.canvas, self.resources, rng, style=style,
                            last_holder=self.last_holder,
                            dead_colors=self.dead_colors)

    def worker(self, student: StudentProcessor, queue: Deque[PaintOp],
               rng: np.random.Generator, **kwargs) -> ProcessGen:
        """:func:`paint_worker` on this stage."""
        return paint_worker(self.sim, student, queue, self.team, self.canvas,
                            self.resources, rng,
                            last_holder=self.last_holder,
                            dead_colors=self.dead_colors, **kwargs)

    def run(self, rng: np.random.Generator) -> Tuple[float, float]:
        """Run to completion: (true makespan, the timer's measurement)."""
        true_makespan = self.sim.run()
        return true_makespan, self.team.timer.measure(true_makespan, rng)


def run_partition(
    partition: Partition,
    team: Team,
    rng: np.random.Generator,
    *,
    label: Optional[str] = None,
    style: FillStyle = FillStyle.SCRIBBLE,
    policy: AcquirePolicy = AcquirePolicy.HOLD_COLOR_RUN,
    target: Optional[np.ndarray] = None,
    fault_plan: Optional["FaultPlan"] = None,
    recovery: Optional["RecoveryConfig"] = None,
    observer: Optional["Observer"] = None,
    strict: bool = False,
) -> RunResult:
    """Simulate one run of a statically-partitioned program.

    Workers with empty assignments are skipped (they stand aside, like the
    timer student).  The team must have at least as many students as
    non-empty assignments.

    Args:
        target: expected final color-code image; defaults to replaying the
            program sequentially (which for layered programs assumes the
            partition preserves layer legality — use the dependency-aware
            scheduler otherwise).
        strict: how ``result.correct`` judges the canvas.  ``False`` (the
            default) applies Section V-C's grading lenience: cells the
            target leaves blank may hold anything, because blank paper is
            already "colored" white.  ``True`` requires exact cell-for-cell
            equality with the target, blanks included — what a run that
            must not overpaint uncovered cells should assert.
        fault_plan: when given (even empty), the plan's mishaps are
            injected and the result carries fault accounting; an empty
            plan reproduces the clean run's trace exactly.
        recovery: how the team responds to faults; defaults to
            REDISTRIBUTE.  Ignored without a ``fault_plan``.
        observer: an observability tap (e.g. a
            :class:`~repro.obs.observer.RunObserver`); with a
            ``RunObserver``, the result carries its summary as
            ``result.obs``.  ``None`` (the default) costs nothing.
    """
    program = partition.program
    stage = Stage(program, team, observer)
    active = [ops for ops in partition.assignments if ops]
    students = team.colorers(len(active))
    queues: Dict[str, Deque[PaintOp]] = {
        student.name: deque(ops) for student, ops in zip(students, active)
    }
    accounting: Optional["FaultAccounting"] = None
    start_at = [0.0] * len(students)
    if fault_plan is not None:
        # Imported lazily: clean runs never pay for the faults package.
        from ..faults.injector import FaultInjector
        from ..faults.recovery import FaultAccounting, RecoveryConfig

        if recovery is None:
            recovery = RecoveryConfig()
        accounting = FaultAccounting()
        injector = FaultInjector(stage.sim, fault_plan, list(queues), queues,
                                 stage.resources, recovery, accounting,
                                 stage.dead_colors)
        injector.install()
        start_at = [injector.start_delay(i) for i in range(len(students))]
    for student, delay in zip(students, start_at):
        stage.sim.add_process(
            student.name,
            stage.worker(student, queues[student.name], rng, style=style,
                         policy=policy, accounting=accounting),
            start_at=delay,
        )
    true_makespan, measured = stage.run(rng)
    if target is None:
        from ..flags.compiler import execute
        target = execute(program).codes
    correct = stage.canvas.matches(target, ignore_blank_target=not strict)
    obs_summary: Optional["ObsSummary"] = None
    if observer is not None:
        # Imported lazily for the same reason the faults path is: clean
        # unobserved runs never touch the obs package.
        from ..obs.observer import RunObserver
        if isinstance(observer, RunObserver):
            obs_summary = observer.summary()
    return RunResult(
        label=label or f"{program.flag}/{partition.strategy}",
        strategy=partition.strategy,
        n_workers=len(active),
        true_makespan=true_makespan,
        measured_time=measured,
        trace=Trace(stage.sim.events),
        canvas=stage.canvas,
        correct=correct,
        faults=accounting,
        obs=obs_summary,
    )


def replay_many(
    make_partition,
    team_factory,
    n_trials: int,
    seed: int,
    **run_kwargs,
) -> List[RunResult]:
    """Run the same configuration ``n_trials`` times with fresh teams.

    Seed-derivation policy (see :mod:`repro.sweep.seeding`): trial ``t``
    draws from ``SeedSequence(seed).spawn(n_trials)[t]``, never from
    ``seed + t``.  Spawned streams are statistically independent and —
    unlike additive offsets — never collide across batches: with the old
    derivation, batch ``seed=0`` trial 5 and batch ``seed=5`` trial 0
    were the *same* stream, silently correlating experiments that were
    meant to be independent replications.
    """
    # Lazy import: repro.sweep builds on this module, so the seeding
    # policy must be pulled in at call time to avoid an import cycle.
    from ..sweep.seeding import trial_rngs

    out: List[RunResult] = []
    for rng in trial_rngs(seed, n_trials):
        team = team_factory(rng)
        partition = make_partition()
        out.append(run_partition(partition, team, rng, **run_kwargs))
    return out
