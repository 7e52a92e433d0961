"""Dependency-aware scheduling for layered flags.

The Knox follow-up activity (Section III-D): layered coloring — background
first, then features — is the easy way to make complicated flags, but the
layers *limit parallelism* by introducing dependencies.  This module
schedules a layered :class:`FlagSpec` with a barrier between layers: within
a layer, the layer's cells are split among the workers; no worker may start
layer *k+1* until every worker has finished layer *k*.

The barrier is implemented with the engine's ``WaitAll`` primitive: each
(worker, layer) pair is its own simulator process that waits on all of the
previous layer's processes.  Student state (experience, fatigue) lives in
the shared :class:`StudentProcessor` objects, so a student's performance
carries across their per-layer processes exactly as it would across one
long process.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..agents.student import FillStyle, StudentProcessor
from ..agents.team import Team
from ..flags.compiler import compile_flag
from ..flags.spec import FlagSpec, PaintOp
from ..sim.engine import ProcessGen, WaitAll
from ..sim.trace import Trace
from .runner import RunResult, Stage


def split_ops(ops: Sequence[PaintOp], n: int) -> List[Tuple[PaintOp, ...]]:
    """Contiguous near-equal chunks of an ordered op list (may be empty)."""
    if n < 1:
        raise ValueError(f"need at least one worker, got {n}")
    base, extra = divmod(len(ops), n)
    out: List[Tuple[PaintOp, ...]] = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        out.append(tuple(ops[start:start + size]))
        start += size
    return out


def _layer_process(stage: Stage, student: StudentProcessor,
                   ops: Sequence[PaintOp], deps: Sequence[str],
                   rng: np.random.Generator, style: FillStyle) -> ProcessGen:
    """Wait for the previous layer's processes, then paint this worker's ops."""
    if deps:
        yield WaitAll(tuple(deps))
    yield from stage.worker(student, deque(ops), rng, style=style)


def run_layered(
    spec: FlagSpec,
    team: Team,
    n_workers: int,
    rng: np.random.Generator,
    *,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
    style: FillStyle = FillStyle.SCRIBBLE,
    skip_optional_blank: bool = True,
    label: Optional[str] = None,
) -> RunResult:
    """Simulate layered coloring with a barrier after every layer.

    Returns a :class:`RunResult` whose ``extra`` records the per-layer
    completion times (``layer_finish``) — the data for the "dependencies
    limit parallelism" discussion.
    """
    program = compile_flag(spec, rows, cols,
                           skip_optional_blank=skip_optional_blank)
    stage = Stage(program, team)
    students = team.colorers(n_workers)

    prev_layer_procs: List[str] = []
    layer_proc_names: Dict[str, List[str]] = {}
    for layer_name in program.layer_order:
        ops = program.ops_for_layer(layer_name)
        chunks = split_ops(ops, n_workers)
        names: List[str] = []
        for student, chunk in zip(students, chunks):
            if not chunk:
                continue
            pname = f"{layer_name}|{student.name}"
            names.append(pname)
            stage.sim.add_process(
                pname,
                _layer_process(stage, student, chunk, list(prev_layer_procs),
                               rng, style),
            )
        layer_proc_names[layer_name] = names
        if names:
            prev_layer_procs = names

    true_makespan, measured = stage.run(rng)
    layer_finish = {
        layer: max((stage.sim.finish_times[p] for p in procs), default=0.0)
        for layer, procs in layer_proc_names.items()
    }
    from ..flags.compiler import image_matches
    return RunResult(
        label=label or f"{spec.name}/layered(P={n_workers})",
        strategy="layer_barrier",
        n_workers=n_workers,
        true_makespan=true_makespan,
        measured_time=measured,
        trace=Trace(stage.sim.events),
        canvas=stage.canvas,
        correct=image_matches(stage.canvas.codes, spec, program),
        extra={"layer_finish": layer_finish,
               "layer_order": list(program.layer_order)},
    )


def layered_speedup_curve(
    spec: FlagSpec,
    team_factory,
    workers: Sequence[int],
    seed: int,
    *,
    trials: int = 3,
) -> Dict[int, List[RunResult]]:
    """Layered-schedule makespans across worker counts (fresh team each trial).

    For layered flags the curve flattens well before the flat-flag curve
    does: each barrier serializes on the slowest worker of the layer, and
    small layers (the Jordan star, the GB red cross) cannot use many hands.

    Trial streams follow :mod:`repro.sweep.seeding`, keyed by worker
    count, so no (seed, P, trial) shares a stream with another.
    """
    from ..sweep.seeding import trial_rngs

    out: Dict[int, List[RunResult]] = {}
    for p in workers:
        runs = []
        for rng in trial_rngs(seed, trials, cell_key=f"layered/P={p}"):
            team = team_factory(rng, max(p, 1))
            runs.append(run_layered(spec, team, p, rng))
        out[p] = runs
    return out
