"""Compile a sweep cell into a static vector execution plan.

Everything about a cell that does not depend on the trial — the compiled
paint program, the scenario partitions, per-op complexity/implement
constants, the grading target, and which execution path each run can
take — is computed once here and shared by every trial of the batch.

Two execution paths exist (see :mod:`repro.sim.vector`):

- ``"soa"``: the run is *contention-free* — the active workers' color
  sets are pairwise disjoint (no worker ever waits for or hands off an
  implement), every painted cell has a single owner (the final canvas
  is trial-independent), and no implement can fault mid-stroke.  Such a
  run is a pure sequence of stroke-time draws and can be advanced for
  all trials at once as structure-of-arrays numpy math.
- ``"replay"``: anything else (shared implements, multi-owner cells).
  The run must replay the event interleaving per trial, on the
  reference kernel with its event log switched off
  (:mod:`repro.sim.vector.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...agents.implements import ImplementModel
from ...agents.student import FillStyle
from ...agents.team import ImplementKit
from ...flags import get_flag
from ...flags.compiler import compile_flag
from ...flags.decompose import Partition
from ...flags.spec import FlagSpec, PaintOp, PaintProgram
from ...grid.canvas import codes_match
from ...grid.palette import Color
from ...schedule.runner import AcquirePolicy
from ...schedule.scenario import core_scenarios
from ...sweep.spec import ACTIVITY


@dataclass(frozen=True)
class RunPlan:
    """The static (trial-independent) description of one scenario run.

    Attributes:
        label: the payload label ("scenario1", "scenario1_repeat", ...).
        strategy: the decomposition name of the partition.
        style / policy: the cell's fill style and acquisition policy.
        rows / cols: the compiled program's raster size.
        active_ops: per-worker ordered stroke tuples, non-empty workers
            only, in worker order — exactly what the reference runner
            hands each ``paint_worker``.
        sorted_colors: the program's colors sorted by code, the order
            the reference runner creates implement resources in.
        target: the grading image (``FlagSpec.final_image``).
        path: ``"soa"`` or ``"replay"``.
        counts: (soa) per-worker stroke counts.
        comp / speed / var: (soa) per-(worker, stroke) complexity,
            implement speed factor, and implement variability, padded
            to the widest worker (padding is never read).
        correct: (soa) whether the run reproduces the target — with a
            single owner per cell this is trial-independent.
    """

    label: str
    strategy: str
    style: FillStyle
    policy: AcquirePolicy
    rows: int
    cols: int
    active_ops: Tuple[Tuple[PaintOp, ...], ...]
    sorted_colors: Tuple[Color, ...]
    target: np.ndarray
    path: str
    counts: Optional[np.ndarray] = None
    comp: Optional[np.ndarray] = None
    speed: Optional[np.ndarray] = None
    var: Optional[np.ndarray] = None
    correct: Optional[bool] = None

    @property
    def n_active(self) -> int:
        """Workers that actually color in this run."""
        return len(self.active_ops)

    @property
    def n_draws(self) -> int:
        """Standard normals one trial of this run consumes on the soa
        path: one per stroke plus the timer's two reaction draws."""
        return sum(len(ops) for ops in self.active_ops) + 2


@dataclass(frozen=True)
class CellPlan:
    """A compiled sweep cell: its flag spec, kit shape, and run list."""

    cell: Mapping[str, Any]
    spec: FlagSpec
    kit: ImplementKit
    runs: Tuple[RunPlan, ...]


def _soa_eligible(active_ops: Tuple[Tuple[PaintOp, ...], ...],
                  kit: ImplementKit) -> bool:
    """Whether a run is contention-free enough for the batched path.

    Three conditions, each guarding one way per-trial state could leak
    into the event interleaving or the final canvas:

    - no implement faults (a fault draw would shift the RNG stream and
      insert repair timeouts);
    - pairwise-disjoint worker color sets (no queueing, no handoffs —
      an implement only ever returns to the hand that held it);
    - a single owner per painted cell (the last stroke on a cell is
      then fixed by program order, not by sampled stroke times).
    """
    for ops in active_ops:
        for op in ops:
            if kit.implement_for(op.color).break_prob > 0:
                return False
    seen: set = set()
    for ops in active_ops:
        colors = {op.color for op in ops}
        if colors & seen:
            return False
        seen |= colors
    owner: Dict[Tuple[int, int], int] = {}
    for w, ops in enumerate(active_ops):
        for op in ops:
            if owner.setdefault(op.cell, w) != w:
                return False
    return True


def _final_codes(program: PaintProgram) -> np.ndarray:
    """The canvas a single-owner run always produces.

    With one owner per cell, each worker paints its cells in program
    order, so the last write to every cell is the program-order last
    op — the same fold the sequential painter's algorithm does.
    """
    codes = np.zeros((program.rows, program.cols), dtype=np.int8)
    for op in program.ops:
        codes[op.cell] = int(op.color)
    return codes


def _plan_run(program: PaintProgram, partition: Partition, label: str,
              style: FillStyle, policy: AcquirePolicy, kit: ImplementKit,
              target: np.ndarray) -> RunPlan:
    """Build one RunPlan from a compiled program and its partition."""
    active_ops = tuple(tuple(ops) for ops in partition.assignments if ops)
    sorted_colors = tuple(sorted({op.color for op in program.ops}, key=int))
    if not _soa_eligible(active_ops, kit):
        return RunPlan(label=label, strategy=partition.strategy, style=style,
                       policy=policy, rows=program.rows, cols=program.cols,
                       active_ops=active_ops, sorted_colors=sorted_colors,
                       target=target, path="replay")
    counts = np.array([len(ops) for ops in active_ops], dtype=np.int64)
    width = int(counts.max())
    comp = np.ones((len(active_ops), width), dtype=np.float64)
    speed = np.ones((len(active_ops), width), dtype=np.float64)
    var = np.zeros((len(active_ops), width), dtype=np.float64)
    for w, ops in enumerate(active_ops):
        for k, op in enumerate(ops):
            implement: ImplementModel = kit.implement_for(op.color)
            comp[w, k] = op.complexity
            speed[w, k] = implement.speed_factor
            var[w, k] = implement.variability
    correct = codes_match(_final_codes(program), target)
    return RunPlan(label=label, strategy=partition.strategy, style=style,
                   policy=policy, rows=program.rows, cols=program.cols,
                   active_ops=active_ops, sorted_colors=sorted_colors,
                   target=target, path="soa", counts=counts, comp=comp,
                   speed=speed, var=var, correct=correct)


def build_cell_plan(cell: Mapping[str, Any]) -> CellPlan:
    """Compile a cell key-dict into its static vector plan.

    ACTIVITY cells expand to the reference executor's exact run list —
    scenario 1, its repeat, then scenarios 2-4, all at the flag's
    default raster size (``run_core_activity`` never overrides it);
    single-scenario cells honor the cell's rows/cols override.
    """
    spec = get_flag(cell["flag"])
    style = FillStyle[cell["style"]]
    policy = AcquirePolicy[cell["policy"]]
    kit = ImplementKit.uniform(list(spec.colors_used()),
                               copies=cell["copies"])
    scenarios = {s.number: s for s in core_scenarios()}
    if cell["scenario"] == ACTIVITY:
        entries = [(scenarios[1], "scenario1"),
                   (scenarios[1], "scenario1_repeat"),
                   (scenarios[2], "scenario2"),
                   (scenarios[3], "scenario3"),
                   (scenarios[4], "scenario4")]
        program = compile_flag(spec, None, None)
    else:
        s = scenarios[cell["scenario"]]
        entries = [(s, f"scenario{s.number}")]
        program = compile_flag(spec, cell["rows"], cell["cols"])
    target = spec.final_image(program.rows, program.cols)
    runs: List[RunPlan] = []
    for scenario, label in entries:
        partition = scenario.partition(program)
        runs.append(_plan_run(program, partition, label, style, policy,
                              kit, target))
    return CellPlan(cell=dict(cell), spec=spec, kit=kit, runs=tuple(runs))
