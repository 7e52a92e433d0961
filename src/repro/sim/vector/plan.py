"""Compile a sweep cell into a static vector execution plan.

Everything about a cell that does not depend on the trial — the compiled
paint program, the scenario partitions, per-op complexity/implement
constants, the grading target, and which execution path each run can
take — is computed once here and shared by every trial of the batch.

Two execution paths exist (see :mod:`repro.sim.vector`):

- ``"soa"``: the run is *contention-free* — the active workers' color
  sets are pairwise disjoint, so no worker ever waits for or hands off
  an implement.  Such a run is a pure sequence of stroke-time draws and
  can be advanced for all trials at once as structure-of-arrays numpy
  math (:mod:`repro.sim.vector.soa`).
- ``"replay"``: the workers share an implement, so who waits, for how
  long, and how many handoff draws the stream takes depend on the
  sampled durations.  The contention kernel
  (:mod:`repro.sim.vector.contend`) steps each trial's FIFO queues and
  handoffs exactly as the reference kernel does.  The label predates
  that kernel (these runs used to be replayed on the reference
  ``Simulator``) and stays, because benchmarks key on it.

Cells painted by one worker fold into a fixed verdict here; a cell two
workers paint (a layered flag split across workers) is *contested*, and
the plan keeps each owner's last stroke on it so either path can grade
it per trial.

A plan depends only on the cell's key dict, so :func:`build_cell_plan`
memoizes it per canonical key (at most :data:`PLAN_MEMO_SIZE` plans,
least recently used first out, per process): a served vector ``/run``
or a fabric ``/task`` is a batch of one trial and would otherwise
rebuild it per trial.  Shared plans are immutable: their numpy arrays
are read-only, so a kernel that writes into one raises.

Implement faults cannot reach the vector engine: a cell's kit is
always :meth:`ImplementKit.uniform` thick markers, which never break,
and :func:`~repro.sim.backend.vector_unsupported_reason` refuses fault
plans.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...agents.implements import ImplementModel
from ...agents.student import FillStyle
from ...agents.team import ImplementKit
from ...canonical import canonical_json
from ...flags import get_flag
from ...flags.compiler import compile_flag
from ...flags.decompose import Partition
from ...flags.spec import FlagSpec, PaintOp, PaintProgram
from ...grid.canvas import codes_match
from ...grid.palette import Color
from ...schedule.runner import AcquirePolicy
from ...schedule.scenario import core_scenarios
from ...sweep.spec import ACTIVITY
from ..backend import BackendError


@dataclass(frozen=True)
class RunPlan:
    """The static (trial-independent) description of one scenario run.

    Attributes:
        label: the payload label ("scenario1", "scenario1_repeat", ...).
        strategy: the decomposition name of the partition.
        style / policy: the cell's fill style and acquisition policy.
        active_ops: per-worker ordered stroke tuples, non-empty workers
            only, in worker order — exactly what the reference runner
            hands each ``paint_worker``.
        sorted_colors: the program's colors sorted by code, the order
            the reference runner creates implement resources in.
        path: ``"soa"`` or ``"replay"`` (shared implements).
        counts: per-worker stroke counts.
        comp / speed / var: per-(worker, stroke) complexity, implement
            speed factor, and implement variability, padded to the
            widest worker (padding is never read).
        colors: per-(worker, stroke) implement index into
            ``sorted_colors``, padded the same way.
        correct: whether the uncontested cells reproduce the
            target; with no contested cell this is the run's verdict.
        last_w / last_k / last_ok: one row per contested cell
            whose target is not blank, one column per owning worker:
            the worker, the index of its last stroke on the cell, and
            whether that stroke's color is the target's.  Rows with
            fewer owners repeat their first entry.  ``None`` when no
            cell is contested.
    """

    label: str
    strategy: str
    style: FillStyle
    policy: AcquirePolicy
    active_ops: Tuple[Tuple[PaintOp, ...], ...]
    sorted_colors: Tuple[Color, ...]
    path: str
    counts: np.ndarray
    comp: np.ndarray
    speed: np.ndarray
    var: np.ndarray
    colors: np.ndarray
    correct: bool
    last_w: Optional[np.ndarray] = None
    last_k: Optional[np.ndarray] = None
    last_ok: Optional[np.ndarray] = None

    @property
    def n_active(self) -> int:
        """Workers that actually color in this run."""
        return len(self.active_ops)


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

    A run qualifies when its workers' color sets are pairwise disjoint:
    no queueing, no handoffs — an implement only ever returns to the
    hand that held it.  Cells with several owners are allowed: which
    stroke lands last on them varies per trial, but painting never
    feeds back into timing, so the batch grades them after the fact
    (see :func:`_grading`).

    Raises:
        BackendError: if an implement can fault mid-stroke.  A fault
            draw would shift the RNG stream and insert repair timeouts,
            which neither path models; the cell kit never breaks, so
            this guards against a kit change rather than a cell.
    """
    for ops in active_ops:
        for op in ops:
            if kit.implement_for(op.color).break_prob > 0:
                raise BackendError(
                    f"vector engine cannot model {op.color.name} "
                    f"implement faults")
    seen: set = set()
    for ops in active_ops:
        colors = {op.color for op in ops}
        if colors & seen:
            return False
        seen |= colors
    return True


def _grading(active_ops: Tuple[Tuple[PaintOp, ...], ...],
             target: np.ndarray
             ) -> Tuple[bool, Optional[np.ndarray], Optional[np.ndarray],
                        Optional[np.ndarray]]:
    """Split a run's grading into its fixed and per-trial parts.

    Each worker paints its own strokes in order, so a cell with one
    owner always ends up in that owner's last color: those cells fold
    into one trial-independent verdict.  A contested cell ends up in
    the color of whichever owner's last stroke lands last, which the
    batch decides per trial; contested cells the target leaves blank
    are skipped, as ``ignore_blank_target=True`` grading does.

    Returns:
        ``(correct, last_w, last_k, last_ok)`` as :class:`RunPlan`
        documents them.
    """
    codes = np.zeros(target.shape, dtype=np.int8)
    last: Dict[Tuple[int, int], Dict[int, int]] = {}
    for w, ops in enumerate(active_ops):
        for k, op in enumerate(ops):
            codes[op.cell] = int(op.color)
            last.setdefault(op.cell, {})[w] = k
    fixed = target.copy()
    rows: List[List[Tuple[int, int, bool]]] = []
    for cell, owners in last.items():
        if len(owners) < 2 or target[cell] == 0:
            continue
        fixed[cell] = 0
        rows.append([(w, k, int(active_ops[w][k].color) == target[cell])
                     for w, k in owners.items()])
    correct = codes_match(codes, fixed)
    if not rows:
        return correct, None, None, None
    width = max(len(row) for row in rows)
    table = np.array([row + row[:1] * (width - len(row)) for row in rows],
                     dtype=np.int64)
    return correct, table[..., 0], table[..., 1], table[..., 2] == 1


def _read_only(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """``array`` with writes refused, so a shared plan cannot change."""
    if array is not None:
        array.setflags(write=False)
    return array


def _plan_run(program: PaintProgram, partition: Partition, label: str,
              style: FillStyle, policy: AcquirePolicy, kit: ImplementKit,
              target: np.ndarray) -> RunPlan:
    """Build one RunPlan from a compiled program and its partition."""
    active_ops = tuple(tuple(ops) for ops in partition.assignments if ops)
    sorted_colors = tuple(sorted({op.color for op in program.ops}, key=int))
    path = "soa" if _soa_eligible(active_ops, kit) else "replay"
    index = {color: r for r, color in enumerate(sorted_colors)}
    counts = np.array([len(ops) for ops in active_ops], dtype=np.int64)
    width = int(counts.max())
    comp = np.ones((len(active_ops), width), dtype=np.float64)
    speed = np.ones((len(active_ops), width), dtype=np.float64)
    var = np.zeros((len(active_ops), width), dtype=np.float64)
    colors = np.zeros((len(active_ops), width), dtype=np.int64)
    for w, ops in enumerate(active_ops):
        for k, op in enumerate(ops):
            implement: ImplementModel = kit.implement_for(op.color)
            comp[w, k] = op.complexity
            speed[w, k] = implement.speed_factor
            var[w, k] = implement.variability
            colors[w, k] = index[op.color]
    correct, last_w, last_k, last_ok = _grading(active_ops, target)
    return RunPlan(label=label, strategy=partition.strategy, style=style,
                   policy=policy, active_ops=active_ops,
                   sorted_colors=sorted_colors, path=path,
                   counts=_read_only(counts), comp=_read_only(comp),
                   speed=_read_only(speed), var=_read_only(var),
                   colors=_read_only(colors), correct=correct,
                   last_w=_read_only(last_w), last_k=_read_only(last_k),
                   last_ok=_read_only(last_ok))


#: Cell plans kept in memory by :func:`build_cell_plan`.
PLAN_MEMO_SIZE = 128


def build_cell_plan(cell: Mapping[str, Any]) -> CellPlan:
    """Compile a cell key-dict into its static vector plan.

    ACTIVITY cells expand to the reference executor's exact run list —
    scenario 1, its repeat, then scenarios 2-4, all at the flag's
    default raster size (``run_core_activity`` never overrides it);
    single-scenario cells honor the cell's rows/cols override.
    Equal cells return the same read-only plan (see the module
    docstring).
    """
    return _plan_for_key(canonical_json(cell))


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _plan_for_key(key: str) -> CellPlan:
    """Build the plan of the cell whose canonical key dict is ``key``."""
    cell = json.loads(key)
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
    return CellPlan(cell=MappingProxyType(cell), spec=spec, kit=kit,
                    runs=tuple(runs))
