"""The structure-of-arrays vector engine behind ``--backend vector``.

Advances every trial of a sweep cell simultaneously while producing
per-trial metrics bit-identical to the reference event-loop engine —
the contract and selection rules live in :mod:`repro.sim.backend`, the
worked guide in ``docs/backends.md``.

A run whose workers hold disjoint color sets is advanced for the whole
batch as array arithmetic (:mod:`~repro.sim.vector.soa`), including
layered runs where two workers paint the same cell (graded per trial
by which stroke lands last).  A run whose workers share an implement
goes to the contention kernel (:mod:`~repro.sim.vector.contend`),
which steps each trial's FIFO queues and handoffs on flat state, with
stroke parameters and grading computed for the batch at once.  No
vector run touches the reference :class:`~repro.sim.engine.Simulator`.

Public surface:

- :func:`run_vector_cell` — all trials of one cell as one batch (a
  single executor task is a batch of one);
- :func:`build_cell_plan` / :class:`CellPlan` / :class:`RunPlan` — the
  static per-cell compilation the batch paths share.
"""

from .engine import run_vector_cell
from .plan import CellPlan, RunPlan, build_cell_plan

__all__ = [
    "CellPlan",
    "RunPlan",
    "build_cell_plan",
    "run_vector_cell",
]
