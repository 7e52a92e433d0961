"""The structure-of-arrays vector engine behind ``--backend vector``.

Advances every trial of a sweep cell simultaneously while producing
per-trial metrics bit-identical to the reference event-loop engine —
the contract and selection rules live in :mod:`repro.sim.backend`, the
worked guide in ``docs/backends.md``.

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
