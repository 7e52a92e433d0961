"""Parallel, cached experiment sweeps — the scaling layer.

Every table and figure of the paper aggregates over many independent
runs (teams x scenarios x trials x institutions).  This package is the
batch path those aggregations go through:

- :mod:`~repro.sweep.spec` — :class:`SweepSpec`, a declarative grid of
  configurations (flag, scenario or whole activity, team size, policy,
  style, duplicate implements, fault plan) with canonical cell keys.
- :mod:`~repro.sweep.seeding` — the one seed-derivation policy:
  per-trial streams spawned via ``numpy.random.SeedSequence``, never
  ``seed + t``, so trials are independent and batches never collide.
- :mod:`~repro.sweep.executor` — :func:`run_sweep`, a process-pool
  fan-out whose parallel runs are byte-identical to serial ones, and
  the one definition of a trial task (:func:`make_task`) and a cell's
  cache address (:func:`cell_address`).
- :mod:`~repro.sweep.cache` — a content-addressed on-disk result
  cache: warm re-runs of a benchmark or notebook recompute nothing.
- :mod:`~repro.sweep.results` — typed records and per-cell metric /
  observability roll-ups.

Quickstart::

    from repro.sweep import SweepSpec, run_sweep
    spec = SweepSpec(flags=("mauritius",), scenarios=(3, 4),
                     n_trials=8, seed=0)
    res = run_sweep(spec, workers=4, cache_dir=".sweep-cache")
    for cell in res.cells:
        print(cell.cell.describe(), f"{cell.median_time():.0f}s")
"""

from .cache import CacheError, ResultCache, content_address
from .executor import (
    cell_address,
    make_task,
    run_sweep,
    run_trial,
    validate_cells,
)
from .results import CellResult, RunRecord, SweepResult, TrialRecord
from .seeding import key_entropy, trial_rngs, trial_seed_sequences
from .spec import (
    ACTIVITY,
    SweepCell,
    SweepError,
    SweepSpec,
    cell_from_key_dict,
    fault_plan_from_dicts,
    fault_plan_to_dicts,
)

__all__ = [
    "ACTIVITY",
    "CacheError",
    "CellResult",
    "ResultCache",
    "RunRecord",
    "SweepCell",
    "SweepError",
    "SweepSpec",
    "SweepResult",
    "TrialRecord",
    "cell_address",
    "cell_from_key_dict",
    "content_address",
    "fault_plan_from_dicts",
    "fault_plan_to_dicts",
    "key_entropy",
    "make_task",
    "run_sweep",
    "run_trial",
    "trial_rngs",
    "trial_seed_sequences",
    "validate_cells",
]
