"""The vector backend builds each cell's plan once and shares it read-only.

A served vector ``/run`` or a fabric ``/task`` is a batch of one trial,
so :func:`repro.sim.vector.build_cell_plan` memoizes the plan per
canonical cell key.  A shared plan must not be writable: a kernel that
wrote into one would leak state from one batch into the next.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.student import FillStyle
from repro.schedule import AcquirePolicy
from repro.sim.vector import build_cell_plan, run_vector_cell
from repro.sim.vector import plan as plan_module
from repro.sweep.executor import make_task
from repro.sweep.spec import ACTIVITY, SweepCell


def canada_cell(scenario=3):
    return SweepCell(flag="canada", scenario=scenario, team_size=4,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE)


def test_two_batches_of_one_build_the_plan_once(monkeypatch):
    built = []
    plan_run = plan_module._plan_run
    monkeypatch.setattr(plan_module, "_plan_run",
                        lambda *a: built.append(a[2]) or plan_run(*a))
    plan_module._plan_for_key.cache_clear()
    cell = canada_cell(ACTIVITY)
    first = run_vector_cell([make_task(cell, seed=4, n_trials=2, trial=0,
                                       backend="vector")])
    second = run_vector_cell([make_task(cell, seed=4, n_trials=2, trial=1,
                                        backend="vector")])
    assert built == ["scenario1", "scenario1_repeat", "scenario2",
                     "scenario3", "scenario4"]
    both = run_vector_cell([make_task(cell, seed=4, n_trials=2, trial=t,
                                      backend="vector") for t in (0, 1)])
    assert first + second == both
    assert len(built) == 5


def test_equal_cells_share_one_plan():
    key = canada_cell().key_dict()
    reordered = dict(reversed(list(key.items())))
    assert build_cell_plan(key) is build_cell_plan(reordered)
    assert build_cell_plan(canada_cell(4).key_dict()) \
        is not build_cell_plan(key)


@pytest.mark.parametrize("scenario", [1, 3, 4])
def test_shared_plan_is_read_only(scenario):
    plan = build_cell_plan(canada_cell(scenario).key_dict())
    arrays = [getattr(run, name) for run in plan.runs
              for name in ("counts", "comp", "speed", "var", "colors",
                           "last_w", "last_k", "last_ok")]
    arrays = [a for a in arrays if a is not None]
    assert arrays
    for array in arrays:
        assert isinstance(array, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]
    with pytest.raises(TypeError):
        plan.cell["team_size"] = 6
