"""The backend selection contract: names, dispatch, fallback, refusal.

Pins the rules documented in :mod:`repro.sim.backend` and
``docs/backends.md``: ``reference`` always works, explicit ``vector``
errors on cells it cannot express, ``auto`` falls back to the
reference engine with a logged reason, and the executor runs a task
only on the concrete engine it names.
"""

from __future__ import annotations

import logging

import pytest

from repro.agents.student import FillStyle
from repro.faults.plan import FaultPlan, ImplementFailure
from repro.grid.palette import Color
from repro.schedule import AcquirePolicy
from repro.sim.backend import (
    BACKEND_CHOICES,
    BackendError,
    resolve_backend,
    vector_unsupported_reason,
)
from repro.sweep.executor import make_task, run_cell_tasks, run_trial
from repro.sweep.spec import SweepCell


def _cell(**overrides) -> SweepCell:
    defaults = dict(flag="mauritius", scenario=3, team_size=6,
                    policy=AcquirePolicy.HOLD_COLOR_RUN,
                    style=FillStyle.SCRIBBLE, rows=6, cols=8)
    defaults.update(overrides)
    return SweepCell(**defaults)


def _fault_cell() -> SweepCell:
    plan = FaultPlan(faults=(ImplementFailure(at=5.0, color=Color.RED),))
    return _cell(fault_label="boom", fault_plan=plan)


def _task(cell: SweepCell, trial: int = 0, **kwargs) -> dict:
    return make_task(cell, seed=3, n_trials=2, trial=trial, **kwargs)


class TestNames:
    def test_choices_are_the_engines_plus_auto(self):
        assert BACKEND_CHOICES == ("reference", "vector", "auto")

    def test_dispatch_runs_each_engine(self):
        cell = _cell()
        [ref_run] = run_trial(_task(cell))["runs"].values()
        assert "trace" in ref_run
        vector_tasks = [_task(cell, t, backend="vector") for t in range(2)]
        batch = run_cell_tasks(vector_tasks)
        assert batch == [run_trial(task) for task in vector_tasks]
        [vec_run] = batch[0]["runs"].values()
        assert "trace" not in vec_run
        assert vec_run["measured_time"] == ref_run["measured_time"]

    def test_dispatch_rejects_auto(self):
        # Tasks must name a concrete engine; auto is resolved earlier.
        task = _task(_cell(), backend="auto")
        with pytest.raises(BackendError, match="unknown backend"):
            run_trial(task)
        with pytest.raises(BackendError, match="unknown backend"):
            run_cell_tasks([task])

    def test_dispatch_rejects_unknown(self):
        task = _task(_cell(), backend="warp")
        with pytest.raises(BackendError, match="unknown backend"):
            run_trial(task)
        with pytest.raises(BackendError, match="unknown backend"):
            run_cell_tasks([task])

    def test_resolve_rejects_unknown(self):
        with pytest.raises(BackendError):
            resolve_backend("warp", _cell().key_dict())


class TestResolution:
    def test_reference_always_resolves(self):
        assert resolve_backend("reference", _cell().key_dict()) \
            == "reference"
        assert resolve_backend("reference", _fault_cell().key_dict(),
                               observe=True) == "reference"

    def test_vector_resolves_on_clean_cell(self):
        assert resolve_backend("vector", _cell().key_dict()) == "vector"
        assert vector_unsupported_reason(_cell().key_dict()) is None

    def test_explicit_vector_refuses_fault_plan(self):
        with pytest.raises(BackendError, match="fault plan"):
            resolve_backend("vector", _fault_cell().key_dict())

    def test_explicit_vector_refuses_observer(self):
        with pytest.raises(BackendError, match="observer"):
            resolve_backend("vector", _cell().key_dict(), observe=True)

    def test_auto_picks_vector_when_supported(self):
        assert resolve_backend("auto", _cell().key_dict()) == "vector"


class TestAutoFallbackLogging:
    def test_fault_plan_falls_back_with_reason(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.sim.backend"):
            resolved = resolve_backend("auto", _fault_cell().key_dict())
        assert resolved == "reference"
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "repro.sim.backend"]
        assert any("falling back to reference" in m and "boom" in m
                   for m in messages), messages

    def test_observer_falls_back_with_reason(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.sim.backend"):
            resolved = resolve_backend("auto", _cell().key_dict(),
                                       observe=True)
        assert resolved == "reference"
        messages = [r.getMessage() for r in caplog.records
                    if r.name == "repro.sim.backend"]
        assert any("observer" in m for m in messages), messages

    def test_clean_auto_logs_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.sim.backend"):
            resolve_backend("auto", _cell().key_dict())
        assert not [r for r in caplog.records
                    if r.name == "repro.sim.backend"]
