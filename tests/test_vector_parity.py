"""Metric-identity property tests: vector backend == reference engine.

The backend contract (``docs/backends.md``, :mod:`repro.sim.backend`)
promises that for any cell both engines can run, every per-trial metric
is **bit-identical** — not approximately equal — because the vector
engine consumes the very same RNG stream the reference event loop
does.  These tests pin that promise across the whole flag catalog,
every scenario, the full core activity, and randomized grids of team
sizes / copies / policies / styles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.student import FillStyle
from repro.flags import available_flags
from repro.schedule import AcquirePolicy
from repro.sim.vector import build_cell_plan, run_vector_cell
from repro.sim.vector.soa import _last_writers_match
from repro.sweep.executor import run_trial
from repro.sweep.spec import ACTIVITY, SweepCell

METRICS = ("label", "strategy", "n_workers", "true_makespan",
           "measured_time", "correct")


def _tasks(cell: SweepCell, *, seed: int, n_trials: int):
    return [
        {"cell": cell.key_dict(), "cell_key": cell.key(), "seed": seed,
         "n_trials": n_trials, "trial": t, "observe": False}
        for t in range(n_trials)
    ]


def assert_cell_parity(cell: SweepCell, *, seed: int, n_trials: int):
    """Every trial's every run must match the reference engine exactly."""
    tasks = _tasks(cell, seed=seed, n_trials=n_trials)
    vector = run_vector_cell(
        [dict(task, backend="vector") for task in tasks])
    for task, vec in zip(tasks, vector):
        ref = run_trial(task)
        assert vec["trial"] == ref["trial"]
        assert list(vec["runs"]) == list(ref["runs"])
        for label, ref_run in ref["runs"].items():
            vec_run = vec["runs"][label]
            for metric in METRICS:
                assert vec_run[metric] == ref_run[metric], (
                    f"{cell.key()} trial {task['trial']} run {label}: "
                    f"{metric} diverged "
                    f"({vec_run[metric]!r} != {ref_run[metric]!r})")
            assert "trace" not in vec_run  # metric-only payloads


@pytest.mark.parametrize("flag", sorted(available_flags()))
@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
def test_catalog_scenario_parity(flag, scenario):
    """Bitwise parity for every flag x scenario in the catalog."""
    cell = SweepCell(flag=flag, scenario=scenario, team_size=6,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE, rows=6, cols=8)
    assert_cell_parity(cell, seed=11, n_trials=2)


@pytest.mark.parametrize("flag", ["mauritius", "japan", "canada"])
def test_activity_parity(flag):
    """The five-run core activity stays aligned run to run.

    Activity sequencing is the hardest case for the vector engine: one
    RNG stream spans five runs that may alternate between the batched
    and replay paths, so any draw-count slip in an early run shows up
    as divergence in a later one.
    """
    cell = SweepCell(flag=flag, scenario=ACTIVITY, team_size=6,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE)
    assert_cell_parity(cell, seed=7, n_trials=2)


@pytest.mark.parametrize("flag,rows,cols", [("jordan", 6, 8),
                                             ("canada", None, None)])
def test_multi_owner_parity_where_correct_varies(flag, rows, cols):
    """Layered scenario-2 runs: which stroke lands last varies per trial.

    Two workers paint the same cells with disjoint colors, so the batch
    grades those cells per trial.  The batch must hold both verdicts,
    or the per-trial grading is not being exercised at all.
    """
    cell = SweepCell(flag=flag, scenario=2, team_size=6,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE, rows=rows, cols=cols)
    assert build_cell_plan(cell.key_dict()).runs[0].last_w is not None
    assert_cell_parity(cell, seed=11, n_trials=32)
    vector = run_vector_cell(
        [dict(task, backend="vector")
         for task in _tasks(cell, seed=11, n_trials=32)])
    verdicts = {v["runs"]["scenario2"]["correct"] for v in vector}
    assert verdicts == {True, False}


def _run_path(flag: str, scenario: int):
    cell = SweepCell(flag=flag, scenario=scenario, team_size=6,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE)
    return build_cell_plan(cell.key_dict()).runs[0]


@pytest.mark.parametrize("flag,scenario", [("japan", 2), ("japan", 3),
                                           ("canada", 2), ("jordan", 2)])
def test_multi_owner_disjoint_colors_take_soa(flag, scenario):
    """Contested cells alone no longer send a run to replay."""
    run = _run_path(flag, scenario)
    assert run.path == "soa"
    assert run.last_w is not None


@pytest.mark.parametrize("flag,scenario",
                         [("canada", 3)]
                         + [(flag, 4) for flag in sorted(available_flags())])
def test_shared_implement_runs_stay_on_replay(flag, scenario):
    """Runs whose workers share an implement still replay per trial."""
    assert _run_path(flag, scenario).path == "replay"


def test_last_writer_tie_goes_to_later_dispatch():
    """Equal end times: the later-dispatched stroke paints last.

    The heap breaks a time tie by sequence number, i.e. by dispatch
    order.  Sampled durations never tie, so bit-parity cannot pin this.
    """
    end = np.array([[[5.0], [5.0]]])          # 1 trial, 2 workers, 1 stroke
    last_w = np.array([[0, 1]])               # one cell, owned by both
    last_k = np.array([[0, 0]])
    last_ok = np.array([[False, True]])       # worker 1 paints the target
    later_1 = np.array([[[0], [1]]], dtype=np.int32)
    later_0 = np.array([[[1], [0]]], dtype=np.int32)
    assert _last_writers_match(end, later_1, last_w, last_k,
                               last_ok).tolist() == [True]
    assert _last_writers_match(end, later_0, last_w, last_k,
                               last_ok).tolist() == [False]
    # Without a tie the later end time wins, whatever the dispatch order.
    end = np.array([[[5.0], [4.0]]])
    assert _last_writers_match(end, later_1, last_w, last_k,
                               last_ok).tolist() == [False]


def test_randomized_configuration_parity():
    """Seeded random grids: sizes, copies, policies, styles, seeds."""
    rng = np.random.default_rng(2026)
    flags = sorted(available_flags())
    policies = list(AcquirePolicy)
    styles = list(FillStyle)
    for _ in range(12):
        cell = SweepCell(
            flag=flags[rng.integers(len(flags))],
            scenario=int(rng.integers(1, 5)),
            team_size=int(rng.integers(6, 9)),
            policy=policies[rng.integers(len(policies))],
            style=styles[rng.integers(len(styles))],
            copies=int(rng.integers(1, 4)),
            rows=6, cols=8,
        )
        assert_cell_parity(cell, seed=int(rng.integers(1 << 16)),
                           n_trials=2)


def test_partial_trial_subset_matches_full_batch():
    """Any subset of a batch's trials computes the same bytes.

    The fabric may lease a cell more than once and serve answers one
    task at a time; trial t's stream depends only on (seed, cell key,
    t), never on which other trials share the batch.
    """
    cell = SweepCell(flag="mauritius", scenario=3, team_size=6,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE, rows=6, cols=8)
    tasks = [dict(t, backend="vector")
             for t in _tasks(cell, seed=5, n_trials=4)]
    full = run_vector_cell(tasks)
    subset = run_vector_cell([tasks[3], tasks[1]])
    assert subset[0] == full[3]
    assert subset[1] == full[1]
