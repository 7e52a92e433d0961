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

import math

import numpy as np
import pytest

from repro.agents.implements import CRAYON, THICK_MARKER, ImplementModel
from repro.agents.student import (FillStyle, StudentProcessor,
                                  StudentProfile, TimerStudent)
from repro.agents.team import ImplementKit, Team
from repro.flags import available_flags
from repro.flags.decompose import Partition
from repro.flags.spec import PaintOp, PaintProgram
from repro.grid.palette import Color
from repro.schedule import AcquirePolicy
from repro.schedule.runner import run_partition
from repro.sim.backend import BackendError
from repro.sim.vector import build_cell_plan, run_vector_cell
from repro.sim.vector.contend import run_contended_batch
from repro.sim.vector.plan import _plan_run, _soa_eligible
from repro.sim.vector.soa import _last_writers_match, run_soa_batch
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


# -- shared-implement runs at the benchmark's shape ------------------------
#
# The catalog tests above reach scenario 4 only at team size 6 on a 6x8
# raster with two trials per batch.  The benchmark grid runs default
# rasters (canada s4: 334 strokes per trial) at team sizes 4 and 6 in
# large batches, where queues, grants and handoffs interleave far more.

CONTENDED_FLAGS = ("poland", "mauritius", "italy", "germany", "japan",
                   "canada")


@pytest.mark.parametrize("team_size", [4, 6])
@pytest.mark.parametrize("flag,scenario",
                         [(flag, 4) for flag in CONTENDED_FLAGS]
                         + [("canada", 3)])
def test_contended_default_raster_parity(flag, scenario, team_size):
    """Every shared-implement cell of the benchmark grid, 16 trials."""
    cell = SweepCell(flag=flag, scenario=scenario, team_size=team_size,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE)
    assert build_cell_plan(cell.key_dict()).runs[0].path == "replay"
    assert_cell_parity(cell, seed=23, n_trials=16)


@pytest.mark.parametrize("copies,policy,style", [
    (2, AcquirePolicy.HOLD_COLOR_RUN, FillStyle.SCRIBBLE),
    (3, AcquirePolicy.HOLD_COLOR_RUN, FillStyle.FULL),
    (1, AcquirePolicy.HOLD_COLOR_RUN, FillStyle.MINIMAL),
    (1, AcquirePolicy.RELEASE_PER_STROKE, FillStyle.SCRIBBLE),
    (2, AcquirePolicy.RELEASE_PER_STROKE, FillStyle.MINIMAL),
    (3, AcquirePolicy.RELEASE_PER_STROKE, FillStyle.FULL),
])
@pytest.mark.parametrize("flag", ["mauritius", "japan"])
def test_contended_copies_policy_style_parity(flag, copies, policy, style):
    """Duplicate implements, per-stroke release, and every fill style."""
    cell = SweepCell(flag=flag, scenario=4, team_size=4, policy=policy,
                     style=style, copies=copies)
    assert_cell_parity(cell, seed=29, n_trials=8)


@pytest.mark.parametrize("policy", list(AcquirePolicy))
def test_contended_multi_owner_jordan_parity(policy):
    """Jordan scenario 3 shares implements *and* overpaints cells."""
    cell = SweepCell(flag="jordan", scenario=3, team_size=6, policy=policy,
                     style=FillStyle.SCRIBBLE)
    run = build_cell_plan(cell.key_dict()).runs[0]
    assert run.path == "replay"
    assert_cell_parity(cell, seed=31, n_trials=8)


def test_team4_activity_mixes_paths_parity():
    """A team-4 activity alternates batched and contended runs."""
    cell = SweepCell(flag="canada", scenario=ACTIVITY, team_size=4,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE)
    paths = [run.path for run in build_cell_plan(cell.key_dict()).runs]
    assert {"soa", "replay"} <= set(paths)
    assert_cell_parity(cell, seed=37, n_trials=4)


def test_contended_trial_subset_matches_full_batch():
    """A leased subset of a contended cell computes the full batch's bytes."""
    cell = SweepCell(flag="japan", scenario=4, team_size=4,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE)
    tasks = [dict(t, backend="vector")
             for t in _tasks(cell, seed=41, n_trials=8)]
    full = run_vector_cell(tasks)
    subset = run_vector_cell([tasks[6], tasks[1], tasks[4]])
    assert subset == [full[6], full[1], full[4]]


# -- tie rules sampled durations never reach --------------------------------
#
# Lognormal stroke times never tie, so bit-parity over sampled runs never
# exercises what the kernel does when two events share an instant.  These
# runs use steady students and a steady implement (no noise, no warmup, no
# fatigue), so every stroke lasts exactly its complexity and ties happen on
# purpose.  Each run is checked against the reference engine and against
# a hand-derived makespan that only the reference's rule produces.

STEADY = ImplementModel("steady", speed_factor=1.0)
HANDOFF = 2.0   # base seconds; each handoff draws uniform(0.7, 1.3) of it


def _steady_run(strokes, *, copies=1,
                policy=AcquirePolicy.HOLD_COLOR_RUN, seed=0):
    """Run per-worker ``(color, seconds)`` lists on both engines.

    Returns ``(reference, kernel)`` metric tuples
    ``(true_makespan, measured_time, correct)``.
    """
    ops, assignments = [], []
    for w, worker in enumerate(strokes):
        mine = tuple(PaintOp(cell=(w, k), color=color, layer="base",
                             seq=len(ops) + k, complexity=seconds)
                     for k, (color, seconds) in enumerate(worker))
        ops.extend(mine)
        assignments.append(mine)
    rows, cols = len(strokes), max(len(worker) for worker in strokes)
    program = PaintProgram(flag="ties", rows=rows, cols=cols,
                           ops=tuple(ops))
    partition = Partition(program=program, assignments=tuple(assignments),
                          strategy="by_hand")
    target = np.zeros((rows, cols), dtype=np.int8)
    colors = sorted({op.color for op in ops}, key=int)
    kit = ImplementKit.uniform(colors, STEADY, copies=copies)

    def team():
        profile = StudentProfile(base_cell_time=1.0, sigma=0.0,
                                 warmup_penalty=0.0, fatigue_rate=0.0,
                                 handoff_time=HANDOFF)
        return Team("steady", [StudentProcessor(f"P{w}", profile=profile)
                               for w in range(len(strokes))],
                    TimerStudent("timer"), kit)

    ref = run_partition(partition, team(), np.random.default_rng(seed),
                        policy=policy, target=target)
    plan = _plan_run(program, partition, "ties", FillStyle.SCRIBBLE, policy,
                     kit, target)
    assert plan.path == "replay"
    vec, = run_contended_batch(plan, [team()], [np.random.default_rng(seed)])
    return ((ref.true_makespan, ref.measured_time, ref.correct),
            (vec["true_makespan"], vec["measured_time"], vec["correct"]))


def _handoff_after(n_normals, seed=0):
    """The handoff delay drawn after ``n_normals`` stroke normals."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(n_normals)
    return HANDOFF * rng.uniform(0.7, 1.3)


def test_grant_wakes_after_timeout_due_at_same_time():
    """A waiter granted at t wakes after a timeout already due at t.

    P0 holds red until t=2 while P1 queues for it; P2's first stroke
    also ends at t=2.  The grant takes a fresh seq, so P2 draws its
    second stroke's normal before P1 draws its handoff uniform.
    """
    ref, vec = _steady_run([[(Color.RED, 2.0)],
                            [(Color.RED, 1.0)],
                            [(Color.GREEN, 2.0), (Color.GREEN, 1.0)]])
    assert vec == ref
    assert vec[0] == (2.0 + _handoff_after(3)) + 1.0


def test_acquire_during_handoff_sees_previous_holder():
    """``last_holder`` changes only when the handoff delay ends.

    With two red markers, P1 takes red from P0 at t=1.5 and hands it
    over until t=1.5+h.  P0 takes the second red marker back at t=2,
    inside that delay, so it still reads itself as last holder and
    pays no handoff: exactly one uniform is drawn.
    """
    ref, vec = _steady_run([[(Color.RED, 1.0), (Color.BLUE, 1.0),
                             (Color.RED, 1.0)],
                            [(Color.GREEN, 1.5), (Color.RED, 1.0)]],
                           copies=2)
    assert vec == ref
    h = _handoff_after(3)
    assert 1.5 + h > 2.0
    assert vec[0] == (1.5 + h) + 1.0


def test_release_per_stroke_grants_waiter_before_own_reacquire():
    """A per-stroke release hands the marker to the queue head first.

    P0 paints two red cells, releasing after each; P1 queues for red at
    t=0.  At t=1 the release grants P1, and P0's own re-acquire parks
    behind it, so red changes hands twice.
    """
    ref, vec = _steady_run([[(Color.RED, 1.0), (Color.RED, 1.0)],
                            [(Color.RED, 1.0)]],
                           policy=AcquirePolicy.RELEASE_PER_STROKE)
    assert vec == ref
    rng = np.random.default_rng(0)
    rng.standard_normal()
    h1 = HANDOFF * rng.uniform(0.7, 1.3)
    rng.standard_normal()
    h2 = HANDOFF * rng.uniform(0.7, 1.3)
    assert vec[0] == (((1.0 + h1) + 1.0) + h2) + 1.0


def test_plan_refuses_implement_faults():
    """A kit whose implements can break has no vector path at all."""
    ops = ((PaintOp(cell=(0, 0), color=Color.RED, layer="base", seq=0),),)
    assert _soa_eligible(ops, ImplementKit.uniform([Color.RED], STEADY))
    with pytest.raises(BackendError, match="implement faults"):
        _soa_eligible(ops, ImplementKit.uniform([Color.RED], CRAYON))


def test_noise_sigma_is_pythons_hypot():
    """Sigma is ``math.hypot``, not ``np.hypot``: they differ in the last
    ulp for some inputs, and a one-ulp sigma shifts stroke durations.

    A lone worker paints one cell, so the makespan is that stroke's
    duration, at student sigma 0.1765 with a thick marker (variability
    0.10), one of the inputs where the two differ.  Longer runs mostly
    hide the shift: rounding into a larger running sum absorbs it.
    """
    assert np.hypot(0.1765, 0.10) != math.hypot(0.1765, 0.10)
    op = PaintOp(cell=(0, 0), color=Color.RED, layer="base", seq=0)
    program = PaintProgram(flag="dot", rows=1, cols=1, ops=(op,))
    partition = Partition(program=program, assignments=((op,),),
                          strategy="by_hand")
    kit = ImplementKit.uniform([Color.RED], THICK_MARKER)
    target = np.full((1, 1), int(Color.RED), dtype=np.int8)
    plan = _plan_run(program, partition, "dot", FillStyle.SCRIBBLE,
                     AcquirePolicy.HOLD_COLOR_RUN, kit, target)

    def team():
        profile = StudentProfile(sigma=0.1765)
        return Team("t", [StudentProcessor("P1", profile=profile)],
                    TimerStudent("timer"), kit)

    for seed in range(32):
        ref = run_partition(partition, team(), np.random.default_rng(seed),
                            target=target)
        vec, = run_soa_batch(plan, [team()], [np.random.default_rng(seed)])
        assert vec["true_makespan"] == ref.true_makespan, seed
