"""The vector backend's entry points: run a cell's trials as one batch.

This is the engine behind ``--backend vector``: it compiles the cell
once (:mod:`repro.sim.vector.plan`), derives every trial's RNG stream
from the standard seeding policy (:mod:`repro.sweep.seeding`), builds
the real per-trial teams, and then advances each scenario run for all
trials together — on the structure-of-arrays path when the run is
contention-free, on the stripped scalar replay path otherwise.  Either
way, each run consumes exactly the standard normals the reference
engine would (one per stroke plus two timer draws, plus any handoff /
wait draws on the replay path), so the stream stays aligned across a
mixed soa/replay run sequence and every per-trial metric is identical
to the reference engine's.

Payloads are metric-only — no ``"trace"`` key — which is why vector
results live under distinct cache addresses (see
:func:`repro.sweep.executor.cell_address`).
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ...agents.team import make_team
from ...sweep.seeding import trial_seed_sequences
from ..backend import BackendError, vector_unsupported_reason
from .plan import build_cell_plan
from .replay import run_replay_trial
from .soa import run_soa_batch


def run_vector_cell(tasks: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Execute every given trial task of one cell in a single batch.

    Args:
        tasks: executor task dicts (see
            :func:`repro.sweep.executor.make_task`) that must all name
            the same cell, seed, and trial count; the trial indices may
            be any subset of the batch.

    Returns:
        ``{"trial": t, "runs": {label: payload}}`` dicts in task order,
        with per-trial metrics bit-identical to the reference engine.

    Raises:
        BackendError: on an empty/mixed task list, or a cell the vector
            engine cannot express (fault plan, observer attached).
    """
    if not tasks:
        raise BackendError("run_vector_cell needs at least one task")
    first = tasks[0]
    cell = first["cell"]
    for task in tasks[1:]:
        if (task["cell"] != cell or task["seed"] != first["seed"]
                or task["n_trials"] != first["n_trials"]
                or task["cell_key"] != first["cell_key"]):
            raise BackendError(
                "run_vector_cell tasks must share one (cell, seed, "
                "n_trials) batch")
    observe = any(task.get("observe", False) for task in tasks)
    reason = vector_unsupported_reason(cell, observe=observe)
    if reason is not None:
        raise BackendError(
            f"vector backend cannot run cell {cell.get('flag')!r}/"
            f"scenario {cell.get('scenario')}: {reason}")

    plan = build_cell_plan(cell)
    sequences = trial_seed_sequences(first["seed"], first["n_trials"],
                                     cell_key=first["cell_key"])
    trials = [task["trial"] for task in tasks]
    rngs = [np.random.default_rng(sequences[t]) for t in trials]
    colors = list(plan.spec.colors_used())
    teams = [
        make_team(f"trial{t}", cell["team_size"], rng, colors=colors,
                  copies=cell["copies"])
        for t, rng in zip(trials, rngs)
    ]

    runs_by_trial: List[Dict[str, Dict[str, Any]]] = [{} for _ in trials]
    for run in plan.runs:
        for team in teams:
            team.begin_scenario()
        if run.path == "soa":
            payloads = run_soa_batch(run, teams, rngs)
        else:
            payloads = [run_replay_trial(run, team, rng)
                        for team, rng in zip(teams, rngs)]
        for b, payload in enumerate(payloads):
            runs_by_trial[b][run.label] = payload
    return [{"trial": t, "runs": runs_by_trial[b]}
            for b, t in enumerate(trials)]
