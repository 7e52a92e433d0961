"""The structure-of-arrays batch path: all trials of a run at once.

A contention-free run (see :func:`repro.sim.vector.plan._soa_eligible`)
reduces to pure arithmetic: every worker's strokes execute back to back,
each stroke consumes exactly one standard normal from the trial's RNG
stream, and the stream is shared between workers *in event-dispatch
order* — the worker whose next wakeup is earliest draws next.  This
module replays that arithmetic for a whole batch of trials as numpy
arrays of shape ``(trials, workers, strokes)``.

Painting never feeds back into timing, so a cell two workers paint
(a layered flag split across workers) changes nothing above: the batch
keeps each stroke's end time and dispatch index, and afterwards grades
each such cell by the stroke that lands last (:func:`_last_writers_match`).
The per-stroke parameters (:func:`stroke_params`) and that grading are
shared with the contention kernel (:mod:`repro.sim.vector.contend`),
whose dispatch order is not fixed in advance but whose strokes are.

Bit-identity with the reference engine is load-bearing (it is pinned by
a tier-1 property test across the full catalog), so every floating-point
expression here mirrors the scalar model's operation order exactly:

- ``Generator.standard_normal(n)`` produces the same values and stream
  state as ``n`` scalar draws, so one batched draw per trial covers all
  of a run's lognormal and timer noise;
- ``Generator.lognormal(m, s)`` equals ``math.exp(m + s*z)`` on the
  same stream — but numpy's SIMD ``np.exp`` is *not* bit-identical to
  the libm ``math.exp`` the scalar path uses, so every exponential here
  goes through :func:`_libm_exp` (elementwise libm);
- likewise ``np.hypot`` is not bit-identical to Python's own
  ``math.hypot``, so sigmas go through :func:`_math_hypot`;
- elementwise float64 ``+ - * /`` and ``np.cumsum``
  (a sequential left fold, unlike pairwise ``np.sum``) match their
  scalar counterparts bit for bit, provided the association order of
  each expression is preserved.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...agents.team import Team
from .plan import RunPlan


def _libm_exp(a: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp`` (libm), bit-identical to the scalar path.

    ``np.exp`` uses a vectorized polynomial that differs from libm in
    the last ulp for some inputs; those single-bit differences compound
    through makespans and break metric identity, so the batch path pays
    for scalar libm calls instead.
    """
    out = np.fromiter(map(math.exp, a.ravel().tolist()), np.float64, a.size)
    return out.reshape(a.shape)


def _math_hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot``, bit-identical to the scalar path.

    Python's ``math.hypot`` uses its own algorithm, not libm's, and
    ``np.hypot`` (libm) differs from it in the last ulp for about one
    input in 150.  A one-ulp sigma shifts every stroke that student
    draws, so the batch pays for scalar calls here too.
    """
    a, b = np.broadcast_arrays(a, b)
    out = np.fromiter(map(math.hypot, a.ravel().tolist(), b.ravel().tolist()),
                      np.float64, a.size)
    return out.reshape(a.shape)


def _last_writers_match(end: np.ndarray, dispatch: np.ndarray,
                        last_w: np.ndarray, last_k: np.ndarray,
                        last_ok: np.ndarray) -> np.ndarray:
    """Per trial, whether every contested cell ends in its target color.

    The engine paints a stroke when its ``Timeout`` fires, and the heap
    resumes timeouts in ``(time, seq)`` order.  Each stroke's timeout is
    pushed right after its draw, so ``seq`` follows the dispatch index:
    the stroke that lands last on a cell is the one with the largest
    ``(end, dispatch)`` pair, a later dispatch winning an exact tie.

    Args:
        end / dispatch: ``(trials, workers, strokes)`` stroke end times
            and dispatch indices.
        last_w / last_k / last_ok: the plan's contested-cell table (see
            :class:`~repro.sim.vector.plan.RunPlan`).

    Returns:
        A bool array with one verdict per trial.
    """
    e = end[:, last_w, last_k]
    d = dispatch[:, last_w, last_k]
    latest = e == e.max(axis=2, keepdims=True)
    j = np.where(latest, d, -1).argmax(axis=2)
    return last_ok[np.arange(last_ok.shape[0]), j].all(axis=1)


def stroke_params(run: RunPlan, teams: Sequence[Team]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stroke's lognormal parameters, for a whole batch at once.

    A worker's k-th stroke of a run is drawn at experience
    ``lifetime0 + k`` and fatigue ``k`` whatever the dispatch order, so
    these are fixed before the first draw.

    Returns:
        ``(M, sig, loc)``, each ``(trials, workers, strokes)``: the
        mean stroke time, the noise sigma and the noise location, so a
        stroke with standard normal ``z`` lasts
        ``M * exp(loc + sig * z)`` exactly as ``stroke_time`` samples it.
    """
    B = len(teams)
    W = run.n_active

    # Per-(trial, worker) student statics, gathered once.
    base = np.empty((B, W))
    sigp = np.empty((B, W))
    wpen = np.empty((B, W))
    wtau = np.empty((B, W))
    frate = np.empty((B, W))
    life0 = np.empty((B, W))
    for b, team in enumerate(teams):
        for w, student in enumerate(team.colorers(W)):
            p = student.profile
            base[b, w] = p.base_cell_time
            sigp[b, w] = p.sigma
            wpen[b, w] = p.warmup_penalty
            wtau[b, w] = p.warmup_tau
            frate[b, w] = p.fatigue_rate
            life0[b, w] = student.lifetime_cells

    # Mean stroke times M[b, w, k]: the scalar model's exact chain
    #   ((((base * speed) * style) * warmup) * fatigue) * complexity
    # with warmup = 1 + penalty * exp(-(lifetime0 + k) / tau) and
    # fatigue = 1 + rate * k  (k = strokes already done this scenario).
    k_idx = np.arange(run.comp.shape[1], dtype=np.float64)
    expo = -(life0[:, :, None] + k_idx[None, None, :]) / wtau[:, :, None]
    warm = 1.0 + wpen[:, :, None] * _libm_exp(expo)
    fat = 1.0 + frate[:, :, None] * k_idx[None, None, :]
    M = base[:, :, None] * run.speed[None, :, :]
    M = M * run.style.time_factor
    M = M * warm
    M = M * fat
    M = M * run.comp[None, :, :]

    # Lognormal noise parameters: sigma = hypot(student, implement),
    # location = -0.5 * sigma * sigma (scalar association order).  The
    # hypot runs once per (trial, worker, distinct implement variability).
    var, which = np.unique(run.var, return_inverse=True)
    per_var = _math_hypot(sigp[:, :, None], var[None, None, :])
    which = np.broadcast_to(which.reshape((1,) + run.var.shape), M.shape)
    sig = np.take_along_axis(per_var, which, axis=2)
    loc = (-0.5 * sig) * sig
    return M, sig, loc


def advance_experience(run: RunPlan, teams: Sequence[Team]) -> None:
    """Advance every colorer's experience the way ``stroke_time`` does."""
    counts = run.counts.tolist()
    for team in teams:
        for c, student in zip(counts, team.colorers(run.n_active)):
            student.lifetime_cells += c
            student.scenario_cells += c


def run_soa_batch(run: RunPlan, teams: Sequence[Team],
                  rngs: Sequence[np.random.Generator]) -> List[Dict[str, object]]:
    """Execute one contention-free run for every trial simultaneously.

    Args:
        run: a plan with ``path == "soa"``.
        teams: one team per trial, already ``begin_scenario()``-reset.
        rngs: the matching per-trial generators, positioned exactly
            where the reference engine's stream would be at run start.

    Returns:
        One metric payload dict per trial, in trial order.  Each team's
        students have their experience counters advanced exactly as a
        reference run would leave them.
    """
    B = len(teams)
    W = run.n_active
    counts = run.counts
    N = int(counts.sum())
    M, sig, loc = stroke_params(run, teams)

    # One batched draw per trial: N stroke normals + 2 timer normals,
    # identical values and stream state to N+2 scalar draws.
    Z = np.empty((B, N + 2))
    for b, rng in enumerate(rngs):
        Z[b] = rng.standard_normal(N + 2)

    correct = np.full(B, run.correct)
    if W == 1:
        arg = loc[:, 0, :] + sig[:, 0, :] * Z[:, :N]
        d = M[:, 0, :] * _libm_exp(arg)
        makespan = np.cumsum(d, axis=1)[:, -1]
    else:
        # Replay the engine's dispatch order: each pending worker has
        # one wakeup in the heap; the earliest wakeup draws the next
        # normal.  At t=0 all wakeups tie and break by insertion order
        # = worker index, which argmin's first-index tie rule matches;
        # later exact-time ties have measure zero under continuous
        # lognormal durations.
        nd = np.zeros((B, W))        # next drawing-dispatch time
        kk = np.zeros((B, W), dtype=np.int64)
        finish = np.zeros((B, W))
        rows = np.arange(B)
        graded = run.last_w is not None
        if graded:
            # Contested cells are graded from each stroke's end time and
            # dispatch index once the merge is done.
            end = np.empty(M.shape)
            dispatch = np.empty(M.shape, dtype=np.int32)
        for i in range(N):
            w = np.argmin(nd, axis=1)
            k = kk[rows, w]
            arg = loc[rows, w, k] + sig[rows, w, k] * Z[:, i]
            d = M[rows, w, k] * _libm_exp(arg)
            t = nd[rows, w] + d
            finish[rows, w] = t
            if graded:
                end[rows, w, k] = t
                dispatch[rows, w, k] = i
            done = k + 1
            kk[rows, w] = done
            nd[rows, w] = np.where(done == counts[w], np.inf, t)
        makespan = finish.max(axis=1)
        if graded:
            correct = correct & _last_writers_match(
                end, dispatch, run.last_w, run.last_k, run.last_ok)

    # The timer student: measured = max(0, true + (start - stop) jitter),
    # where normal(0, s) on this stream is exactly 0.0 + s*z.
    rs = np.array([team.timer.reaction_sigma for team in teams])
    jitter = (0.0 + rs * Z[:, N]) - (0.0 + rs * Z[:, N + 1])
    measured = np.maximum(0.0, makespan + jitter)

    advance_experience(run, teams)

    return [
        {
            "label": run.label,
            "strategy": run.strategy,
            "n_workers": W,
            "true_makespan": float(makespan[b]),
            "measured_time": float(measured[b]),
            "correct": bool(correct[b]),
        }
        for b in range(B)
    ]
