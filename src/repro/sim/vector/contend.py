"""The contention kernel: shared-implement runs, metrics only.

When workers share an implement, which worker waits, for how long, and
how many handoff draws the stream takes all depend on the sampled
durations, so such a run cannot be folded into batched arithmetic the
way :mod:`repro.sim.vector.soa` folds a contention-free one.  This
kernel instead steps each trial's events itself, on flat per-trial
state, mirroring :class:`~repro.sim.engine.Simulator` running
:func:`~repro.schedule.runner.paint_worker` over
:func:`~repro.schedule.runner.paint_stroke` for a fault-free run:

- per worker: its one pending wakeup ``(time, seq)`` on a heap, its
  stroke index and the implement it holds;
- per implement: its holder count, its FIFO queue of waiters and its
  ``last_holder``.

What is batched is everything that does not depend on the dispatch
order: every stroke's mean and noise parameters (the SoA path's
:func:`~repro.sim.vector.soa.stroke_params`), and the grading of cells
two workers paint (:func:`~repro.sim.vector.soa._last_writers_match`).

Fidelity notes — each rule is the reference kernel's:

- the heap orders by ``(time, seq)``; a seq is taken at every heap push
  and every queue append.  The reference also takes one per logged
  event; those shift absolute seqs but never their relative order,
  and only relative order is compared;
- a release grants queued waiters FIFO by request seq, up to the
  implement's copies, waking each at the current time with a fresh
  seq; an acquire parks whenever the queue is non-empty, even with a
  copy free;
- a handoff delay is paid only when ``last_holder`` names another
  worker, and ``last_holder`` is written when that delay ends;
- draws come from each trial's stream in event order: a stroke's
  normal, a handoff's ``uniform(0.7, 1.3)`` (through the student's own
  :meth:`~repro.agents.student.StudentProcessor.handoff_time`), and the
  timer's two normals once the run is over;
- the makespan is the time of the last dispatch.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Sequence

import numpy as np

from ...agents.team import Team
from ...schedule.runner import AcquirePolicy
from .plan import RunPlan
from .soa import _last_writers_match, advance_experience, stroke_params

# What a worker's heap entry wakes it for.  A process start behaves like
# the end of a stroke that painted nothing: the worker begins its next op.
_NEXT_OP = 0     # put the implement down if held, then take the next op's
_SAME = 1        # the next op uses the implement in hand: draw at once
_GRANTED = 2     # a queued acquire was granted
_HANDED = 3      # a handoff delay ended


def run_contended_batch(run: RunPlan, teams: Sequence[Team],
                        rngs: Sequence[np.random.Generator]
                        ) -> List[Dict[str, object]]:
    """Execute one shared-implement run for every trial of a batch.

    Args:
        run: a plan with ``path == "replay"``.
        teams: one team per trial, already ``begin_scenario()``-reset.
        rngs: the matching per-trial generators, positioned exactly
            where the reference engine's stream would be at run start.

    Returns:
        One metric payload dict per trial, in trial order, each
        bit-identical to the reference engine's; the teams' students
        have their experience advanced as a reference run leaves it.
    """
    B = len(teams)
    W = run.n_active
    # Strokes are numbered worker by worker: worker w owns the flat
    # indices first[w] .. first[w] + counts[w] - 1.
    wi = np.repeat(np.arange(W), run.counts)
    first = np.concatenate(([0], np.cumsum(run.counts)[:-1]))
    ki = np.arange(len(wi)) - first[wi]
    stop = (first + run.counts).tolist()
    first = first.tolist()
    color = run.colors[wi, ki].tolist()
    hold = run.policy is AcquirePolicy.HOLD_COLOR_RUN
    after = [_SAME if hold and j + 1 < stop[w] and color[j + 1] == color[j]
             else _NEXT_OP for j, w in enumerate(wi.tolist())]
    M, sig, loc = (a[:, wi, ki] for a in stroke_params(run, teams))
    n_colors = len(run.sorted_colors)
    graded = run.last_w is not None
    if graded:
        # Each stroke's end time and timeout seq, for last-writer grading.
        ends = np.zeros((B,) + run.comp.shape)
        seqs = np.zeros(ends.shape, dtype=np.int64)
    makespans: List[float] = []
    measured: List[float] = []
    exp = math.exp
    for b, (team, rng) in enumerate(zip(teams, rngs)):
        copies = team.kit.copies
        handoff = [student.handoff_time for student in team.colorers(W)]
        mean = M[b].tolist()
        noise_sig = sig[b].tolist()
        noise_loc = loc[b].tolist()
        if graded:
            end = [0.0] * len(wi)
            order = [0] * len(wi)
        normal = rng.standard_normal
        # Every worker starts at t=0 in worker order: seqs 0..W-1.
        heap = [(0.0, w, w, _NEXT_OP) for w in range(W)]
        seq = W
        pos = list(first)
        held = [-1] * W
        holders = [0] * n_colors
        queues: List[List[int]] = [[] for _ in range(n_colors)]
        last = [-1] * n_colors
        now = 0.0
        while heap:
            now, _, w, kind = heappop(heap)
            if kind == _HANDED:
                last[held[w]] = w
            elif kind != _SAME:
                if kind == _NEXT_OP:
                    c = held[w]
                    if c >= 0:
                        # Put the implement down and hand it to the
                        # head of its queue.
                        held[w] = -1
                        holders[c] -= 1
                        queue = queues[c]
                        while queue and holders[c] < copies:
                            v = queue.pop(0)
                            holders[c] += 1
                            held[v] = c
                            heappush(heap, (now, seq, v, _GRANTED))
                            seq += 1
                    j = pos[w]
                    if j == stop[w]:
                        continue  # done
                    c = color[j]
                    if holders[c] < copies and not queues[c]:
                        holders[c] += 1
                        held[w] = c
                    else:
                        queues[c].append(w)
                        seq += 1
                        continue  # parked until granted
                else:  # _GRANTED
                    c = held[w]
                prev = last[c]
                if prev >= 0 and prev != w:
                    heappush(heap, (now + handoff[w](rng), seq, w, _HANDED))
                    seq += 1
                    continue
                last[c] = w
            j = pos[w]
            t = now + mean[j] * exp(noise_loc[j] + noise_sig[j] * normal())
            heappush(heap, (t, seq, w, after[j]))
            if graded:
                end[j] = t
                order[j] = seq
            seq += 1
            pos[w] = j + 1
        makespans.append(now)
        measured.append(team.timer.measure(now, rng))
        if graded:
            ends[b, wi, ki] = end
            seqs[b, wi, ki] = order
    advance_experience(run, teams)
    correct = np.full(B, run.correct)
    if graded:
        correct = correct & _last_writers_match(
            ends, seqs, run.last_w, run.last_k, run.last_ok)
    return [
        {
            "label": run.label,
            "strategy": run.strategy,
            "n_workers": W,
            "true_makespan": makespans[b],
            "measured_time": measured[b],
            "correct": bool(correct[b]),
        }
        for b in range(B)
    ]
