"""The engine-backend contract: which engine runs a trial, and why.

Trials run on one of two engines.  The **reference** engine is the
event-loop :class:`~repro.sim.engine.Simulator`, driven once per trial
by :func:`repro.sweep.executor.run_trial`.  The **vector** engine is the
structure-of-arrays numpy engine in :mod:`repro.sim.vector`, which
advances every trial of a sweep cell simultaneously.  The executor is
the one place that dispatches between them: ``run_trial`` and
:func:`~repro.sweep.executor.run_cell_tasks` route each task by its
``"backend"`` key.  This module holds the selection rules.

The contract
------------

An engine executes sweep *tasks*: the JSON-safe ``(cell, trial)`` dicts
:func:`repro.sweep.executor.make_task` builds.  Both engines honor the
same two guarantees the rest of the stack is built on:

1. **Seed identity.**  Trial ``t`` of a cell draws from the stream
   ``trial_seed_sequences(seed, n_trials, cell_key=..., trials=(t,))``
   — the policy in :mod:`repro.sweep.seeding`, which derives only the
   children a call asks for — and consumes it in exactly the order the
   reference engine would, so the *metrics* of trial ``t`` are
   identical bit for bit across backends.
2. **Purity.**  A task's result is a function of the task dict alone —
   not of which engine ran it in which process at what batch size —
   so caching, retries, hedging, and work stealing stay sound.

What engines may differ on is the *payload shape*: the reference
engine emits full event traces; the vector engine emits metric-only
payloads (no ``"trace"`` key).  That is why a cell's cache address
folds in the backend whenever it is not the reference one (see
:func:`repro.sweep.executor.cell_address`) — the two payload families
never collide in the cache.

Selection
---------

Callers request ``"reference"``, ``"vector"``, or ``"auto"``.  ``auto``
resolves per cell: vector when the cell is expressible, otherwise
reference, with the reason logged on the ``repro.sim.backend`` logger.
An *explicit* ``"vector"`` request for an inexpressible cell raises
:class:`BackendError` instead — silent fallback is only for ``auto``.
The vector engine cannot express fault plans (kernel-level interrupts)
or attached observers (vector runs produce no event stream); those
cells always run on the reference engine.

This module imports nothing heavy at module level so that
``repro.sim`` can re-export it without creating import cycles.
"""

from __future__ import annotations

import logging
from typing import Any, Mapping, Optional

LOG = logging.getLogger("repro.sim.backend")

#: What ``--backend`` accepts: the engines plus per-cell resolution.
BACKEND_CHOICES = ("reference", "vector", "auto")


class BackendError(Exception):
    """An unknown backend name, or an explicit request a backend refuses."""


def vector_unsupported_reason(cell: Mapping[str, Any], *,
                              observe: bool = False) -> Optional[str]:
    """Why the vector engine cannot run a cell — or ``None`` if it can.

    Args:
        cell: a cell key_dict (:meth:`repro.sweep.spec.SweepCell.key_dict`).
        observe: whether the run would attach an observer.
    """
    if observe:
        return ("an observer is attached, and vector runs produce no "
                "event stream to observe")
    if cell.get("faults") is not None:
        label = cell.get("fault_label") or "unlabeled"
        return (f"the cell carries a fault plan ({label!r}), which needs "
                f"the reference engine's kernel interrupts")
    return None


def resolve_backend(requested: str, cell: Mapping[str, Any], *,
                    observe: bool = False) -> str:
    """Resolve a backend request to a concrete engine for one cell.

    ``"reference"`` and ``"vector"`` are taken literally; ``"auto"``
    picks vector when the cell is expressible and otherwise falls back
    to reference, logging the reason at INFO on ``repro.sim.backend``.

    Raises:
        BackendError: for names outside :data:`BACKEND_CHOICES`, and
            for an explicit ``"vector"`` request on a cell the vector
            engine cannot express (fault plan or observer attached).
    """
    if requested not in BACKEND_CHOICES:
        raise BackendError(
            f"unknown backend {requested!r}; choose from "
            f"{list(BACKEND_CHOICES)}")
    if requested == "reference":
        return "reference"
    reason = vector_unsupported_reason(cell, observe=observe)
    if reason is None:
        return "vector"
    if requested == "vector":
        raise BackendError(
            f"vector backend cannot run cell "
            f"{cell.get('flag')!r}/scenario {cell.get('scenario')}: "
            f"{reason}")
    LOG.info("auto backend: falling back to reference for cell %r "
             "scenario %s: %s", cell.get("flag"), cell.get("scenario"),
             reason)
    return "reference"
