"""The sweep executor: fan trials across a process pool, cache results.

Execution model
---------------

Each (cell, trial) pair is one *task*: a JSON-safe dict naming the
configuration and the trial index.  A task is a pure function of its
dict — the worker derives the trial's RNG stream from the batch seed
and the cell key per :mod:`repro.sweep.seeding`, builds a fresh team,
runs the scenario (or the whole core activity), and returns a payload
dict with the run's metrics and its full event trace serialized as
JSON lines.  Nothing about a task depends on which process runs it or
in what order, so:

- ``workers=1`` (in-process) and ``workers=N`` (process pool) produce
  **byte-identical** payloads, traces included;
- payloads go straight into the content-addressed cache
  (:mod:`repro.sweep.cache`), and a warm run returns the *same* bytes
  a cold run computed.

Results come back as :class:`~repro.sweep.results.SweepResult` /
:class:`~repro.sweep.results.CellResult` wrappers with per-cell metric
and observability roll-ups.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from ..sim.backend import BackendError, resolve_backend
from .cache import ResultCache, content_address
from .results import CellResult, SweepResult, TrialRecord
from .seeding import trial_seed_sequences
from .spec import ACTIVITY, SweepCell, SweepError, SweepSpec, \
    fault_plan_from_dicts


def _run_payload(result) -> Dict[str, Any]:
    """Flatten one RunResult into a JSON-safe payload dict.

    The trace is kept verbatim (JSON-lines text) so byte-identity can
    be asserted across serial / parallel / cached executions; the obs
    digest keeps only its deterministic slice (no host-time profile).
    """
    from ..sim.export import export_trace

    payload: Dict[str, Any] = {
        "label": result.label,
        "strategy": result.strategy,
        "n_workers": result.n_workers,
        "true_makespan": result.true_makespan,
        "measured_time": result.measured_time,
        "correct": result.correct,
        "trace": export_trace(result.trace),
    }
    if result.faults is not None:
        payload["faults"] = result.faults.summary()
    if result.obs is not None:
        payload["obs"] = {
            "makespan": result.obs.makespan,
            "n_events": result.obs.n_events,
            "n_spans": result.obs.n_spans,
            "counters": result.obs.counters,
            "histograms": result.obs.histograms,
        }
    return payload


def run_trial(task: Dict[str, Any],
              observer_factory: Optional[Any] = None) -> Dict[str, Any]:
    """Execute one (cell, trial) task; pure function of the task dict.

    This is the unit the process pool ships across cores.  It must stay
    importable at module top level (pickle-by-reference) and must touch
    no process-global state, or parallel runs stop being byte-identical
    to serial ones.

    A task built with ``backend="vector"`` (see :func:`make_task`) runs
    on the vector engine as a batch of one; tasks without a
    ``"backend"`` key run on the reference event-loop engine, whose
    path and payloads are byte-for-byte what they were before backends
    existed.

    ``observer_factory`` attaches an extra read-only tap to every run
    (one fresh observer per run, tee'd with the ``observe`` digest when
    both are requested).  Observers never perturb the engine, so the
    returned payload stays byte-identical with or without one — this is
    how :mod:`repro.stream` watches a trial live without forking the
    execution path.  In-process callers only: the pool path always
    ships bare tasks.

    Raises:
        BackendError: when the task names an engine other than
            ``"reference"`` or ``"vector"``.
    """
    backend = task.get("backend", "reference")
    if backend == "vector":
        from ..sim.vector import run_vector_cell
        return run_vector_cell([task])[0]
    if backend != "reference":
        raise BackendError(
            f"unknown backend {backend!r} in task; a task names a "
            f"concrete engine: 'reference' or 'vector'")
    from ..agents import make_team
    from ..agents.student import FillStyle
    from ..flags import get_flag
    from ..obs import RunObserver, TeeObserver
    from ..schedule import (
        AcquirePolicy,
        get_scenario,
        run_core_activity,
        run_scenario,
    )

    cell = task["cell"]
    trial = task["trial"]
    ss = trial_seed_sequences(task["seed"], task["n_trials"],
                              cell_key=task["cell_key"])[trial]
    rng = np.random.default_rng(ss)

    spec = get_flag(cell["flag"])
    policy = AcquirePolicy[cell["policy"]]
    style = FillStyle[cell["style"]]
    fault_plan = (None if cell["faults"] is None
                  else fault_plan_from_dicts(cell["faults"]))

    # One fresh observer per run: the deterministic digest first, then
    # the caller's tap, tee'd when both are asked for.
    factory = RunObserver if task.get("observe", False) else None
    if observer_factory is not None:
        factory = (observer_factory if factory is None else
                   lambda: TeeObserver(RunObserver(), observer_factory()))

    team = make_team(f"trial{trial}", cell["team_size"], rng,
                     colors=list(spec.colors_used()), copies=cell["copies"])

    if cell["scenario"] == ACTIVITY:
        results = run_core_activity(spec, team, rng, style=style,
                                    policy=policy, observer_factory=factory)
        runs = {label: _run_payload(r) for label, r in results.items()}
    else:
        r = run_scenario(get_scenario(cell["scenario"]), spec, team, rng,
                         rows=cell["rows"], cols=cell["cols"], style=style,
                         policy=policy, fault_plan=fault_plan,
                         observer=None if factory is None else factory())
        runs = {r.label: _run_payload(r)}
    return {"trial": trial, "runs": runs}


def make_task(cell: SweepCell, *, seed: int, n_trials: int, trial: int,
              observe: bool = False,
              backend: str = "reference") -> Dict[str, Any]:
    """The task dict for trial ``trial`` of an ``n_trials``-trial cell.

    The one definition of the task layout: ``run_sweep``, the fabric
    coordinator and the service's ``/run`` and ``/task`` endpoints all
    build their tasks here, so a trial computed on any of those paths
    is byte-identical to the others.  ``backend`` is a *resolved*
    engine name (see :func:`repro.sim.backend.resolve_backend`); it is
    recorded only when it is not the reference engine, so reference
    tasks keep the pre-backend layout.
    """
    task: Dict[str, Any] = {
        "cell": cell.key_dict(), "cell_key": cell.key(), "seed": seed,
        "n_trials": n_trials, "trial": trial, "observe": observe,
    }
    if backend != "reference":
        task["backend"] = backend
    return task


def cell_address(cell: SweepCell, *, seed: int, n_trials: int,
                 observe: bool = False, backend: str = "reference") -> str:
    """The content address of one cell's full trial payload.

    The one definition of the cache key, shared by ``run_sweep``, the
    fabric coordinator and the service (a served ``/run`` is trial 0 of
    a one-trial cell), so all of them read and write the same entries.
    The backend folds into the address only when it is not the
    reference engine: reference addresses are byte-identical to what
    they were before backends existed (warm caches stay warm), while
    vector payloads — which carry no traces — can never collide with
    reference ones.
    """
    key: Dict[str, Any] = {
        "cell": cell.key_dict(),
        "n_trials": n_trials,
        "seed": seed,
        "observe": observe,
    }
    if backend != "reference":
        key["backend"] = backend
    return content_address(key)


def run_cell_tasks(tasks: List[Dict[str, Any]],
                   on_trial: Optional[Callable[[Dict[str, Any]], None]]
                   = None) -> List[Dict[str, Any]]:
    """Execute all trial tasks of one cell, in task order.

    The whole-cell unit the executor ships for vector cells and fabric
    workers run per lease.  Vector tasks run as one batch, amortizing
    plan compilation and RNG batching across every trial of the cell;
    all other tasks go through :func:`run_trial` one at a time.
    ``on_trial(task)`` is called as each task's payload is ready — per
    trial on the reference engine, in one burst after a vector batch.
    Importable at module top level for pickle-by-reference.

    Raises:
        BackendError: when the tasks name an unknown engine.
    """
    if tasks and tasks[0].get("backend") == "vector":
        from ..sim.vector import run_vector_cell
        payloads = run_vector_cell(tasks)
        if on_trial is not None:
            for task in tasks:
                on_trial(task)
        return payloads
    payloads = []
    for task in tasks:
        payloads.append(run_trial(task))
        if on_trial is not None:
            on_trial(task)
    return payloads


def validate_cells(cells: List[SweepCell]) -> None:
    """Refuse statically-invalid cells before any trial is dispatched.

    Shared by :func:`run_sweep` and the fabric coordinator so every
    execution path enforces the same gate: fault plans cannot target
    ACTIVITY cells, and any ERROR-severity pre-flight finding
    (undersized team, provable deadlock, fault plan naming a
    nonexistent target) is a refusal.

    Raises:
        SweepError: naming the offending cell and its findings.
    """
    # Deferred import: repro.analyze depends on repro.sweep.spec, so a
    # module-level import here would tangle package initialization.
    from ..analyze.preflight import preflight_errors

    for cell in cells:
        if cell.scenario == ACTIVITY and cell.fault_plan is not None:
            raise SweepError(
                f"cell {cell.describe()!r}: fault plans apply to single "
                f"scenarios, not ACTIVITY cells"
            )
        errors = preflight_errors(cell)
        if errors:
            raise SweepError(
                f"cell {cell.describe()!r} failed static analysis: "
                f"{errors}"
            )


def open_cache(cache: Optional[ResultCache] = None,
               cache_dir: Optional[Union[str, "os.PathLike"]] = None,
               store: Optional[Any] = None,
               store_tenant: str = "public") -> Optional[Any]:
    """The result tier a sweep reads and fills, or ``None`` for none.

    ``cache`` as given, else a :class:`ResultCache` at ``cache_dir``;
    with a ``store``, that cache (if any) is wrapped in a read-through
    :class:`~repro.store.StoreTier` under ``store_tenant``.
    """
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    if store is not None:
        from ..store import StoreTier
        cache = StoreTier(store, cache=cache, tenant=store_tenant)
    return cache


def _address(spec: SweepSpec, cell: SweepCell, backend: str,
             observe: bool) -> str:
    return cell_address(cell, seed=spec.seed, n_trials=spec.n_trials,
                        observe=observe, backend=backend)


def cached_cells(cache: Optional[Any], spec: SweepSpec,
                 cells: List[SweepCell], engines: List[str], *,
                 observe: bool) -> List[Optional[CellResult]]:
    """Each cell's cached result, or ``None`` where it must be computed.

    ``engines[i]`` is cell ``i``'s resolved backend; it is part of the
    cell's address.  Without a cache every slot is ``None``.
    """
    results: List[Optional[CellResult]] = [None] * len(cells)
    if cache is None:
        return results
    for i, cell in enumerate(cells):
        payload = cache.get(_address(spec, cell, engines[i], observe))
        if payload is not None:
            results[i] = CellResult(
                cell=cell,
                trials=[TrialRecord.from_payload(t)
                        for t in payload["trials"]],
                cached=True)
    return results


def complete_cells(cache: Optional[Any], spec: SweepSpec,
                   cells: List[SweepCell], engines: List[str],
                   results: List[Optional[CellResult]],
                   payloads: Mapping[int, List[Dict[str, Any]]], *,
                   observe: bool) -> List[CellResult]:
    """Fill every ``None`` slot of ``results`` from computed payloads.

    ``payloads[i]`` holds cell ``i``'s trial payloads in trial order;
    each is written back to the cache (when there is one) under the
    address :func:`cached_cells` read, then wrapped as an uncached
    :class:`CellResult`.  Returns the completed list, in grid order.
    """
    done: List[CellResult] = []
    for i, cell in enumerate(cells):
        result = results[i]
        if result is None:
            if cache is not None:
                cache.put(_address(spec, cell, engines[i], observe),
                          {"cell": cell.key_dict(), "trials": payloads[i]})
            result = CellResult(
                cell=cell,
                trials=[TrialRecord.from_payload(p) for p in payloads[i]],
                cached=False)
        done.append(result)
    return done


def _pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    # Prefer fork where available: it inherits sys.path (no editable
    # install needed) and skips per-worker interpreter start-up.  The
    # tasks are start-method agnostic either way.
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    return concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                  mp_context=ctx)


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[Union[str, "os.PathLike"]] = None,
    store: Optional[Any] = None,
    store_tenant: str = "public",
    observe: bool = False,
    backend: str = "reference",
) -> SweepResult:
    """Run a whole sweep: expand the grid, fan out trials, cache cells.

    Args:
        spec: the declarative grid.
        workers: processes to fan trials across; 1 runs in-process.
            Parallel and serial execution are byte-identical.
        cache: a :class:`~repro.sweep.cache.ResultCache` to consult and
            fill; cells whose address hits return their stored trials
            with zero recomputation.
        cache_dir: convenience — build a ``ResultCache`` at this path
            (ignored when ``cache`` is given).  No cache by default.
        store: a :class:`~repro.store.ResultStore` to persist through —
            the cache (if any) is wrapped in a read-through
            :class:`~repro.store.StoreTier`, so computed cells survive
            process restarts and cache-directory deletion, and a warm
            store back-fills a cold cache.
        store_tenant: tenant path the store reads/writes under
            (created if absent); ignored without ``store``.
        observe: attach a fresh :class:`~repro.obs.observer.RunObserver`
            to every run and keep its deterministic digest per trial
            (see :meth:`~repro.sweep.results.CellResult.obs_rollup`).
        backend: trial engine — ``"reference"``, ``"vector"``, or
            ``"auto"``, resolved per cell (see
            :mod:`repro.sim.backend`).  Vector cells execute
            whole-cell batches (all trials at once, one pool unit per
            cell) and their metric payloads are bit-identical to the
            reference engine's; reference cells run the unchanged
            per-trial path.

    Raises:
        SweepError: for fault plans on ACTIVITY cells (a plan targets a
            single run, not the five-run activity sequence), and for
            cells that fail static pre-flight analysis (undersized
            teams, provable deadlocks, fault plans naming nonexistent
            targets — see :mod:`repro.analyze.preflight`); invalid work
            is refused before any trial is dispatched.
        BackendError: for an unknown backend name, or an explicit
            ``"vector"`` request on a cell the vector engine cannot
            express (fault plan, observers attached).
    """
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    cache = open_cache(cache, cache_dir, store, store_tenant)

    cells = spec.cells()
    validate_cells(cells)
    engines = [resolve_backend(backend, cell.key_dict(), observe=observe)
               for cell in cells]

    started = time.perf_counter()
    results = cached_cells(cache, spec, cells, engines, observe=observe)
    # One pool unit per reference trial, one per whole vector cell.
    units: List[tuple] = []  # (cell_index, [task, ...])
    for i, cell in enumerate(cells):
        if results[i] is not None:
            continue
        tasks = [make_task(cell, seed=spec.seed, n_trials=spec.n_trials,
                           trial=t, observe=observe, backend=engines[i])
                 for t in range(spec.n_trials)]
        if engines[i] == "reference":
            units.extend((i, [task]) for task in tasks)
        else:
            units.append((i, tasks))

    # Execute every uncached trial, then reassemble in trial order so
    # the result never depends on completion order.
    payloads: Dict[int, List[Any]] = {
        i: [None] * spec.n_trials for i, r in enumerate(results) if r is None}

    def _store(i: int, trial_payloads: List[Dict[str, Any]]) -> None:
        for p in trial_payloads:
            payloads[i][p["trial"]] = p

    if workers == 1 or len(units) <= 1:
        for i, tasks in units:
            _store(i, run_cell_tasks(tasks))
    else:
        with _pool(workers) as pool:
            futures = {pool.submit(run_cell_tasks, tasks): i
                       for i, tasks in units}
            for fut in concurrent.futures.as_completed(futures):
                _store(futures[fut], fut.result())

    return SweepResult(
        spec=spec,
        cells=complete_cells(cache, spec, cells, engines, results, payloads,
                             observe=observe),
        computed_trials=sum(len(p) for p in payloads.values()),
        cached_trials=spec.n_trials * (len(cells) - len(payloads)),
        wall_seconds=time.perf_counter() - started,
        workers=workers,
    )
