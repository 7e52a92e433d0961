"""The fabric coordinator: leases, health, retries, hedges, stealing.

:func:`run_fabric_sweep` is the fault-tolerant sibling of
:func:`repro.sweep.executor.run_sweep`: the same declarative
:class:`~repro.sweep.spec.SweepSpec` in, the same
:class:`~repro.sweep.results.SweepResult` out — **byte-identical** to a
clean serial run, no matter which workers computed which cells, in what
order, how many times, or how many of them died along the way.  That
identity is not a property the coordinator has to work for; it falls
out of the execution model (:func:`~repro.sweep.executor.run_trial` is
a pure function of its task dict) as long as every cell eventually gets
computed and results are assembled in grid order.  Everything in this
module exists to make "eventually" robust:

- **Leases.**  The unit of work is one cell (all its trials).  A lease
  names a worker, a cell, and an attempt; workers report per-trial
  heartbeats so the coordinator can tell *slow* from *dead*.
- **Health.**  Each local worker owns a private duplex pipe — a
  SIGKILLed process is just EOF on one connection, never a poisoned
  shared queue.  Death requeues the worker's unstarted cells and
  re-leases its in-flight cell exactly once per failure.
- **Retries.**  Failed leases (death, error, heartbeat silence) go to
  a backoff heap: full-jittered exponential delay, bounded attempts.
- **Hedges.**  When a lease looks like a straggler and a worker sits
  idle, the cell is speculatively re-leased; the first result wins and
  late copies are counted and dropped — safe precisely because trials
  are deterministic, so duplicates carry identical bytes.
- **Stealing.**  Idle workers raid the largest backlog via the same
  :func:`~repro.schedule.worksteal.steal_back_half` primitive the
  in-simulation runner uses.
- **Self-chaos.**  A :class:`~repro.fabric.chaos.ChaosPlan` scripts
  crashes, stalls, slow starts, and dropped responses into the workers
  themselves, so the recovery machinery is exercised against real
  process death rather than mocks.

Every recovery decision is observable through
:class:`~repro.obs.metrics.MetricsRegistry` series (``fabric_*``) and
the returned :class:`FabricStats`.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

import numpy as np
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, Union

from ..obs.metrics import MetricsRegistry
from ..schedule.worksteal import steal_back_half
from ..sim.backend import resolve_backend
from ..sweep.cache import ResultCache
from ..sweep.executor import (
    cached_cells,
    complete_cells,
    make_task,
    open_cache,
    validate_cells,
)
from ..sweep.results import SweepResult
from ..sweep.spec import SweepSpec
from .chaos import ChaosPlan
from .remote import remote_worker_main
from .worker import (
    MSG_BEAT,
    MSG_ERROR,
    MSG_HELLO,
    MSG_LEASE,
    MSG_RESULT,
    MSG_SHUTDOWN,
    worker_main,
)


class FabricError(Exception):
    """Raised when the fabric cannot finish a sweep (config errors,
    every worker dead, or a cell exhausting its lease attempts)."""


@dataclass(frozen=True)
class FabricConfig:
    """How the coordinator runs, retries, hedges, and gives up.

    Attributes:
        workers: local worker processes to spawn (``w0``, ``w1``, ...).
        remotes: ``(host, port)`` pairs of ``repro serve`` endpoints to
            drive as remote workers (``r0``, ``r1``, ...).
        max_attempts: lease attempts per cell (primary + retries +
            hedges) before the sweep fails.
        retry_base_s / retry_cap_s: full-jitter exponential backoff for
            re-leasing failed cells (ceiling ``base * 2**k``, capped).
        hedge_after_s: lease age after which an idle worker may be
            given a speculative duplicate lease; ``None`` disables
            hedging.
        heartbeat_timeout_s: heartbeat silence after which an in-flight
            lease on a *live* worker is declared lost and retried
            elsewhere (dead workers are detected immediately via EOF).
        jitter_seed: seed for the backoff jitter stream (house rule
            DET003: no unseeded RNGs).
        tick_s: coordinator poll interval for timer work.
        shutdown_grace_s: how long to wait for workers to exit cleanly
            before terminating them.
    """

    workers: int = 2
    remotes: Tuple[Tuple[str, int], ...] = ()
    max_attempts: int = 5
    retry_base_s: float = 0.05
    retry_cap_s: float = 1.0
    hedge_after_s: Optional[float] = 5.0
    heartbeat_timeout_s: float = 30.0
    jitter_seed: int = 0
    tick_s: float = 0.02
    shutdown_grace_s: float = 2.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise FabricError(f"workers must be >= 0, got {self.workers}")
        if self.workers + len(self.remotes) < 1:
            raise FabricError("need at least one worker (local or remote)")
        if self.max_attempts < 1:
            raise FabricError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.retry_base_s <= 0 or self.retry_cap_s <= 0:
            raise FabricError(
                f"retry_base_s/retry_cap_s must be > 0, got "
                f"{self.retry_base_s}/{self.retry_cap_s}")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise FabricError(
                f"hedge_after_s must be > 0 or None, "
                f"got {self.hedge_after_s}")
        if self.heartbeat_timeout_s <= 0:
            raise FabricError(
                f"heartbeat_timeout_s must be > 0, "
                f"got {self.heartbeat_timeout_s}")
        if self.tick_s <= 0:
            raise FabricError(f"tick_s must be > 0, got {self.tick_s}")

    @property
    def worker_names(self) -> List[str]:
        """All worker names, locals first, in deterministic order."""
        return ([f"w{i}" for i in range(self.workers)]
                + [f"r{i}" for i in range(len(self.remotes))])


@dataclass
class FabricStats:
    """What the recovery machinery actually did during one sweep.

    ``attempts`` maps each computed cell's canonical key to the number
    of leases it took (1 = first try succeeded); the SIGKILL acceptance
    test pins "re-leased exactly once" on it.
    """

    leases: int = 0
    retries: int = 0
    hedges: int = 0
    steals: int = 0
    stolen_cells: int = 0
    duplicates: int = 0
    worker_deaths: int = 0
    cached_cells: int = 0
    computed_cells: int = 0
    attempts: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Lease:
    lease_id: int
    worker: str
    cell_index: int
    kind: str  # "primary" | "retry" | "hedge"
    issued: float
    last_beat: float


@dataclass
class _Worker:
    name: str
    conn: Any  # coordinator end of the duplex pipe
    process: Optional[multiprocessing.process.BaseProcess] = None
    thread: Optional[threading.Thread] = None
    ready: bool = False  # has said hello
    alive: bool = True
    lease_id: Optional[int] = None  # outstanding lease, if any
    suspect: bool = False  # went heartbeat-silent; deprioritized


class FabricCoordinator:
    """One sweep's worth of distributed coordination.

    Construct, then call :meth:`run` once.  ``stats``, worker PIDs, and
    the metrics registry stay readable from other threads while the run
    is in progress (the chaos acceptance tests SIGKILL workers mid-run
    based on exactly that visibility).
    """

    def __init__(self, spec: SweepSpec,
                 config: Optional[FabricConfig] = None, *,
                 cache: Optional[ResultCache] = None,
                 cache_dir: Optional[Union[str, "os.PathLike"]] = None,
                 store: Optional[Any] = None,
                 store_tenant: str = "public",
                 observe: bool = False,
                 chaos: Optional[ChaosPlan] = None,
                 registry: Optional[MetricsRegistry] = None,
                 backend: str = "reference") -> None:
        self.spec = spec
        self.config = config or FabricConfig()
        self.chaos = chaos or ChaosPlan()
        # Leased-cell results persist through the durable store as well
        # as the on-disk cache (read-through both ways), so a fabric
        # sweep survives process restarts like a local one.
        self.cache = open_cache(cache, cache_dir, store, store_tenant)
        self.observe = observe
        self.registry = registry or MetricsRegistry()
        self.stats = FabricStats()

        self._rng = np.random.default_rng(self.config.jitter_seed)
        self._cells = spec.cells()
        # Per-cell engine, resolved once up front (auto falls back to
        # reference for fault plans / observers); a vector lease ships
        # the whole cell as one batch (see repro.fabric.worker).
        self._cell_backends = [
            resolve_backend(backend, cell.key_dict(), observe=observe)
            for cell in self._cells
        ]
        self._workers: Dict[str, _Worker] = {}
        self._queues: Dict[str, Deque[int]] = {}
        self._leases: Dict[int, _Lease] = {}
        self._retry_heap: List[Tuple[float, int, int]] = []
        self._retry_seq = 0
        self._next_lease_id = 0
        self._done: Set[int] = set()
        self._payloads: Dict[int, List[Dict[str, Any]]] = {}
        self._remaining: Set[int] = set()
        self._ran = False

        m = self.registry
        self._m_leases = m.counter(
            "fabric_leases_total",
            "Cell leases issued, by kind (primary/retry/hedge)")
        self._m_retries = m.counter(
            "fabric_retries_total",
            "Leases re-issued after a worker death, error, or silence")
        self._m_hedges = m.counter(
            "fabric_hedges_total",
            "Speculative duplicate leases issued against stragglers")
        self._m_steals = m.counter(
            "fabric_steals_total",
            "Work-stealing rebalances (idle worker raided a backlog)")
        self._m_duplicates = m.counter(
            "fabric_duplicate_results_total",
            "Results for already-completed cells (hedges/stale leases)")
        self._m_deaths = m.counter(
            "fabric_worker_deaths_total",
            "Workers that disappeared mid-sweep")
        self._m_cells = m.counter(
            "fabric_cells_total",
            "Cells resolved, by source (cache/computed)")
        self._m_state = m.gauge(
            "fabric_worker_state",
            "Per-worker state: 0 dead, 1 idle, 2 busy")

    # -- time ------------------------------------------------------------

    def _now(self) -> float:
        """The coordinator's clock (the fabric's only wall-clock read).

        Real time is genuinely needed here — worker processes fail in
        host time, not simulated time — but it only ever steers
        *scheduling* (backoff, hedging, liveness).  Result bytes are
        pinned to seeds by construction, and the parity tests would
        catch any leak of wall time into payloads.
        """
        return time.monotonic()

    # -- public observation hooks (safe to read from other threads) ------

    def pid(self, worker: str) -> Optional[int]:
        """The OS pid of a local worker, once spawned (else ``None``)."""
        record = self._workers.get(worker)
        if record is None or record.process is None:
            return None
        return record.process.pid

    def busy_workers(self) -> List[str]:
        """Names of workers holding an outstanding lease right now."""
        return sorted(name for name, w in self._workers.items()
                      if w.alive and w.lease_id is not None)

    def current_cell(self, worker: str) -> Optional[str]:
        """The canonical key of the cell a worker is computing, if any."""
        record = self._workers.get(worker)
        if record is None or record.lease_id is None:
            return None
        lease = self._leases.get(record.lease_id)
        if lease is None:
            return None
        return self._cells[lease.cell_index].key()

    # -- the run ----------------------------------------------------------

    def run(self) -> SweepResult:
        """Execute the sweep; one call per coordinator.

        Returns:
            A :class:`~repro.sweep.results.SweepResult` byte-identical
            to ``run_sweep(spec)`` over the same spec.

        Raises:
            FabricError: when every worker died with work remaining, or
                a cell exhausted ``max_attempts`` leases.
            SweepError: for statically-invalid specs (same gate as
                ``run_sweep``).
        """
        if self._ran:
            raise FabricError("a FabricCoordinator runs exactly once; "
                              "build a new one per sweep")
        self._ran = True
        validate_cells(self._cells)
        started = self._now()

        results = cached_cells(self.cache, self.spec, self._cells,
                               self._cell_backends, observe=self.observe)
        pending = [i for i, r in enumerate(results) if r is None]
        hits = len(results) - len(pending)
        if hits:
            self.stats.cached_cells += hits
            self._m_cells.inc(hits, source="cache")

        if pending:
            self._remaining = set(pending)
            try:
                self._spawn_workers()
                self._distribute(pending)
                self._loop()
            finally:
                self._shutdown()

        return SweepResult(
            spec=self.spec,
            cells=complete_cells(self.cache, self.spec, self._cells,
                                 self._cell_backends, results,
                                 self._payloads, observe=self.observe),
            computed_trials=len(pending) * self.spec.n_trials,
            cached_trials=hits * self.spec.n_trials,
            wall_seconds=self._now() - started,
            workers=len(self.config.worker_names),
        )

    # -- setup -----------------------------------------------------------

    def _spawn_workers(self) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        for i in range(self.config.workers):
            name = f"w{i}"
            ours, theirs = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=worker_main,
                args=(theirs, name, self.chaos.for_worker(name)),
                daemon=True)
            process.start()
            theirs.close()  # child holds it; EOF detection needs this
            self._workers[name] = _Worker(name=name, conn=ours,
                                          process=process)
            self._queues[name] = deque()
            self._m_state.set(1, worker=name)
        for i, (host, port) in enumerate(self.config.remotes):
            name = f"r{i}"
            ours, theirs = multiprocessing.Pipe(duplex=True)
            thread = threading.Thread(
                target=remote_worker_main,
                args=(theirs, name, host, port,
                      self.chaos.for_worker(name)),
                daemon=True)
            thread.start()
            self._workers[name] = _Worker(name=name, conn=ours,
                                          thread=thread)
            self._queues[name] = deque()
            self._m_state.set(1, worker=name)

    def _distribute(self, pending: List[int]) -> None:
        """Round-robin the uncached cells across all worker queues."""
        names = self.config.worker_names
        for slot, cell_index in enumerate(pending):
            self._queues[names[slot % len(names)]].append(cell_index)

    # -- the event loop ---------------------------------------------------

    def _loop(self) -> None:
        while self._remaining:
            conns = {w.conn: w for w in self._workers.values() if w.alive}
            if not conns:
                raise FabricError(
                    f"all workers died with {len(self._remaining)} "
                    f"cell(s) unfinished")
            for conn in mp_connection.wait(list(conns),
                                           timeout=self.config.tick_s):
                worker = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_death(worker)
                    continue
                self._on_message(worker, message)
                if not self._remaining:
                    return
            self._reap_silent_processes()
            self._promote_due_retries()
            self._dispatch_idle_workers()
            self._hedge_stragglers()
            self._expire_silent_leases()

    def _on_message(self, worker: _Worker, message: Tuple) -> None:
        worker.suspect = False  # it spoke; it is not wedged
        tag = message[0]
        if tag == MSG_HELLO:
            worker.ready = True
        elif tag == MSG_BEAT:
            lease = self._leases.get(message[2])
            if lease is not None:
                lease.last_beat = self._now()
        elif tag == MSG_RESULT:
            _, name, lease_id, cell_index, payloads = message
            self._release_worker(worker, lease_id)
            self._leases.pop(lease_id, None)
            if cell_index in self._done:
                self.stats.duplicates += 1
                self._m_duplicates.inc()
                return
            self._done.add(cell_index)
            self._payloads[cell_index] = payloads
            self._remaining.discard(cell_index)
            self.stats.computed_cells += 1
            self._m_cells.inc(source="computed")
        elif tag == MSG_ERROR:
            _, name, lease_id, cell_index, detail = message
            self._release_worker(worker, lease_id)
            stale = self._leases.pop(lease_id, None) is None
            if cell_index in self._done or stale:
                return
            self._schedule_retry(cell_index, reason=detail)

    def _release_worker(self, worker: _Worker, lease_id: int) -> None:
        if worker.lease_id == lease_id:
            worker.lease_id = None
            self._m_state.set(1, worker=worker.name)

    # -- failure handling -------------------------------------------------

    def _on_death(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        worker.alive = False
        worker.conn.close()
        self.stats.worker_deaths += 1
        self._m_deaths.inc()
        self._m_state.set(0, worker=worker.name)

        # Unstarted cells go back to the healthiest queues untouched
        # (they were never leased, so attempts are unchanged) ...
        orphaned = self._queues.pop(worker.name, deque())
        while orphaned:
            cell_index = orphaned.popleft()
            target = self._shortest_queue()
            if target is None:
                raise FabricError(
                    f"all workers died with {len(self._remaining)} "
                    f"cell(s) unfinished")
            self._queues[target].append(cell_index)

        # ... while the in-flight cell, if any, is re-leased exactly
        # once per death, through the backoff heap.
        if worker.lease_id is not None:
            lease = self._leases.pop(worker.lease_id, None)
            worker.lease_id = None
            if lease is not None and lease.cell_index not in self._done:
                self._schedule_retry(lease.cell_index,
                                     reason=f"worker {worker.name} died")

    def _reap_silent_processes(self) -> None:
        """Catch local deaths the pipe has not surfaced as EOF yet."""
        for worker in list(self._workers.values()):
            if (worker.alive and worker.process is not None
                    and not worker.process.is_alive()):
                # Drain any results it managed to send before dying.
                try:
                    while worker.conn.poll():
                        self._on_message(worker, worker.conn.recv())
                except (EOFError, OSError):
                    pass
                self._on_death(worker)

    def _expire_silent_leases(self) -> None:
        """Declare heartbeat-silent leases on *live* workers lost.

        A wedged-but-alive worker (scripted stall, real livelock, a
        dropped response) stops heartbeating without dying.  After
        ``heartbeat_timeout_s`` of silence the lease is abandoned and
        the cell re-queued.  The worker itself is marked *suspect* and
        freed for new leases rather than written off: a merely-slow
        worker drains its pipe and recovers (clearing the mark with its
        next message), while a truly wedged one keeps expiring until
        its cells hit ``max_attempts``.  A late result for an abandoned
        lease is recognized by its stale lease id and either accepted
        (first result still wins) or counted as a duplicate.
        """
        now = self._now()
        for lease in list(self._leases.values()):
            if now - lease.last_beat <= self.config.heartbeat_timeout_s:
                continue
            worker = self._workers.get(lease.worker)
            if worker is None or not worker.alive:
                continue
            self._leases.pop(lease.lease_id, None)
            if worker.lease_id == lease.lease_id:
                worker.lease_id = None
                worker.suspect = True
                self._m_state.set(1, worker=worker.name)
            if lease.cell_index not in self._done:
                self._schedule_retry(
                    lease.cell_index,
                    reason=f"no heartbeat from {lease.worker} in "
                           f"{self.config.heartbeat_timeout_s:g}s")

    def _schedule_retry(self, cell_index: int, *, reason: str) -> None:
        cell = self._cells[cell_index]
        attempts = self.stats.attempts.get(cell.key(), 0)
        if attempts >= self.config.max_attempts:
            raise FabricError(
                f"cell {cell.describe()!r} failed after {attempts} "
                f"lease(s); last failure: {reason}")
        ceiling = min(self.config.retry_cap_s,
                      self.config.retry_base_s * (2 ** max(0, attempts - 1)))
        delay = self._rng.uniform(0.0, ceiling)
        self._retry_seq += 1
        heapq.heappush(self._retry_heap,
                       (self._now() + delay, self._retry_seq, cell_index))
        self.stats.retries += 1
        self._m_retries.inc()

    # -- dispatch ---------------------------------------------------------

    def _shortest_queue(self) -> Optional[str]:
        """The live worker whose queue is shortest (ties by name)."""
        candidates = [(len(q), name) for name, q in self._queues.items()
                      if self._workers[name].alive]
        if not candidates:
            return None
        return min(candidates)[1]

    def _promote_due_retries(self) -> None:
        now = self._now()
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, cell_index = heapq.heappop(self._retry_heap)
            if cell_index in self._done:
                continue
            target = self._shortest_queue()
            if target is None:
                raise FabricError(
                    f"all workers died with {len(self._remaining)} "
                    f"cell(s) unfinished")
            self._queues[target].appendleft(cell_index)  # retries first

    def _idle_workers(self) -> List[_Worker]:
        """Leasable workers, healthy ones first (suspects last)."""
        return [w for w in sorted(self._workers.values(),
                                  key=lambda w: (w.suspect, w.name))
                if w.alive and w.ready and w.lease_id is None]

    def _dispatch_idle_workers(self) -> None:
        for worker in self._idle_workers():
            queue = self._queues[worker.name]
            if not queue:
                live = {name: q for name, q in self._queues.items()
                        if self._workers[name].alive}
                moved = steal_back_half(live, worker.name)
                if moved is not None:
                    _, stolen = moved
                    self.stats.steals += 1
                    self.stats.stolen_cells += len(stolen)
                    self._m_steals.inc()
            while queue and queue[0] in self._done:
                queue.popleft()  # hedged cell resolved while queued
            if queue:
                kind = ("retry" if self.stats.attempts.get(
                    self._cells[queue[0]].key(), 0) else "primary")
                self._issue(worker, queue.popleft(), kind=kind)

    def _hedge_stragglers(self) -> None:
        if self.config.hedge_after_s is None:
            return
        now = self._now()
        idle = [w for w in self._idle_workers()
                if not self._queues[w.name]]
        if not idle:
            return
        in_flight: Dict[int, int] = {}
        for lease in self._leases.values():
            in_flight[lease.cell_index] = \
                in_flight.get(lease.cell_index, 0) + 1
        for lease in sorted(self._leases.values(),
                            key=lambda l: l.issued):
            if not idle:
                return
            if (now - lease.issued <= self.config.hedge_after_s
                    or lease.cell_index in self._done
                    or in_flight[lease.cell_index] > 1):
                continue
            cell = self._cells[lease.cell_index]
            if (self.stats.attempts.get(cell.key(), 0)
                    >= self.config.max_attempts):
                continue
            worker = idle.pop(0)
            self.stats.hedges += 1
            self._m_hedges.inc()
            self._issue(worker, lease.cell_index, kind="hedge")
            in_flight[lease.cell_index] += 1

    def _issue(self, worker: _Worker, cell_index: int, *,
               kind: str) -> None:
        cell = self._cells[cell_index]
        self._next_lease_id += 1
        lease_id = self._next_lease_id
        now = self._now()
        tasks = [make_task(cell, seed=self.spec.seed,
                           n_trials=self.spec.n_trials, trial=t,
                           observe=self.observe,
                           backend=self._cell_backends[cell_index])
                 for t in range(self.spec.n_trials)]
        try:
            worker.conn.send((MSG_LEASE, lease_id, cell_index, tasks))
        except (BrokenPipeError, OSError):
            self._on_death(worker)
            self._schedule_retry(cell_index,
                                 reason=f"worker {worker.name} died "
                                        f"taking the lease")
            return
        self._leases[lease_id] = _Lease(
            lease_id=lease_id, worker=worker.name, cell_index=cell_index,
            kind=kind, issued=now, last_beat=now)
        worker.lease_id = lease_id
        self._m_state.set(2, worker=worker.name)
        self.stats.leases += 1
        self._m_leases.inc(kind=kind)
        key = cell.key()
        self.stats.attempts[key] = self.stats.attempts.get(key, 0) + 1

    # -- teardown ---------------------------------------------------------

    def _shutdown(self) -> None:
        for worker in self._workers.values():
            if worker.alive:
                try:
                    worker.conn.send((MSG_SHUTDOWN,))
                except (BrokenPipeError, OSError):
                    pass
        grace = self.config.shutdown_grace_s
        for worker in self._workers.values():
            if worker.process is not None:
                # Idle workers exit on the shutdown message.  One still
                # mid-lease is computing something nobody needs, and
                # one that never said hello may sleep a long scripted
                # slow-start — don't wait those out, just terminate.
                if worker.lease_id is None and worker.ready:
                    worker.process.join(timeout=grace)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=grace)
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.thread is not None:
                worker.thread.join(timeout=grace)
            if worker.alive:
                worker.alive = False
                self._m_state.set(0, worker=worker.name)


def run_fabric_sweep(
    spec: SweepSpec,
    config: Optional[FabricConfig] = None,
    *,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[Union[str, "os.PathLike"]] = None,
    store: Optional[Any] = None,
    store_tenant: str = "public",
    observe: bool = False,
    chaos: Optional[ChaosPlan] = None,
    registry: Optional[MetricsRegistry] = None,
    backend: str = "reference",
) -> SweepResult:
    """Run a sweep on the fault-tolerant fabric (convenience wrapper).

    Builds a :class:`FabricCoordinator` and runs it; use the class
    directly when you need mid-run visibility (stats, worker PIDs) or
    the registry afterwards.

    Args:
        spec: the declarative grid, exactly as for ``run_sweep``.
        config: worker fleet and retry/hedge tuning.
        cache / cache_dir: the same content-addressed result cache the
            serial executor uses; warm cells are never re-leased.
        store / store_tenant: a :class:`~repro.store.ResultStore` (and
            tenant path) to persist leased-cell results through, read-
            through with the cache exactly as in ``run_sweep``.
        observe: attach observers per trial (as in ``run_sweep``).
        chaos: a scripted failure plan for the workers themselves.
        registry: a metrics registry to record ``fabric_*`` series in.
        backend: trial engine (``reference`` / ``vector`` / ``auto``),
            resolved per cell exactly as in ``run_sweep``; vector cells
            are computed as whole-cell batches on the worker.

    Returns:
        A :class:`~repro.sweep.results.SweepResult` byte-identical to
        a clean serial ``run_sweep(spec)``.
    """
    return FabricCoordinator(spec, config, cache=cache,
                             cache_dir=cache_dir, store=store,
                             store_tenant=store_tenant, observe=observe,
                             chaos=chaos, registry=registry,
                             backend=backend).run()
