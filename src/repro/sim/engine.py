"""A deterministic generator-based discrete-event simulation engine.

The engine is a minimal SimPy-style kernel, built from scratch: processes
are Python generators that ``yield`` commands (:class:`Timeout`,
:class:`Acquire`, :class:`Release`, :class:`WaitAll`), and the engine owns a
single event heap keyed by ``(time, sequence)``.  Two runs with the same
seed and the same process set produce byte-identical traces; this property
is load-bearing for the reproduction benchmarks and is covered by tests.

Why build one instead of importing SimPy: the environment is offline, the
whole kernel (interrupts, resource failure, watchdogs and deadlock
diagnostics included) is this one module of under 800 lines, and owning
it lets the trace layer log exactly the classroom-level events we need
(strokes, implement handoffs) without adapter glue.  The vector backend's
contention kernel (:mod:`repro.sim.vector.contend`) mirrors this kernel's
heap order and resource rules for fault-free shared-implement runs; the
parity suite pins the two together bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Tuple,
)

from .events import Event, EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.observer import Observer

#: A simulation process: a generator yielding engine commands.
ProcessGen = Generator["Command", Any, None]


class SimulationError(Exception):
    """Raised on kernel misuse (negative delays, double release, ...)."""


#: A wait-for graph: waiter name -> [(via label, awaited process name)].
#: ``via`` is the resource the waiter is queued on, or ``"<wait>"`` for a
#: WaitAll dependency.  Shared vocabulary between the runtime deadlock
#: diagnostic below and the static analyzer in :mod:`repro.analyze`.
WaitEdges = Dict[str, List[Tuple[str, str]]]


def find_wait_cycle(edges: WaitEdges) -> List[str]:
    """First wait-for cycle as ``[p0, via, p1, via, ..., p0]``.

    Deterministic: nodes and edges are visited in sorted order, so the
    same graph always names the same cycle.  This is the *single* cycle
    finder in the codebase — the runtime :class:`DeadlockError` diagnostic
    and the static analyzer (:mod:`repro.analyze.waitgraph`) both call it,
    which is what keeps their reported cycles comparable.

    Args:
        edges: waiter -> [(via, awaited)] adjacency lists.  ``via`` labels
            the edge (a resource name, or ``"<wait>"``).

    Returns:
        The alternating node/via cycle list, or ``[]`` when acyclic.
    """
    index: Dict[str, int] = {}   # node -> position on the current path
    visited: set = set()
    path: List[str] = []
    vias: List[str] = []         # vias[j] labels the edge path[j]->path[j+1]

    def dfs(node: str) -> Optional[List[str]]:
        index[node] = len(path)
        path.append(node)
        for via, target in sorted(edges.get(node, [])):
            if target in index:
                start = index[target]
                cycle: List[str] = []
                for j in range(start, len(path) - 1):
                    cycle.extend([path[j], vias[j]])
                cycle.extend([path[-1], via, target])
                return cycle
            if target in edges and target not in visited:
                vias.append(via)
                found = dfs(target)
                if found:
                    return found
                vias.pop()
        path.pop()
        del index[node]
        visited.add(node)
        return None

    for node in sorted(edges):
        if node not in visited:
            found = dfs(node)
            if found:
                return found
    return []


def format_wait_cycle(cycle: List[str]) -> str:
    """Render a cycle list as ``p0 -[via]-> p1 -[via]-> ... -> p0``.

    The inverse-readable form of :func:`find_wait_cycle` output; the
    runtime deadlock message and the static analyzer's reports both use
    it, so a cycle printed by either is textually comparable.  Returns
    ``""`` for an empty cycle.
    """
    if not cycle:
        return ""
    arrows = cycle[0]
    for i in range(1, len(cycle) - 1, 2):
        arrows += f" -[{cycle[i]}]-> {cycle[i + 1]}"
    return arrows


class DeadlockError(SimulationError):
    """Raised when the heap empties with processes still blocked.

    Attributes:
        blocked: names of the processes that never finished.
        cycle: the wait-for cycle as an alternating list
            ``[proc, via, proc, via, ..., proc]`` where ``via`` is the
            resource (or ``"<wait>"`` for a WaitAll edge) the left process
            is queued on and the right process holds; empty when the
            blockage is starvation rather than a circular wait.
        wait_for: per-process diagnostic lines (who holds what, who queues
            for what).
    """

    def __init__(self, message: str, *, blocked: List[str],
                 cycle: List[str], wait_for: List[str]) -> None:
        super().__init__(message)
        self.blocked = blocked
        self.cycle = cycle
        self.wait_for = wait_for


class WatchdogExceeded(SimulationError):
    """Raised when a run exceeds its event or simulated-time budget.

    Converts a runaway simulation (a livelocked retry loop, a fault plan
    that keeps reinjecting work) into a structured, catchable error
    instead of an unbounded loop.

    Attributes:
        budget: which budget tripped, ``"events"`` or ``"time"``.
        limit: the configured budget value.
        at: simulated time when the watchdog fired.
        dispatched: number of scheduler dispatches executed so far.
    """

    def __init__(self, budget: str, limit: float, at: float,
                 dispatched: int) -> None:
        super().__init__(
            f"watchdog: {budget} budget exceeded "
            f"(limit {limit}, t={at:.2f}, {dispatched} dispatches)"
        )
        self.budget = budget
        self.limit = limit
        self.at = at
        self.dispatched = dispatched


class Interrupt(Exception):
    """Base class for exceptions the kernel throws *into* a process.

    An interrupt preempts a process at its current yield point (sleeping
    on a :class:`Timeout`, parked in a resource queue, or blocked on a
    :class:`WaitAll`).  A process may catch the interrupt and recover; an
    uncaught interrupt kills the process (its held resources are released
    and it is marked finished-by-kill, not an engine crash).
    """

    def __init__(self, reason: str = "", **data: Any) -> None:
        super().__init__(reason or self.__class__.__name__)
        self.reason = reason
        self.data = data


class KillInterrupt(Interrupt):
    """A fatal interrupt: the process is being removed (student dropout).

    Processes may catch it to clean up bookkeeping but should re-raise;
    the kernel then releases held resources and wakes any waiters.
    """


class StallInterrupt(Interrupt):
    """A transient preemption: pause for ``duration``, then resume."""

    def __init__(self, duration: float, reason: str = "stall",
                 **data: Any) -> None:
        if duration < 0:
            raise SimulationError(f"negative stall duration: {duration}")
        super().__init__(reason, **data)
        self.duration = duration


class ResourceFailure(Interrupt):
    """Thrown into a process whose acquire hit a permanently failed
    resource (the marker dried and no spare is coming)."""

    def __init__(self, resource: str, reason: str = "resource failed",
                 **data: Any) -> None:
        super().__init__(reason, **data)
        self.resource = resource


class Command:
    """Base class for things a process may yield to the engine."""


@dataclass(frozen=True)
class Timeout(Command):
    """Suspend the process for ``delay`` simulated seconds (>= 0)."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise SimulationError(f"negative timeout: {self.delay}")


@dataclass(frozen=True)
class Acquire(Command):
    """Block until the named resource is granted to this process."""

    resource: "ResourceHandle"


@dataclass(frozen=True)
class Release(Command):
    """Give the named resource back (must currently hold it)."""

    resource: "ResourceHandle"


@dataclass(frozen=True)
class WaitAll(Command):
    """Block until every one of the given processes has finished."""

    names: Tuple[str, ...]


class ResourceHandle:
    """A shared, single-holder resource (one drawing implement).

    FIFO grant order: requests are queued in arrival order with ties broken
    by the engine's deterministic sequence counter.  ``capacity`` > 1 models
    a team that was given duplicate implements (the paper's "extra
    resources would reduce contention" remark).
    """

    def __init__(self, name: str, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource {name!r} capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.holders: List[str] = []
        self.queue: List[Tuple[int, str]] = []  # (arrival seq, process name)
        self.failed = False
        self.repair_at: Optional[float] = None

    def held_by(self, process: str) -> bool:
        """Whether the process currently holds one unit of this resource."""
        return process in self.holders

    def fail(self, repair_at: Optional[float] = None) -> None:
        """Stop granting this resource (the marker dried out).

        Current holders are unaffected — the failure bites at the next
        grant boundary.  With ``repair_at`` set, waiters stay queued and
        grants resume once :meth:`Simulator.repair_resource` runs (the
        engine schedules that automatically via
        :meth:`Simulator.fail_resource`); without it the failure is
        permanent.  Prefer :meth:`Simulator.fail_resource`, which also
        logs the event and notifies queued waiters of permanent failures.

        Raises:
            SimulationError: if the resource is already failed.
        """
        if self.failed:
            raise SimulationError(f"resource {self.name!r} already failed")
        self.failed = True
        self.repair_at = repair_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ", FAILED" if self.failed else ""
        return (f"ResourceHandle({self.name!r}, capacity={self.capacity}, "
                f"holders={self.holders}, queued={len(self.queue)}{state})")


#: A heap entry: ``(time, seq, process, payload, epoch)``.  ``seq`` is
#: unique, so entries order by ``(time, seq)`` and the tuple compare never
#: reaches the process name.  ``payload`` is ``"start"``, ``None`` (a
#: wakeup) or ``("call", fn, args)`` (a kernel callback, never stale).
#: ``epoch`` is the target process's wakeup generation at scheduling
#: time; a mismatch at pop time means the process was interrupted
#: meanwhile and this wakeup is stale.
_Entry = Tuple[float, int, str, Any, int]


class Simulator:
    """The event-loop kernel.

    Typical use::

        sim = Simulator()
        red = sim.resource("red_marker")
        sim.add_process("P1", worker_gen(sim, red))
        sim.run()
        print(sim.now, len(sim.events))

    Processes log domain events through :meth:`log`; the kernel itself logs
    PROCESS_START / PROCESS_DONE and all resource traffic.

    ``observer`` is the zero-overhead-when-disabled observability tap
    (see :mod:`repro.obs`): when ``None`` (the default) the kernel
    executes exactly the pre-observability instruction stream, and every
    hook site is a single ``is not None`` test.  Observers are read-only
    — they never touch the event log or the sequence counter, so an
    observed run's trace is byte-identical to an unobserved one.
    """

    def __init__(self, observer: Optional["Observer"] = None) -> None:
        self.observer = observer
        self.now: float = 0.0
        self.events: List[Event] = []
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        self._procs: Dict[str, ProcessGen] = {}
        self._done: Dict[str, float] = {}
        self._killed: Dict[str, float] = {}
        self._resources: Dict[str, ResourceHandle] = {}
        # dep process name -> processes blocked until it finishes
        self._wait_index: Dict[str, List[str]] = {}
        # blocked process -> set of deps it is still waiting on
        self._pending_deps: Dict[str, set] = {}
        # process -> wakeup generation; bumped on interrupt so that any
        # already-scheduled wakeup for the old state is skipped as stale
        self._epoch: Dict[str, int] = {}
        self._started = False

    # -- construction ------------------------------------------------------
    def resource(self, name: str, capacity: int = 1) -> ResourceHandle:
        """Create (or fetch) a named shared resource."""
        if name in self._resources:
            existing = self._resources[name]
            if existing.capacity != capacity:
                raise SimulationError(
                    f"resource {name!r} already exists with capacity "
                    f"{existing.capacity}, asked for {capacity}"
                )
            return existing
        handle = ResourceHandle(name, capacity)
        self._resources[name] = handle
        return handle

    def attach_observer(self, observer: "Observer") -> None:
        """Attach an observability tap before the run starts.

        Raises:
            SimulationError: once :meth:`run` has been called (hooking
                in mid-run would give the observer a torn view).
        """
        if self._started:
            raise SimulationError(
                "cannot attach an observer after run() started")
        self.observer = observer

    def add_process(self, name: str, gen: ProcessGen,
                    start_at: float = 0.0) -> None:
        """Register a process to begin at ``start_at`` simulated seconds."""
        if self._started:
            raise SimulationError("cannot add processes after run() started")
        if name in self._procs:
            raise SimulationError(f"duplicate process name {name!r}")
        if start_at < 0:
            raise SimulationError(f"negative start time for {name!r}")
        self._procs[name] = gen
        self._epoch[name] = 0
        heapq.heappush(self._heap,
                       (start_at, next(self._seq), name, "start", 0))

    def schedule_call(self, time: float, fn: Callable[..., Any],
                      *args: Any) -> None:
        """Run ``fn(*args)`` at kernel level at simulated ``time``.

        The callback runs between process steps with the clock set to
        ``time``; it may log events, fail/repair resources, interrupt
        processes, or schedule further calls.  This is the hook the fault
        injector compiles :class:`~repro.faults.plan.FaultPlan` entries
        into.

        Raises:
            SimulationError: if ``time`` is in the simulated past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule a call at {time} < now {self.now}"
            )
        heapq.heappush(self._heap,
                       (time, next(self._seq), "", ("call", fn, args), 0))

    # -- logging -----------------------------------------------------------
    def log(self, kind: EventKind, agent: Optional[str] = None,
            **data: Any) -> Event:
        """Append a domain event at the current simulated time."""
        ev = Event(time=self.now, seq=next(self._seq), kind=kind,
                   agent=agent, data=data)
        self.events.append(ev)
        if self.observer is not None:
            self.observer.on_event(ev)
        return ev

    # -- the loop ----------------------------------------------------------
    def run(self, until: Optional[float] = None, *,
            max_events: Optional[int] = None,
            max_time: Optional[float] = None) -> float:
        """Drive every process to completion (or until the time horizon).

        Returns the final simulation time (the makespan when all processes
        finished).

        Args:
            until: stop cleanly once the next event lies past this time;
                the event is kept for a later ``run()`` call.
            max_events: watchdog — abort after this many scheduler
                dispatches (catches livelocked retry loops).
            max_time: watchdog — abort once simulated time would pass
                this budget.  Unlike ``until`` this is an error, not a
                pause: the simulation was expected to finish by then.

        Raises:
            DeadlockError: processes still blocked on resources or waits
                when the heap empties; the message names the wait-for
                cycle when one exists.
            WatchdogExceeded: an event or time budget was exhausted.
        """
        self._started = True
        obs = self.observer
        if obs is not None:
            obs.on_run_start(self)
        heap, epochs, step = self._heap, self._epoch, self._step
        dispatched = 0
        while heap:
            item = heapq.heappop(heap)
            time, _, name, payload, epoch = item
            is_call = isinstance(payload, tuple)
            if not is_call and epoch != epochs[name]:
                continue  # stale wakeup: the process was interrupted
            if until is not None and time > until:
                # Keep the event for a later run() call — dropping it
                # would silently lose a process wakeup.
                heapq.heappush(heap, item)
                self.now = until
                if obs is not None:
                    obs.on_run_end(self, self.now)
                return self.now
            if max_time is not None and time > max_time:
                raise WatchdogExceeded("time", max_time, self.now, dispatched)
            if time < self.now:
                raise SimulationError(
                    f"time went backwards: {time} < {self.now}"
                )
            self.now = time
            dispatched += 1
            if max_events is not None and dispatched > max_events:
                raise WatchdogExceeded("events", max_events, self.now,
                                       dispatched)
            if is_call:
                _, fn, args = payload
                if obs is not None:
                    obs.on_dispatch_start("<kernel>", self.now)
                    fn(*args)
                    obs.on_dispatch_end("<kernel>", self.now)
                else:
                    fn(*args)
                continue
            if payload == "start":
                self.log(EventKind.PROCESS_START, agent=name)
            if obs is not None:
                obs.on_dispatch_start(name, self.now)
                step(name)
                obs.on_dispatch_end(name, self.now)
            else:
                step(name)
        blocked = sorted(n for n in self._procs if n not in self._done)
        if blocked:
            raise self._deadlock_error(blocked)
        if obs is not None:
            obs.on_run_end(self, self.now)
        return self.now

    def _step(self, name: str, throw: Optional[BaseException] = None) -> None:
        """Advance one process until it blocks, sleeps, or finishes.

        ``throw`` delivers an :class:`Interrupt` into the generator at its
        current yield point instead of resuming it.
        """
        gen = self._procs[name]
        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    cmd = gen.throw(exc)
                else:
                    cmd = gen.send(None)
            except StopIteration:
                self._finish(name)
                return
            except Interrupt as exc:
                # The process did not survive the interrupt (or chose to
                # re-raise after cleanup): it dies here, not the kernel.
                self._kill(name, exc)
                return
            if isinstance(cmd, Timeout):
                heapq.heappush(self._heap,
                               (self.now + cmd.delay, next(self._seq), name,
                                None, self._epoch[name]))
                return
            if isinstance(cmd, Acquire):
                res = cmd.resource
                if res.failed and res.repair_at is None:
                    # Permanently failed: deliver the failure into the
                    # process so it can adapt (skip the color, drop the
                    # op, ...).
                    throw = ResourceFailure(res.name)
                    continue
                self.log(EventKind.RESOURCE_REQUEST, agent=name,
                         resource=res.name)
                if (not res.failed and len(res.holders) < res.capacity
                        and not res.queue):
                    res.holders.append(name)
                    self.log(EventKind.RESOURCE_ACQUIRE, agent=name,
                             resource=res.name)
                    continue  # got it immediately; keep stepping
                res.queue.append((next(self._seq), name))
                return  # parked in the resource queue
            if isinstance(cmd, Release):
                self._do_release(cmd.resource, name)
                continue
            if isinstance(cmd, WaitAll):
                if len(set(cmd.names)) != len(cmd.names):
                    raise SimulationError(
                        f"process {name!r} waits on duplicate names "
                        f"{list(cmd.names)}"
                    )
                if name in cmd.names:
                    raise SimulationError(
                        f"process {name!r} cannot wait on itself"
                    )
                missing = tuple(n for n in cmd.names if n not in self._done)
                unknown = [n for n in missing if n not in self._procs]
                if unknown:
                    raise SimulationError(f"wait on unknown processes {unknown}")
                if not missing:
                    continue
                self._park_waiter(name, missing)
                return
            raise SimulationError(f"process {name!r} yielded {cmd!r}")

    # -- scheduling helpers -------------------------------------------------
    def _wake(self, name: str, at: float) -> None:
        """Schedule a wakeup for a process, stamped with its epoch."""
        heapq.heappush(self._heap, (at, next(self._seq), name, None,
                                    self._epoch[name]))

    # -- resources ---------------------------------------------------------
    def _grant_queued(self, res: ResourceHandle) -> None:
        """Hand a non-failed resource to queued waiters, FIFO, up to
        capacity, waking each at the current time."""
        while not res.failed and res.queue and len(res.holders) < res.capacity:
            res.queue.sort()
            _, waiter = res.queue.pop(0)
            res.holders.append(waiter)
            self.log(EventKind.RESOURCE_ACQUIRE, agent=waiter,
                     resource=res.name)
            # Resume the waiter at the current time, after the current
            # step completes (heap ordering keeps this fair).
            self._wake(waiter, self.now)

    def _do_release(self, res: ResourceHandle, name: str) -> None:
        if name not in res.holders:
            raise SimulationError(
                f"{name!r} released {res.name!r} without holding it"
            )
        res.holders.remove(name)
        self.log(EventKind.RESOURCE_RELEASE, agent=name, resource=res.name)
        self._grant_queued(res)

    def fail_resource(self, res: ResourceHandle,
                      repair_at: Optional[float] = None) -> None:
        """Fail a resource at the current time (the marker dries out).

        Current holders are unaffected until they release; the failure
        bites at the grant boundary.  With ``repair_at``, waiters stay
        queued and a repair is scheduled (the spare arrives); without it,
        every queued waiter immediately receives a
        :class:`ResourceFailure` interrupt and future acquires fail too.

        Raises:
            SimulationError: if already failed, or ``repair_at`` is in
                the past.
        """
        if repair_at is not None and repair_at < self.now:
            raise SimulationError(
                f"repair_at {repair_at} is before now {self.now}"
            )
        res.fail(repair_at)
        self.log(EventKind.RESOURCE_FAILED, resource=res.name,
                 permanent=repair_at is None,
                 **({} if repair_at is None else {"repair_at": repair_at}))
        if repair_at is not None:
            self.schedule_call(repair_at, self.repair_resource, res)
            return
        res.queue.sort()
        waiters = [w for _, w in res.queue]
        res.queue.clear()
        for waiter in waiters:
            self._step(waiter, throw=ResourceFailure(res.name))

    def repair_resource(self, res: ResourceHandle) -> None:
        """Un-fail a resource (the spare arrived) and resume granting."""
        if not res.failed:
            raise SimulationError(f"resource {res.name!r} is not failed")
        res.failed = False
        res.repair_at = None
        self.log(EventKind.RESOURCE_REPAIRED, resource=res.name)
        self._grant_queued(res)

    # -- interrupts ---------------------------------------------------------
    def interrupt(self, name: str, exc: Optional[Interrupt] = None) -> bool:
        """Preempt a process at its current yield point, immediately.

        Works whether the process is sleeping on a timeout, parked in a
        resource queue, or blocked on a wait: it is unparked, any pending
        wakeup is invalidated, and ``exc`` is thrown into its generator.
        Returns False (a no-op) when the process already finished.

        Raises:
            SimulationError: for an unknown process name.
        """
        if name not in self._procs:
            raise SimulationError(f"cannot interrupt unknown process {name!r}")
        if name in self._done:
            return False
        self._unpark(name)
        self._step(name, throw=exc if exc is not None else Interrupt())
        return True

    def schedule_interrupt(self, time: float, name: str,
                           exc: Optional[Interrupt] = None) -> None:
        """Deliver an interrupt to a process at a future simulated time."""
        self.schedule_call(time, self.interrupt, name, exc)

    def _unpark(self, name: str) -> None:
        """Remove a process from every blocking structure and invalidate
        its pending wakeups (pre-interrupt bookkeeping)."""
        self._epoch[name] += 1
        for res in self._resources.values():
            res.queue = [(s, w) for s, w in res.queue if w != name]
        deps = self._pending_deps.pop(name, None)
        if deps:
            for dep in deps:
                waiters = self._wait_index.get(dep)
                if waiters and name in waiters:
                    waiters.remove(name)

    def _kill(self, name: str, exc: Interrupt) -> None:
        """Terminate a process that died from an uncaught interrupt:
        release everything it holds, mark it finished-by-kill, and wake
        its waiters (they will never get more from it)."""
        self._unpark(name)
        for res in self._resources.values():
            while name in res.holders:
                self._do_release(res, name)
        self._killed[name] = self.now
        self._done[name] = self.now
        self.log(EventKind.PROCESS_KILLED, agent=name, reason=str(exc))
        self._release_waiters(name)

    # -- process completion / waits ----------------------------------------
    def _park_waiter(self, name: str, missing: Tuple[str, ...]) -> None:
        for dep in missing:
            self._wait_index.setdefault(dep, []).append(name)
        self._pending_deps[name] = set(missing)

    def _finish(self, name: str) -> None:
        self._done[name] = self.now
        self.log(EventKind.PROCESS_DONE, agent=name)
        self._release_waiters(name)

    def _release_waiters(self, name: str) -> None:
        for waiter in self._wait_index.pop(name, []):
            deps = self._pending_deps.get(waiter)
            if deps is None:
                continue
            deps.discard(name)
            if not deps:
                del self._pending_deps[waiter]
                self._wake(waiter, self.now)

    # -- deadlock diagnostics ----------------------------------------------
    def _deadlock_error(self, blocked: List[str]) -> DeadlockError:
        """Build the wait-for graph over the blocked processes, find a
        cycle if one exists, and package everything as a DeadlockError."""
        # edges: blocked process -> [(via label, process it waits on)]
        edges: Dict[str, List[Tuple[str, str]]] = {n: [] for n in blocked}
        wants: Dict[str, str] = {}
        for res in self._resources.values():
            for _, waiter in sorted(res.queue):
                if waiter in edges:
                    wants[waiter] = res.name
                    for holder in res.holders:
                        edges[waiter].append((res.name, holder))
        for waiter, deps in self._pending_deps.items():
            if waiter in edges:
                for dep in sorted(deps):
                    edges[waiter].append(("<wait>", dep))

        cycle = find_wait_cycle(edges)
        holds = {
            n: [r.name for r in self._resources.values() if n in r.holders]
            for n in blocked
        }
        wait_for = []
        for n in blocked:
            if n in wants:
                res = self._resources[wants[n]]
                holders = ", ".join(res.holders) or "nobody"
                state = " [FAILED]" if res.failed else ""
                what = f"waits for {res.name}{state} (held by {holders})"
            elif n in self._pending_deps:
                what = ("waits for processes "
                        f"{sorted(self._pending_deps[n])} to finish")
            else:
                what = "is blocked (no pending wakeup)"
            wait_for.append(f"{n} holds {holds[n] or 'nothing'}, {what}")

        lines = [f"deadlock: {len(blocked)} of {len(self._procs)} "
                 f"processes never finished: {blocked}"]
        if cycle:
            lines.append(f"wait-for cycle: {format_wait_cycle(cycle)}")
        for line in wait_for:
            lines.append(f"  {line}")
        return DeadlockError("\n".join(lines), blocked=blocked,
                             cycle=cycle, wait_for=wait_for)

    # -- results -----------------------------------------------------------
    @property
    def finish_times(self) -> Dict[str, float]:
        """Completion time of every finished process (kills included)."""
        return dict(self._done)

    @property
    def killed(self) -> Dict[str, float]:
        """Processes removed by an uncaught interrupt, with kill times."""
        return dict(self._killed)

    def is_finished(self, name: str) -> bool:
        """Whether a process has completed (normally or by kill)."""
        return name in self._done

    def makespan(self) -> float:
        """Latest completion time across all processes (0.0 if none ran)."""
        return max(self._done.values(), default=0.0)
