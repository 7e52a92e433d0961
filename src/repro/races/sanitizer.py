"""Deterministic happens-before sanitizer: vector clocks over shims.

The dynamic half of :mod:`repro.races` — a miniature FastTrack-style
detector that works on *happens-before*, not on observed interleaving:

* **Shims** for ``threading.Lock`` / ``RLock`` / ``Condition`` /
  ``Thread`` (installed by :meth:`RaceSanitizer.patched`) and an
  explicit :meth:`RaceSanitizer.deque` hand-off queue record
  acquire/release, fork/join, and enqueue/dequeue edges as vector
  clocks.
* **Registered shared state** — :meth:`RaceSanitizer.state` cells, or
  whole attributes intercepted via :meth:`RaceSanitizer.audited_class`
  — records every read/write with the accessing thread's clock and
  flags any pair of conflicting accesses that no chain of edges
  orders.

Why the reports are deterministic even though thread scheduling is
not: an access pair is flagged when *neither order is enforced* by the
recorded edges.  That property is a function of the program's
synchronization structure, not of which interleaving the host happened
to produce, so a genuinely unguarded counter is flagged on every run
and the normalized finding set (sorted, deduplicated, labeled by
registration-order thread ids — never by ``threading`` names or
idents) is byte-stable.  The regression suite re-runs the same racy
program repeatedly and pins byte-identical reports.

Activation in the concurrency tests is environment-gated::

    REPRO_SAN=1 python -m pytest tests/test_races_store.py ...

via :func:`maybe_sanitized`, which is a no-op (``yield None``) unless
``REPRO_SAN=1`` — the tier-1 suite pays nothing by default, the CI
``race-and-bench`` job turns it on.
"""

from __future__ import annotations

import collections
import contextlib
import os
import threading
from typing import (Any, Deque, Dict, Iterator, Optional, Set, Tuple,
                    Type)

from ..analyze.report import error
from .report import RaceReport, sort_findings

#: The environment flag that turns the sanitizer on in gated tests.
ENV_FLAG = "REPRO_SAN"

# The real primitives, captured at import time so the shims (and the
# sanitizer's own internal guard) survive patching.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition
_REAL_THREAD = threading.Thread
_REAL_EVENT = threading.Event

#: The active sanitizer while :meth:`RaceSanitizer.patched` is live.
_ACTIVE: Optional["RaceSanitizer"] = None


def enabled() -> bool:
    """Whether ``REPRO_SAN=1`` asks gated tests to run sanitized."""
    return os.environ.get(ENV_FLAG, "") == "1"


VectorClock = Dict[int, int]


def _join(into: VectorClock, other: VectorClock) -> None:
    """Pointwise max, in place: ``into = into ⊔ other``."""
    for tid, tick in other.items():
        if tick > into.get(tid, 0):
            into[tid] = tick


class _ThreadState:
    """Per-thread sanitizer bookkeeping: deterministic id + clock."""

    def __init__(self, tid: int, label: str,
                 clock: Optional[VectorClock] = None) -> None:
        self.tid = tid
        self.label = label
        self.clock: VectorClock = dict(clock or {})
        self.clock[tid] = self.clock.get(tid, 0) + 1


class SharedState:
    """One registered shared-state cell the sanitizer watches.

    ``read()`` / ``write()`` record the access (and run the race
    check); ``value`` is optional storage for tests that want the cell
    to actually hold data.
    """

    def __init__(self, san: "RaceSanitizer", name: str) -> None:
        self.san = san
        self.name = name
        self.value: Any = None
        # per-thread epoch of the last write / read: {tid: tick}
        self.last_write: Dict[int, int] = {}
        self.last_read: Dict[int, int] = {}

    def read(self) -> Any:
        """Record a read by the current thread; returns ``value``."""
        self.san._access(self, "read")
        return self.value

    def write(self, value: Any = None) -> None:
        """Record a write by the current thread; stores ``value``."""
        self.san._access(self, "write")
        self.value = value


class SanLock:
    """A ``Lock``/``RLock`` shim carrying a release clock."""

    def __init__(self, san: "RaceSanitizer", *,
                 reentrant: bool = False) -> None:
        self._san = san
        self._real = _REAL_RLOCK() if reentrant else _REAL_LOCK()
        self._clock: VectorClock = {}

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        """Acquire the underlying lock; join its release clock."""
        got = self._real.acquire(blocking, timeout)
        if got:
            self._san._on_acquire(self)
        return got

    def release(self) -> None:
        """Publish the holder's clock into the lock, then release."""
        self._san._on_release(self)
        self._real.release()

    def locked(self) -> bool:
        """Whether the underlying lock is currently held."""
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class SanCondition:
    """A ``Condition`` shim: wait edges flow through the lock clock."""

    def __init__(self, san: "RaceSanitizer",
                 lock: Optional[SanLock] = None) -> None:
        self._san = san
        self._lock = lock if lock is not None else SanLock(
            san, reentrant=True)
        self._real = _REAL_CONDITION(self._lock._real)

    def acquire(self, *args: Any) -> bool:
        """Acquire the condition's lock (with edge recording)."""
        return self._lock.acquire(*args)

    def release(self) -> None:
        """Release the condition's lock (with edge recording)."""
        self._lock.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Wait; models the implicit release/re-acquire as edges."""
        self._san._on_release(self._lock)
        ok = self._real.wait(timeout)
        self._san._on_acquire(self._lock)
        return ok

    def wait_for(self, predicate: Any,
                 timeout: Optional[float] = None) -> Any:
        """Wait until ``predicate()``; one release/acquire edge pair.

        The real condition may cycle the lock several times; modeling
        the outermost release and re-acquire is conservative (it
        records no edge the program did not have).  ``Barrier`` and
        ``Event`` internals rely on this method.
        """
        self._san._on_release(self._lock)
        result = self._real.wait_for(predicate, timeout)
        self._san._on_acquire(self._lock)
        return result

    def notify(self, n: int = 1) -> None:
        """Wake ``n`` waiters (the lock hand-off carries the edge)."""
        self._real.notify(n)

    def notify_all(self) -> None:
        """Wake every waiter."""
        self._real.notify_all()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class SanEvent(_REAL_EVENT):
    """An ``Event`` pinned to the *real* primitives while patched.

    ``threading.Event.__init__`` resolves ``Condition``/``Lock`` from
    the threading module's globals — i.e. the shims, once
    :meth:`RaceSanitizer.patched` is live.  That would route
    interpreter internals (``Thread._started.set()`` fires on the
    child thread *before* ``run()`` binds its deterministic id)
    through the sanitizer and perturb tid assignment.  Events are
    internally synchronized and carry no modeled edge (the lockset
    layer excludes them for the same reason), so they stay real.
    """

    def __init__(self) -> None:
        self._cond = _REAL_CONDITION(_REAL_LOCK())
        self._flag = False


class SanThread(_REAL_THREAD):
    """A ``Thread`` shim recording fork and join edges.

    The deterministic thread id is assigned in :meth:`start` — by the
    *parent*, so ids follow program order, never the scheduler.
    """

    def start(self) -> None:
        """Snapshot the parent clock (fork edge), then start."""
        san = _ACTIVE
        self._san = san
        if san is not None:
            self._san_tid, self._san_fork = san._fork(self.name)
        self._san_final: Optional[VectorClock] = None
        super().start()

    def run(self) -> None:
        """Bind this OS thread to its pre-assigned deterministic id."""
        san = getattr(self, "_san", None)
        if san is not None:
            san._bind(self._san_tid, self._san_fork)
        try:
            super().run()
        finally:
            if san is not None:
                self._san_final = san._final_clock()

    def join(self, timeout: Optional[float] = None) -> None:
        """Join; on completion the child's clock flows to the joiner."""
        super().join(timeout)
        san = getattr(self, "_san", None)
        if (san is not None and not self.is_alive()
                and getattr(self, "_san_final", None) is not None):
            san._on_join(self._san_final)


class SanDeque:
    """A deque shim: every hand-off carries the producer's clock.

    ``append``/``appendleft`` publish the producer's clock next to the
    item; ``pop``/``popleft`` join it into the consumer — so state
    written before an enqueue and read after the matching dequeue is
    correctly ordered, exactly like the stream bus's bounded queues.
    """

    def __init__(self, san: "RaceSanitizer",
                 maxlen: Optional[int] = None) -> None:
        self._san = san
        self._items: Deque[Any] = collections.deque(maxlen=maxlen)
        self._clocks: Deque[VectorClock] = collections.deque(
            maxlen=maxlen)

    def append(self, item: Any) -> None:
        """Enqueue right, publishing the producer clock."""
        self._items.append(item)
        self._clocks.append(self._san._snapshot())

    def appendleft(self, item: Any) -> None:
        """Enqueue left, publishing the producer clock."""
        self._items.appendleft(item)
        self._clocks.appendleft(self._san._snapshot())

    def pop(self) -> Any:
        """Dequeue right, joining the producer's clock."""
        item = self._items.pop()
        self._san._on_join(self._clocks.pop())
        return item

    def popleft(self) -> Any:
        """Dequeue left, joining the producer's clock."""
        item = self._items.popleft()
        self._san._on_join(self._clocks.popleft())
        return item

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class RaceSanitizer:
    """The happens-before engine: clocks, shims, states, findings."""

    def __init__(self) -> None:
        self._guard = _REAL_LOCK()
        self._states: Dict[str, SharedState] = {}
        self._threads: Dict[int, _ThreadState] = {}  # ident -> state
        self._next_tid = 0
        self._next_obj = 0
        self._findings: Set[Tuple[str, str, Tuple[str, str]]] = set()
        self._tid_labels: Dict[int, str] = {}
        self._register_current("main")

    # -- thread bookkeeping ------------------------------------------------
    def _register_current(self, label: str,
                          tid: Optional[int] = None,
                          clock: Optional[VectorClock] = None) -> None:
        with self._guard:
            if tid is None:
                tid, self._next_tid = self._next_tid, self._next_tid + 1
            ident = threading.get_ident()
            self._threads[ident] = _ThreadState(tid, label, clock)
            self._tid_labels[tid] = label

    def _current(self) -> _ThreadState:
        """The calling thread's state (registered lazily if foreign)."""
        ts = self._threads.get(threading.get_ident())
        if ts is None:
            with self._guard:
                tid = self._next_tid
                self._next_tid += 1
                label = f"T{tid}"
                ts = _ThreadState(tid, label)
                self._threads[threading.get_ident()] = ts
                self._tid_labels[tid] = label
        return ts

    def _fork(self, name: str) -> Tuple[int, VectorClock]:
        """Parent side of thread creation: allocate tid, snapshot."""
        parent = self._current()
        with self._guard:
            tid = self._next_tid
            self._next_tid += 1
            self._tid_labels[tid] = f"T{tid}"
            parent.clock[parent.tid] += 1
            return tid, dict(parent.clock)

    def _bind(self, tid: int, fork_clock: VectorClock) -> None:
        """Child side: bind the OS thread to its deterministic id."""
        with self._guard:
            ts = _ThreadState(tid, self._tid_labels[tid], fork_clock)
            self._threads[threading.get_ident()] = ts

    def _final_clock(self) -> VectorClock:
        """The exiting thread's clock, for the join edge."""
        ts = self._current()
        with self._guard:
            ts.clock[ts.tid] += 1
            return dict(ts.clock)

    def _snapshot(self) -> VectorClock:
        """Tick and snapshot the calling thread's clock (publish)."""
        ts = self._current()
        with self._guard:
            ts.clock[ts.tid] += 1
            return dict(ts.clock)

    def _on_join(self, other: VectorClock) -> None:
        """Join an acquired clock into the calling thread."""
        ts = self._current()
        with self._guard:
            _join(ts.clock, other)
            ts.clock[ts.tid] += 1

    def _on_acquire(self, lock: SanLock) -> None:
        ts = self._current()
        with self._guard:
            _join(ts.clock, lock._clock)
            ts.clock[ts.tid] += 1

    def _on_release(self, lock: SanLock) -> None:
        ts = self._current()
        with self._guard:
            ts.clock[ts.tid] += 1
            _join(lock._clock, ts.clock)

    # -- shared state ------------------------------------------------------
    def state(self, name: str) -> SharedState:
        """Register (or fetch) a named shared-state cell."""
        with self._guard:
            cell = self._states.get(name)
            if cell is None:
                cell = self._states[name] = SharedState(self, name)
            return cell

    def _access(self, cell: SharedState, kind: str) -> None:
        """Record one access and flag unordered conflicting pairs."""
        ts = self._current()
        with self._guard:
            ts.clock[ts.tid] += 1
            epoch = ts.clock[ts.tid]
            against = (dict(cell.last_write)
                       if kind == "read"
                       else {**cell.last_write, **{
                           t: max(e, cell.last_write.get(t, 0))
                           for t, e in cell.last_read.items()}})
            for tid, prior_epoch in against.items():
                if tid == ts.tid:
                    continue
                if prior_epoch > ts.clock.get(tid, 0):
                    prior_kind = ("write"
                                  if cell.last_write.get(tid, 0)
                                  >= prior_epoch else "read")
                    pair = "/".join(sorted((kind, prior_kind)))
                    labels = tuple(sorted((self._tid_labels[tid],
                                           ts.label)))
                    self._findings.add((cell.name, pair, labels))
            if kind == "write":
                cell.last_write[ts.tid] = epoch
            else:
                cell.last_read[ts.tid] = epoch

    def audited_class(self, cls: Type[Any],
                      *attrs: str) -> Type[Any]:
        """A subclass of ``cls`` whose ``attrs`` are watched state.

        Each listed attribute becomes a data-descriptor property that
        records a read/write on a per-instance registered state cell
        (``ClsName#<n>.attr``, ``n`` in construction order — so
        reports stay deterministic) and stores the actual value in the
        instance ``__dict__`` under a mangled key.
        """
        san = self

        def make_property(attr: str) -> property:
            slot = f"_san_value_{attr}"

            def _cell(inst: Any) -> SharedState:
                idx = inst.__dict__.get("_san_obj")
                if idx is None:
                    with san._guard:
                        idx = san._next_obj
                        san._next_obj += 1
                    inst.__dict__["_san_obj"] = idx
                return san.state(f"{cls.__name__}#{idx}.{attr}")

            def getter(inst: Any) -> Any:
                _cell(inst).read()
                return inst.__dict__[slot]

            def setter(inst: Any, value: Any) -> None:
                _cell(inst).write()
                inst.__dict__[slot] = value

            return property(getter, setter,
                            doc=f"sanitizer-audited {attr}")

        namespace: Dict[str, Any] = {
            "__doc__": f"{cls.__name__} with sanitizer-audited "
                       f"attributes: {', '.join(attrs)}.",
        }
        for attr in attrs:
            namespace[attr] = make_property(attr)
        return type(f"Audited{cls.__name__}", (cls,), namespace)

    # -- shim construction -------------------------------------------------
    def lock(self) -> SanLock:
        """A sanitized non-reentrant lock."""
        return SanLock(self)

    def rlock(self) -> SanLock:
        """A sanitized reentrant lock."""
        return SanLock(self, reentrant=True)

    def condition(self, lock: Optional[SanLock] = None) -> SanCondition:
        """A sanitized condition variable."""
        return SanCondition(self, lock)

    def deque(self, maxlen: Optional[int] = None) -> SanDeque:
        """A sanitized hand-off deque."""
        return SanDeque(self, maxlen=maxlen)

    def thread(self, **kwargs: Any) -> SanThread:
        """A sanitized thread (also what patched ``Thread()`` builds)."""
        return SanThread(**kwargs)

    @contextlib.contextmanager
    def patched(self) -> Iterator["RaceSanitizer"]:
        """Swap ``threading``'s primitives for the shims, scoped.

        Everything constructed inside the block — by product code that
        calls ``threading.Lock()`` / ``RLock()`` / ``Condition()`` /
        ``Thread(...)`` — records happens-before edges.  Only one
        sanitizer can be active per process.

        Raises:
            RuntimeError: when another sanitizer is already patched in.
        """
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another RaceSanitizer is already active")
        _ACTIVE = self
        saved = (threading.Lock, threading.RLock, threading.Condition,
                 threading.Thread, threading.Event)
        threading.Lock = self.lock  # type: ignore[assignment]
        threading.RLock = self.rlock  # type: ignore[assignment]
        threading.Condition = self.condition  # type: ignore[assignment]
        threading.Thread = SanThread  # type: ignore[misc]
        threading.Event = SanEvent  # type: ignore[misc]
        try:
            yield self
        finally:
            (threading.Lock, threading.RLock, threading.Condition,
             threading.Thread, threading.Event) = saved  # type: ignore[misc]
            _ACTIVE = None

    # -- reporting ---------------------------------------------------------
    def report(self) -> RaceReport:
        """The normalized, deterministic :class:`RaceReport`.

        Findings are sorted and deduplicated on
        ``(state, access pair, thread labels)``; thread labels are the
        registration-order ids (``main``, ``T1``, ...), so two runs of
        the same program produce byte-identical JSON no matter how the
        host interleaved them.
        """
        with self._guard:
            findings = [
                error("data_race",
                      f"{pair} on {name} between {labels[0]} and "
                      f"{labels[1]}: no happens-before edge orders "
                      f"the accesses",
                      subject=name)
                for name, pair, labels in sorted(self._findings)]
            targets = tuple(sorted(self._states))
            stats = {"threads": self._next_tid,
                     "states": len(self._states)}
        return RaceReport(layer="sanitizer", targets=targets,
                          findings=sort_findings(findings),
                          stats=stats)


@contextlib.contextmanager
def maybe_sanitized(
    require_clean: bool = True,
) -> Iterator[Optional[RaceSanitizer]]:
    """Run a test body sanitized iff ``REPRO_SAN=1``.

    Yields the active :class:`RaceSanitizer` (or ``None`` when the
    environment leaves the sanitizer off — the tier-1 default, which
    costs nothing).  With ``require_clean`` the block fails loudly if
    any registered state raced.

    Raises:
        AssertionError: when ``require_clean`` and races were found.
    """
    if not enabled():
        yield None
        return
    san = RaceSanitizer()
    with san.patched():
        yield san
    report = san.report()
    if require_clean and not report.ok:
        raise AssertionError(
            "sanitizer found races:\n" + report.format())
