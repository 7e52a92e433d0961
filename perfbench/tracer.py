"""Timing shims for the traced benchmark run.

The traced run wraps the public entry points of each flagsim layer
with a shim that calls the original and records one span: name,
start, end, parent and an optional tag.  Nothing in ``src/`` changes:
a shim replaces a name where its caller looks it up at call time — a
module attribute that call sites import inside the function body
(``run_trial`` imports ``repro.schedule.run_scenario`` that way), or a
method on its class.

Parents come from a context variable, so they follow one thread and
one asyncio task.  A call that hops threads (``run_in_executor``)
starts a new root, and its layer is reported as a total, not as a
child.  Layers missing from an older ``src/`` tree are skipped.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    """One recorded call of a wrapped layer entry point."""

    __slots__ = ("name", "start", "end", "id", "parent", "tag")

    def __init__(self, name: str, start: float, end: float, span_id: int,
                 parent: Optional[int], tag: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.id = span_id
        self.parent = parent
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters in memory, plus the shims that feed them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self.installed: List[str] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter (thread-safe)."""
        with self._lock:
            self.counts[name] += amount

    def value(self, name: str, sample: float) -> None:
        """Record one sample of a named quantity (thread-safe)."""
        with self._lock:
            self.values[name].append(sample)

    def _record(self, name: str, start: float, span_id: int,
                parent: Optional[int], tag: Optional[str]) -> Span:
        span = Span(name, start, time.perf_counter(), span_id, parent, tag)
        with self._lock:
            self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable, *,
             tag: Optional[Callable[..., Optional[str]]] = None,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """A shim around ``fn`` that records a span per call.

        ``tag(*args, **kwargs)`` labels the span; ``after(result, args,
        span)`` runs once the call returned, to count what it did.
        """
        current = self._current
        ids = self._ids

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_shim(*args, **kwargs):
                span_id = next(ids)
                parent = current.get()
                label = tag(*args, **kwargs) if tag is not None else None
                token = current.set(span_id)
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span = self._record(name, start, span_id, parent, label)
                    current.reset(token)
                if after is not None:
                    after(result, args, span)
                return result
            return async_shim

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            label = tag(*args, **kwargs) if tag is not None else None
            token = current.set(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._record(name, start, span_id, parent, label)
                current.reset(token)
            if after is not None:
                after(result, args, span)
            return result
        return shim

    def patch(self, module_name: str, attr: str, span: str,
              **options: Any) -> bool:
        """Rebind ``module.attr`` (or ``module.Class.method``) to a shim.

        Returns ``False``, patching nothing, when the module or the
        name does not exist in the ``src/`` tree under test.
        """
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            return False
        setattr(owner, name, self.wrap(span, original, **options))
        self._undo.append((owner, name, original))
        self.installed.append(f"{module_name}.{attr}")
        return True

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- aggregation -----------------------------------------------------

    def by_name(self) -> Dict[str, List[Span]]:
        """Recorded spans grouped by layer entry point."""
        groups: Dict[str, List[Span]] = defaultdict(list)
        for s in self.spans:
            groups[s.name].append(s)
        return groups

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus what its children cover.

        Children are clipped to the parent's interval and merged, so
        overlapping children (or a child task outliving its parent)
        are never subtracted twice.
        """
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: Dict[int, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo = max(c.start, cursor)
                hi = min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.id] = s.duration - covered
        return out


def mean(values: List[float]) -> float:
    """Arithmetic mean; 0.0 for a layer the workload never reached."""
    return sum(values) / len(values) if values else 0.0
