"""The engine-facing observer protocol and its standard implementation.

The contract with :class:`~repro.sim.engine.Simulator` is deliberately
one-sided: the engine calls observer hooks *only* behind
``if self.observer is not None`` guards, never allocates on their
behalf, and never lets an observer touch the event log or the
deterministic sequence counter.  With no observer attached, the run is
byte-identical to a pre-observability build (a regression test pins
this); with one attached, the event stream itself is still untouched —
observers read, they do not write.

:class:`Observer` is the abstract hook set (all no-ops — subclass and
override what you need).  :class:`RunObserver` is the batteries-included
implementation: it builds nested spans, accumulates metrics, profiles
host time, and exports Chrome traces, Prometheus text, and an
:class:`~repro.obs.summary.ObsSummary`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..sim.events import Event, EventKind
from .chrome import dump_chrome_trace, to_chrome_trace
from .metrics import MetricsRegistry
from .profiler import HotPathProfiler
from .spans import SpanBuilder
from .summary import ObsSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


class Observer:
    """Hook set the simulator calls when observability is enabled.

    Every hook is a no-op here; subclasses override the ones they care
    about.  Hooks run synchronously inside the engine loop, so they
    must not mutate simulation state (resources, the heap, the event
    list) — they are read-only taps.
    """

    def on_run_start(self, sim: "Simulator") -> None:
        """The engine entered :meth:`~repro.sim.engine.Simulator.run`."""

    def on_run_end(self, sim: "Simulator", makespan: float) -> None:
        """The run completed (or paused at its ``until`` horizon)."""

    def on_event(self, event: Event) -> None:
        """One :class:`~repro.sim.events.Event` was logged."""

    def on_dispatch_start(self, process: str, time: float) -> None:
        """A scheduler dispatch (process step or kernel call) begins."""

    def on_dispatch_end(self, process: str, time: float) -> None:
        """The dispatch that just started has finished."""

    def on_recovery(self, action: str, start: float, end: float,
                    **tags: Any) -> None:
        """A recovery action with a real time window was scheduled.

        Args:
            action: what recovery did ("redistribute_pickup",
                "spare_fetch", ...).
            start: simulated time the window opens.
            end: simulated time the window closes.
            tags: action-specific payload (resource, agent, n_ops, ...).
        """


class NullObserver(Observer):
    """An explicitly-disabled observer (identical to passing ``None``,
    but lets call sites keep a non-optional reference)."""


class RunObserver(Observer):
    """Spans + metrics + profiling for one simulated run.

    Attach it to a simulator (``Simulator(observer=RunObserver())`` or
    via :meth:`~repro.sim.engine.Simulator.attach_observer`), run, then
    pull any of the three products::

        obs = RunObserver()
        result = run_scenario(..., observer=obs)
        doc = obs.chrome_trace()          # load in ui.perfetto.dev
        text = obs.prometheus()           # metrics dump
        print(obs.summary().format())     # or result.obs.format()

    Args:
        dispatch_spans: also record one instant span per scheduler
            dispatch on the ``engine`` track (cheap runs only — this is
            O(dispatches) spans).
        time_fn: host clock injected into the profiler (tests pass a
            fake; default :func:`time.perf_counter`).
    """

    def __init__(self, *, dispatch_spans: bool = False,
                 time_fn: Optional[Callable[[], float]] = None) -> None:
        self.spans = SpanBuilder()
        self.metrics = MetricsRegistry()
        self.profiler = HotPathProfiler(time_fn=time_fn)
        self.dispatch_spans = dispatch_spans
        self.events_seen = 0
        self.makespan = 0.0
        self._run_sid: Optional[int] = None
        self._finished = False
        self._dispatch_t0: Optional[float] = None
        self._dispatch_process = ""
        # sampled series for the Chrome "C" counter track
        self._waiting_now = 0
        self._wait_series: List[Tuple[float, float]] = []
        self._declare_metrics()

    def _declare_metrics(self) -> None:
        """Create the standard metric set up front (stable dump layout)."""
        m = self.metrics
        m.counter("events_logged_total", "engine events appended to the log")
        m.counter("events_dispatched_total",
                  "scheduler dispatches (process steps + kernel calls)")
        m.counter("strokes_total", "cells colored")
        m.counter("handoffs_total", "implement handoffs between agents")
        m.counter("faults_injected_total", "fault-plan entries that fired")
        m.counter("ops_reassigned_total",
                  "strokes moved to a survivor after a dropout")
        m.counter("ops_abandoned_total", "strokes never executed")
        m.counter("stalls_total", "transient stalls ridden out")
        m.histogram("resource_wait_seconds",
                    "time queued for an implement, per resource")
        m.histogram("stroke_seconds", "per-cell coloring time")
        m.gauge("run_makespan_seconds", "simulated makespan of the run")
        m.gauge("run_processes", "processes registered with the engine")

    # -- engine hooks ------------------------------------------------------
    def on_run_start(self, sim: "Simulator") -> None:
        """Open the run envelope (idempotent across resumed runs)."""
        self.profiler.start_run()
        if self._run_sid is None:
            self._run_sid = self.spans.begin(
                "run", "run", "engine", sim.now)
        self._finished = False

    def on_run_end(self, sim: "Simulator", makespan: float) -> None:
        """Close the run envelope and finalize gauges."""
        self.profiler.end_run()
        self.makespan = max(self.makespan, makespan)
        self.metrics.gauge("run_makespan_seconds").set(self.makespan)
        self.metrics.gauge("run_processes").set(len(sim._procs))
        self._finalize()

    def _finalize(self) -> None:
        """Close every open span at the observed makespan."""
        if self._run_sid is not None:
            run_span = self.spans.spans[self._run_sid]
            if run_span.end is None or run_span.end < self.makespan:
                run_span.end = self.makespan
        self.spans.finish(self.makespan)
        self._finished = True

    def on_event(self, event: Event) -> None:
        """Feed the span builder and fold the event into the metrics."""
        self.events_seen += 1
        self.makespan = max(self.makespan, event.time)
        m = self.metrics
        m.counter("events_logged_total").inc()
        kind, data = event.kind, event.data
        if kind == EventKind.HANDOFF:
            m.counter("handoffs_total").inc()
        elif kind == EventKind.FAULT_INJECTED:
            m.counter("faults_injected_total").inc(
                fault=str(data.get("fault", "unknown")))
        elif kind == EventKind.OP_REASSIGNED:
            m.counter("ops_reassigned_total").inc(
                float(data.get("n_ops", 1)))
        elif kind == EventKind.OP_ABANDONED:
            m.counter("ops_abandoned_total").inc(
                float(data.get("n_ops", 1)),
                reason=str(data.get("reason", "unknown")))
        elif kind == EventKind.STALL:
            m.counter("stalls_total").inc()
        elif kind == EventKind.RESOURCE_REQUEST:
            self._waiting_now += 1
            self._wait_series.append((event.time, float(self._waiting_now)))
        elif kind == EventKind.RESOURCE_ACQUIRE:
            self._waiting_now = max(0, self._waiting_now - 1)
            self._wait_series.append((event.time, float(self._waiting_now)))
        for span in self.spans.feed(event):
            if span.category == "wait":
                m.histogram("resource_wait_seconds").observe(
                    span.duration,
                    resource=str(span.tags.get("resource")))
            elif span.category == "stroke":
                m.histogram("stroke_seconds").observe(span.duration)
                m.counter("strokes_total").inc(
                    agent=span.track)

    def on_dispatch_start(self, process: str, time: float) -> None:
        """Start the host-time stopwatch for one dispatch."""
        self._dispatch_process = process
        self._dispatch_t0 = self.profiler.time_fn()

    def on_dispatch_end(self, process: str, time: float) -> None:
        """Stop the stopwatch, credit the section, bump the counter."""
        section = "kernel_call" if process == "<kernel>" else "dispatch"
        if self._dispatch_t0 is not None:
            self.profiler.add(section,
                              self.profiler.time_fn() - self._dispatch_t0)
            self._dispatch_t0 = None
        self.metrics.counter("events_dispatched_total").inc(kind=section)
        if self.dispatch_spans:
            self.spans.instant(f"dispatch:{process}", "dispatch", "engine",
                               time, process=process)

    def on_recovery(self, action: str, start: float, end: float,
                    **tags: Any) -> None:
        """Record a recovery window as a span on the ``recovery`` track."""
        sid = self.spans.begin(action, "recovery", "recovery", start, **tags)
        self.spans.end(sid, end)

    # -- products ----------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        """The run as a Chrome ``trace_event`` JSON document."""
        if not self._finished:
            self._finalize()
        return to_chrome_trace(
            self.spans.spans,
            counters={"agents_waiting": self._wait_series})

    def chrome_trace_json(self, indent: Optional[int] = None) -> str:
        """The Chrome trace serialized to JSON text."""
        return dump_chrome_trace(self.chrome_trace(), indent=indent)

    def prometheus(self) -> str:
        """The metrics registry as Prometheus text exposition."""
        return self.metrics.render_prometheus()

    def summary(self) -> ObsSummary:
        """Condense everything into an :class:`ObsSummary`."""
        if not self._finished:
            self._finalize()
        snapshot = self.metrics.snapshot()
        counters = {k: v for k, v in snapshot.items()
                    if not (k.endswith("_sum") or k.endswith("_count"))}
        histograms = {k: v for k, v in snapshot.items()
                      if k.endswith("_sum") or k.endswith("_count")}
        return ObsSummary(
            makespan=self.makespan,
            n_events=self.events_seen,
            n_spans=len(self.spans.spans),
            counters=counters,
            histograms=histograms,
            profile=self.profiler.report(simulated_seconds=self.makespan),
        )
