"""Observability for the simulation engine: spans, metrics, profiling.

The subsystem the performance roadmap hangs off: a span-based tracer
that reconstructs nested timelines from engine events, a Prometheus-
style metrics registry, host wall-clock profiling of engine hot paths,
and exporters for Chrome ``trace_event`` JSON (``chrome://tracing`` /
Perfetto) and plaintext metrics dumps.

Everything hangs off the :class:`Observer` protocol, which the engine
calls only behind ``if observer is not None`` guards — disabled, a run
is byte-identical to an unobserved one; enabled, the observer reads the
event stream but never writes to it, so traces stay deterministic.

Quickstart::

    from repro.obs import RunObserver
    obs = RunObserver()
    result = run_scenario(scenario, spec, team, rng, observer=obs)
    open("trace.json", "w").write(obs.chrome_trace_json())
    print(obs.prometheus())
    print(result.obs.format())
"""

from .spans import Span, SpanBuilder, SpanError, build_spans
from .metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from .profiler import HotPathProfiler, SectionStats
from .chrome import (
    MICROS_PER_SIM_SECOND,
    dump_chrome_trace,
    span_to_trace_event,
    to_chrome_trace,
)
from .summary import ObsSummary
from .observer import NullObserver, Observer, RunObserver

__all__ = [
    "Span",
    "SpanBuilder",
    "SpanError",
    "build_spans",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "HotPathProfiler",
    "SectionStats",
    "MICROS_PER_SIM_SECOND",
    "dump_chrome_trace",
    "span_to_trace_event",
    "to_chrome_trace",
    "ObsSummary",
    "NullObserver",
    "Observer",
    "RunObserver",
]
