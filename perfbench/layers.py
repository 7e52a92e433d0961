"""Which layer entry points the traced run wraps, and what it reports.

Each per-layer metric names the end-to-end metric and workload it
should move (see ``perfbench/README.md``).  A layer a workload never
reaches reports 0.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from tracer import Tracer, mean

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("serve.handler_self_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.response_kib", "KiB"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.batch_size", "count"),
    ("analyze.preflight_ms", "ms"),
    ("analyze.preflight_calls", "count"),
    ("cache.get_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.put_ms", "ms"),
    ("cache.put_kib", "KiB"),
    ("executor.trial_ms", "ms"),
    ("engine.scenario_ms", "ms"),
    ("agents.team_ms", "ms"),
    ("export.trace_ms", "ms"),
    ("export.trace_share", "share"),
    ("store.auth_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("stream.trial_ms", "ms"),
    ("stream.publish_us", "us"),
    ("stream.frames", "count"),
    ("stream.dropped", "count"),
    ("stream.feed_p50_ms", "ms"),
    ("stream.feed_p95_ms", "ms"),
    ("vector.soa_us_per_trial", "us"),
    ("vector.replay_us_per_trial", "us"),
    ("sweep.validate_ms", "ms"),
    ("sweep.overhead_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("failed_share", "share"),
)


def _dispatch_tag(handlers, method, path, body=b"", *rest, **kwargs):
    """``/run`` buffered vs streamed; other endpoints by path."""
    path = path.partition("?")[0]
    if path == "/run" and b'"stream": true' in (body or b""):
        return "/run:stream"
    return path


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point that exists in the tree under test."""
    batch_s: Dict[int, float] = {}
    plan_paths: Dict[Optional[int], set] = {}

    def cache_get(result, args, span):
        tracer.count("cache.misses" if result is None else "cache.hits")

    def cache_put(result, args, span):
        cache, digest = args[0], args[1]
        try:
            size = os.path.getsize(os.path.join(cache.root, f"{digest}.json"))
        except OSError:
            return
        tracer.value("cache.put_kib", size / 1024)

    def run_batch(result, args, span):
        tasks = args[0]
        tracer.value("serve.batch_size", len(tasks))
        for task in tasks:
            batch_s[id(task)] = span.duration

    def submit(result, args, span):
        inner = batch_s.pop(id(args[1]), None)
        if inner is not None:
            tracer.value("serve.batch_wait_s", span.duration - inner)

    def build_plan(result, args, span):
        plan_paths[span.parent] = {run.path for run in result.runs}

    def vector_cell(result, args, span):
        paths = plan_paths.pop(span.id, set())
        kind = "replay" if "replay" in paths else "soa"
        tracer.count(f"vector.{kind}_s", span.duration)
        tracer.count(f"vector.{kind}_trials", len(args[0]))

    p = tracer.patch
    p("repro.serve.handlers", "ServeHandlers.dispatch", "serve.dispatch",
      tag=_dispatch_tag)
    p("repro.serve.batcher", "MicroBatcher.submit", "serve.submit",
      after=submit)
    p("repro.serve.batcher", "run_batch", "serve.run_batch",
      after=run_batch)
    p("repro.analyze.preflight", "check_cell", "analyze.check_cell")
    p("repro.sweep.cache", "ResultCache.get", "cache.get", after=cache_get)
    p("repro.sweep.cache", "ResultCache.put", "cache.put", after=cache_put)
    p("repro.sweep.executor", "run_trial", "executor.run_trial")
    p("repro.schedule", "run_scenario", "engine.run_scenario")
    p("repro.agents", "make_team", "agents.make_team")
    p("repro.sim.export", "export_trace", "export.export_trace")
    p("repro.store.core", "ResultStore.authenticate", "store.authenticate")
    p("repro.store.core", "ResultStore.get_result", "store.get_result")
    p("repro.store.core", "ResultStore.put_result", "store.put_result")
    for module in ("repro.serve.handlers", "repro.stream",
                   "repro.stream.runner"):
        p(module, "run_streamed_trial", "stream.run_streamed_trial")
    p("repro.stream.bus", "RunStream.publish", "stream.publish")
    for module in ("repro.sim.vector", "repro.sim.vector.engine"):
        p(module, "run_vector_cell", "vector.run_vector_cell",
          after=vector_cell)
    p("repro.sim.vector.engine", "build_cell_plan", "vector.build_cell_plan",
      after=build_plan)
    p("repro.sweep.executor", "validate_cells", "sweep.validate_cells")
    for module in ("repro.sweep", "repro.sweep.executor"):
        p(module, "run_sweep", "sweep.run_sweep")


def install_client(tracer: Tracer) -> None:
    """Record buffered ``/run`` response sizes in the load generator."""
    def client_request(result, args, span):
        path, body = args[2], (args[3] if len(args) > 3 else None)
        if path == "/run" and not (body or {}).get("stream"):
            tracer.value("serve.response_kib", len(result[2]) / 1024)

    tracer.patch("repro.serve.client", "ServeClient.request",
                 "client.request", after=client_request)


def layer_metrics(tracer: Tracer, run_latency_s: List[float]
                  ) -> Dict[str, float]:
    """Per-layer numbers from one traced window.

    ``run_latency_s`` holds the client-side latencies of the buffered
    ``/run`` requests of the same window, for ``serve.transport_ms``.
    Response sizes, stream-feed, drop, overhead and failure figures
    come from the caller; they are absent here.
    """
    selfs = tracer.self_times()
    spans = tracer.by_name()

    def durations(name: str) -> List[float]:
        return [s.duration for s in spans[name]]

    def ms(name: str) -> float:
        return mean(durations(name)) * 1e3

    def per_trial_us(kind: str) -> float:
        trials = tracer.counts.get(f"vector.{kind}_trials", 0.0)
        return tracer.counts[f"vector.{kind}_s"] / trials * 1e6 if trials \
            else 0.0

    dispatch = [s for s in spans["serve.dispatch"] if s.tag == "/run"]
    trial_total = sum(durations("executor.run_trial"))
    out: Dict[str, float] = {
        "serve.handler_self_ms": mean([selfs[s.id] for s in dispatch]) * 1e3,
        "serve.transport_ms": (
            (mean(run_latency_s) - mean([s.duration for s in dispatch]))
            * 1e3 if dispatch else 0.0),
        "serve.batch_wait_ms": mean(tracer.values["serve.batch_wait_s"]) * 1e3,
        "serve.batch_size": mean(tracer.values["serve.batch_size"]),
        "analyze.preflight_ms": ms("analyze.check_cell"),
        "analyze.preflight_calls": float(len(spans["analyze.check_cell"])),
        "cache.get_ms": ms("cache.get"),
        "cache.hits": tracer.counts.get("cache.hits", 0.0),
        "cache.misses": tracer.counts.get("cache.misses", 0.0),
        "cache.put_ms": ms("cache.put"),
        "cache.put_kib": mean(tracer.values["cache.put_kib"]),
        "executor.trial_ms": ms("executor.run_trial"),
        "engine.scenario_ms": ms("engine.run_scenario"),
        "agents.team_ms": ms("agents.make_team"),
        "export.trace_ms": ms("export.export_trace"),
        "export.trace_share": (sum(durations("export.export_trace"))
                               / trial_total if trial_total else 0.0),
        "store.auth_ms": ms("store.authenticate"),
        "store.get_ms": ms("store.get_result"),
        "store.put_ms": ms("store.put_result"),
        "stream.trial_ms": ms("stream.run_streamed_trial"),
        "stream.publish_us": mean(durations("stream.publish")) * 1e6,
        "stream.frames": float(len(spans["stream.publish"])),
        "vector.soa_us_per_trial": per_trial_us("soa"),
        "vector.replay_us_per_trial": per_trial_us("replay"),
        "sweep.validate_ms": ms("sweep.validate_cells"),
        "sweep.overhead_ms": mean(
            [selfs[s.id] for s in spans["sweep.run_sweep"]]) * 1e3,
    }
    return out
