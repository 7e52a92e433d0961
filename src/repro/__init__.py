"""flagsim — a simulation reproduction of the unplugged flag-coloring
activity from "A Visual Unplugged Activity to Introduce PDC" (IPDPSW 2025).

The library models the entire activity end-to-end:

- :mod:`repro.grid` — the gridded paper (numpy raster, region algebra).
- :mod:`repro.flags` — flags as layered paint programs + decompositions.
- :mod:`repro.sim` — a deterministic discrete-event simulation kernel.
- :mod:`repro.agents` — students as processors, implements as hardware.
- :mod:`repro.schedule` — the four scenarios, dynamic/pipelined/layered
  scheduling strategies.
- :mod:`repro.depgraph` — dependency graphs, the Jordan exercise, and the
  Section V-C grading rubric.
- :mod:`repro.metrics` — speedup laws, load balance, contention, warmup.
- :mod:`repro.obs` — observability: spans, metrics registry, profiling,
  Chrome-trace and Prometheus exporters.
- :mod:`repro.faults` — deterministic fault injection and recovery.
- :mod:`repro.sweep` — declarative experiment sweeps: process-pool
  trial fan-out with SeedSequence-derived streams and a
  content-addressed on-disk result cache.
- :mod:`repro.serve` — the async simulation service: an HTTP/JSON
  server with one compute executor, admission control (429 backpressure),
  cache-backed responses, and graceful drain.
- :mod:`repro.fabric` — fault-tolerant distributed sweeps: cell leases
  over local subprocess workers and remote serve endpoints, heartbeat
  health, retries, hedging, work stealing, deterministic self-chaos.
- :mod:`repro.classroom` — whole-class sessions at the six pilot sites and
  automatic debrief lesson extraction.
- :mod:`repro.survey` — the ASPECT engagement survey, the pre/post quiz,
  calibrated synthetic populations, open-ended theme coding.
- :mod:`repro.viz` — terminal bar charts, Gantt charts, tables, flag art.
- :mod:`repro.data` — the paper's published numbers as constants.

Quickstart::

    import numpy as np
    from repro.flags import mauritius
    from repro.agents import make_team
    from repro.schedule import run_core_activity

    rng = np.random.default_rng(42)
    spec = mauritius()
    team = make_team("team1", 4, rng, colors=list(spec.colors_used()))
    results = run_core_activity(spec, team, rng)
    for label, r in results.items():
        print(label, f"{r.measured_time:.0f}s")
"""

__version__ = "1.0.0"

from . import agents, classroom, data, depgraph, flags, grid, metrics
from . import obs, schedule, serve, sim, survey, viz

__all__ = [
    "__version__",
    "agents",
    "classroom",
    "data",
    "depgraph",
    "flags",
    "grid",
    "metrics",
    "obs",
    "schedule",
    "serve",
    "sim",
    "survey",
    "viz",
]
