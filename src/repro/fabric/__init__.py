"""A fault-tolerant distributed sweep fabric.

Where :mod:`repro.sweep` fans trials across a local process pool and
:mod:`repro.serve` exposes single trials over HTTP, this package makes
sweeps survive the machines that run them: a coordinator partitions a
:class:`~repro.sweep.spec.SweepSpec`'s cells across a fleet of workers
— local subprocesses, remote ``repro serve`` endpoints, or both — and
keeps the sweep correct through worker crashes, stalls, slow starts,
and silently dropped responses.

The headline invariant: **a fabric sweep under any chaos plan is
byte-identical to a clean serial** ``run_sweep``.  Trials are pure
functions of their task dicts, so the coordinator can retry and hedge
leases freely — recovery changes *scheduling*, never bytes.

- :mod:`~repro.fabric.coordinator` — one pending queue of cells,
  leases with per-trial heartbeats, EOF-based death detection,
  full-jitter backoff retries, hedged requests for stragglers.
- :mod:`~repro.fabric.worker` — the lease loop every worker runs, and
  the local worker process; one private duplex pipe per worker, so a
  SIGKILL is one EOF, never a wedged shared queue.
- :mod:`~repro.fabric.remote` — the same lease loop speaking
  ``POST /task`` to a ``repro serve`` endpoint.
- :mod:`~repro.fabric.chaos` — deterministic self-chaos scripted on
  lease ordinals (crash, stall, slow start, dropped response).

Quickstart::

    from repro.fabric import FabricConfig, run_fabric_sweep
    from repro.sweep import SweepSpec

    spec = SweepSpec(flags=("mauritius",), scenarios=(3, 4),
                     n_trials=4, seed=0)
    result = run_fabric_sweep(spec, FabricConfig(workers=2),
                              cache_dir=".sweep-cache")
    assert result.all_correct
"""

from .chaos import (
    ChaosError,
    ChaosPlan,
    DroppedResponse,
    SlowStart,
    WorkerCrash,
    WorkerStall,
)
from .coordinator import (
    FabricConfig,
    FabricCoordinator,
    FabricError,
    FabricStats,
    run_fabric_sweep,
)

__all__ = [
    "ChaosError",
    "ChaosPlan",
    "DroppedResponse",
    "FabricConfig",
    "FabricCoordinator",
    "FabricError",
    "FabricStats",
    "SlowStart",
    "WorkerCrash",
    "WorkerStall",
    "run_fabric_sweep",
]
