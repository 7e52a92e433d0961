"""Fabric scaling: cells/s for 1 vs N workers, and the cost of a crash.

The acceptance bench for :mod:`repro.fabric`: the same grid run on a
1-worker fleet, an N-worker fleet, and an N-worker fleet where one
worker is scripted to crash on its first lease.  All three must be
byte-identical to a clean serial :func:`~repro.sweep.run_sweep`; the
crash run must additionally show exactly one death and one retry.

Throughput (cells/s) for each fleet plus the crash-recovery overhead
ratio are printed; they come from one unrepeated round, so they are a
shape check, not a measurement (``perfbench/`` holds those).  There is no
``cpu_count`` speedup gate: on the 1-core container this repo grows on
a wider fleet is pure overhead, so the only assertions are the ones
that hold on any hardware — identity, exact recovery bookkeeping, and
the sweep finishing despite the crash.
"""

import time

from repro.fabric import (ChaosPlan, FabricConfig, FabricCoordinator,
                          WorkerCrash)
from repro.sweep import SweepSpec, run_sweep

from conftest import print_comparison

N_WORKERS = 2


def fabric_spec() -> SweepSpec:
    # Four cells x four trials: enough leases that distribution and
    # recovery are visible, small enough to stay a quick bench.
    return SweepSpec(flags=("poland",), scenarios=(3, 4),
                     team_sizes=(4, 5), n_trials=4, seed=29)


def timed_fabric(config, chaos=()):
    coordinator = FabricCoordinator(fabric_spec(), config, chaos=chaos)
    t0 = time.perf_counter()
    result = coordinator.run()
    return coordinator, result, time.perf_counter() - t0


def assert_identical(a, b):
    assert len(a.cells) == len(b.cells)
    for ca, cb in zip(a.cells, b.cells):
        assert ca.cell == cb.cell
        assert ca.trials == cb.trials


def test_fabric_throughput_and_crash_overhead(benchmark):
    spec = fabric_spec()
    serial = run_sweep(spec)

    _, single, single_wall = timed_fabric(
        FabricConfig(workers=1, hedge_after_s=None))
    _, fleet, fleet_wall = benchmark.pedantic(
        lambda: timed_fabric(FabricConfig(workers=N_WORKERS,
                                          hedge_after_s=None)),
        rounds=1, iterations=1)
    chaos = ChaosPlan.of([WorkerCrash(worker="w0", on_lease=1)])
    crashed_coord, crashed, crashed_wall = timed_fabric(
        FabricConfig(workers=N_WORKERS, retry_base_s=0.01,
                     retry_cap_s=0.05, hedge_after_s=None),
        chaos=chaos)

    # Identity holds on every fleet shape, crash included.
    assert_identical(serial, single)
    assert_identical(serial, fleet)
    assert_identical(serial, crashed)
    # Exact recovery bookkeeping for the scripted crash.
    assert crashed_coord.stats.worker_deaths == 1
    assert crashed_coord.stats.retries == 1

    n_cells = spec.n_cells
    overhead = crashed_wall / fleet_wall if fleet_wall else float("inf")
    report = {
        "bench": "fabric_scaling",
        "cells": n_cells,
        "trials_per_cell": spec.n_trials,
        "workers": N_WORKERS,
        "single_worker": {
            "wall_s": round(single_wall, 4),
            "cells_per_s": round(n_cells / single_wall, 2),
        },
        "fleet": {
            "wall_s": round(fleet_wall, 4),
            "cells_per_s": round(n_cells / fleet_wall, 2),
        },
        "crash_one_worker": {
            "wall_s": round(crashed_wall, 4),
            "cells_per_s": round(n_cells / crashed_wall, 2),
            "worker_deaths": crashed_coord.stats.worker_deaths,
            "retries": crashed_coord.stats.retries,
            "overhead_vs_clean_fleet": round(overhead, 2),
        },
    }
    print_comparison(
        f"fabric scaling: {n_cells} cells x {spec.n_trials} trials", [
            ["1 worker", "-",
             f"{report['single_worker']['cells_per_s']:.1f} cells/s"],
            [f"{N_WORKERS} workers", "-",
             f"{report['fleet']['cells_per_s']:.1f} cells/s"],
            ["crash 1 worker", "finishes, byte-identical",
             f"{report['crash_one_worker']['cells_per_s']:.1f} cells/s"],
            ["crash overhead", "bounded", f"{overhead:.2f}x"],
        ])
    benchmark.extra_info.update(report)
