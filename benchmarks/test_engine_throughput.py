"""Engine throughput: the vector backend vs the reference event loop.

Runs one sweep cell's whole trial batch on both engines and prints
the trials/sec comparison table.  Four cells are measured: a
contention-free cell that takes the vector engine's structure-of-arrays
path (where the 10-100x win lives), a layered jordan scenario-2 cell
whose multi-owner cells the same path grades per trial, a contended
scenario-4 cell that takes the contention kernel (each trial's queues
and handoffs stepped on flat state instead of the reference event
loop), and canada scenario 3 at its default 12x24 raster, the
benchmark grid's costliest contended cell (334 strokes, multi-owner
cells graded per trial).
Identity is asserted alongside speed: the vector payloads must carry
bit-identical metrics, so the speedup is never bought with drift.

The acceptance shape (>= 10x on the batched SoA cell) holds on a
single core — the vector engine wins by doing less Python, not by
using more CPUs.  Repeated, spread-reporting numbers for the vector
backend come from ``perfbench/run.py --workload sweep_vector``.
"""

import time

from repro.agents.student import FillStyle
from repro.schedule import AcquirePolicy
from repro.sim.vector import run_vector_cell
from repro.sweep.executor import run_trial
from repro.sweep.spec import SweepCell

from conftest import print_comparison

N_TRIALS = 64

METRICS = ("true_makespan", "measured_time", "correct")


def _cell(scenario: int, flag: str = "mauritius", rows=6,
          cols=8) -> SweepCell:
    return SweepCell(flag=flag, scenario=scenario, team_size=6,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE, rows=rows, cols=cols)


def _tasks(cell: SweepCell, backend: str):
    tasks = [
        {"cell": cell.key_dict(), "cell_key": cell.key(), "seed": 11,
         "n_trials": N_TRIALS, "trial": t, "observe": False}
        for t in range(N_TRIALS)
    ]
    if backend != "reference":
        tasks = [dict(t, backend=backend) for t in tasks]
    return tasks


def _measure(cell: SweepCell):
    """(reference_s, vector_s, identical?) for one cell's full batch."""
    ref_tasks = _tasks(cell, "reference")
    t0 = time.perf_counter()
    ref = [run_trial(task) for task in ref_tasks]
    ref_s = time.perf_counter() - t0

    vec_tasks = _tasks(cell, "vector")
    t0 = time.perf_counter()
    vec = run_vector_cell(vec_tasks)
    vec_s = time.perf_counter() - t0

    identical = all(
        v["runs"][label][m] == r["runs"][label][m]
        for r, v in zip(ref, vec)
        for label in r["runs"] for m in METRICS)
    return ref_s, vec_s, identical


def _entry(path: str, ref_s: float, vec_s: float) -> dict:
    return {
        "path": path,
        "n_trials": N_TRIALS,
        "reference_s": round(ref_s, 4),
        "vector_s": round(vec_s, 4),
        "reference_trials_per_s": round(N_TRIALS / ref_s, 1),
        "vector_trials_per_s": round(N_TRIALS / vec_s, 1),
        "speedup": round(ref_s / vec_s, 1),
    }


def test_vector_batch_throughput(benchmark):
    soa_ref_s, soa_vec_s, soa_identical = benchmark.pedantic(
        lambda: _measure(_cell(3)), rounds=1, iterations=1)
    multi_ref_s, multi_vec_s, multi_identical = _measure(_cell(2, "jordan"))
    replay_ref_s, replay_vec_s, replay_identical = _measure(_cell(4))
    canada_ref_s, canada_vec_s, canada_identical = _measure(
        _cell(3, "canada", rows=None, cols=None))

    assert soa_identical and multi_identical and replay_identical
    assert canada_identical

    soa = _entry("soa", soa_ref_s, soa_vec_s)
    multi = _entry("soa", multi_ref_s, multi_vec_s)
    replay = _entry("replay", replay_ref_s, replay_vec_s)
    canada = _entry("replay", canada_ref_s, canada_vec_s)
    report = {
        "bench": "engine_throughput",
        "cell": "mauritius (jordan for multi-owner) 6x8, team_size=6, "
                "seed=11",
        "batched_soa_scenario3": soa,
        "multi_owner_soa_jordan_scenario2": multi,
        "replay_scenario4": replay,
        "replay_canada_scenario3_12x24": canada,
    }

    print_comparison(
        f"engine throughput: {N_TRIALS}-trial batch, mauritius 6x8", [
            ["soa speedup", ">= 10x", f"{soa['speedup']:.1f}x"],
            ["soa trials/s", "-", f"{soa['vector_trials_per_s']:.0f}"],
            ["multi-owner soa speedup (jordan s2)", "-",
             f"{multi['speedup']:.1f}x"],
            ["contended (s4) speedup", "> 1x", f"{replay['speedup']:.1f}x"],
            ["contended (s4) trials/s", "-",
             f"{replay['vector_trials_per_s']:.0f}"],
            ["contended canada s3 12x24 speedup", "-",
             f"{canada['speedup']:.1f}x"],
        ])
    benchmark.extra_info.update(report)

    # The tentpole acceptance bar: >= 10x on a batched SoA cell.
    assert soa["speedup"] >= 10.0, (
        f"vector engine only {soa['speedup']}x over reference on the "
        f"batched scenario-3 cell")
    # The contention kernel must never be a regression.
    assert replay["speedup"] > 1.0, (
        f"contention kernel slower than reference ({replay['speedup']}x)")
