"""Tests for the fabric coordinator on healthy fleets.

The headline invariant — fabric results byte-identical to clean serial
``run_sweep`` — plus cache interop (warm re-runs lease nothing), the
metrics surface, the one shared pending queue under a slow-start
straggler, and the configuration / pre-flight gates.
"""

import pytest

from repro.fabric import (
    ChaosPlan,
    FabricConfig,
    FabricCoordinator,
    FabricError,
    SlowStart,
    run_fabric_sweep,
)
from repro.obs import MetricsRegistry
from repro.sweep import ResultCache, SweepError, SweepSpec, run_sweep

SPEC = SweepSpec(flags=("poland",), scenarios=(3, 4), n_trials=2, seed=5)


def assert_identical(a, b):
    """Byte-identity: every trial's every run, traces included."""
    assert len(a.cells) == len(b.cells)
    for ca, cb in zip(a.cells, b.cells):
        assert ca.cell == cb.cell
        assert ca.trials == cb.trials  # frozen dataclasses: trace bytes


class TestConfig:
    def test_defaults_are_valid(self):
        config = FabricConfig()
        assert config.workers == 2
        assert config.worker_names == ["w0", "w1"]

    def test_remote_names_follow_locals(self):
        config = FabricConfig(workers=1, remotes=(("h", 1), ("h", 2)))
        assert config.worker_names == ["w0", "r0", "r1"]

    @pytest.mark.parametrize("kwargs", [
        {"workers": -1},
        {"workers": 0},  # no remotes either -> empty fleet
        {"max_attempts": 0},
        {"retry_base_s": 0.0},
        {"retry_cap_s": -1.0},
        {"hedge_after_s": 0.0},
        {"heartbeat_timeout_s": 0.0},
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(FabricError):
            FabricConfig(**kwargs)


class TestCleanParity:
    def test_fabric_byte_identical_to_serial(self):
        serial = run_sweep(SPEC)
        fabric = run_fabric_sweep(SPEC, FabricConfig(workers=2))
        assert_identical(serial, fabric)
        assert fabric.all_correct
        assert fabric.computed_trials == serial.computed_trials

    def test_single_worker_fabric_matches_too(self):
        serial = run_sweep(SPEC)
        fabric = run_fabric_sweep(SPEC, FabricConfig(workers=1))
        assert_identical(serial, fabric)

    def test_more_workers_than_cells(self):
        spec = SweepSpec(flags=("poland",), scenarios=(3,), n_trials=1,
                         seed=7)
        fabric = run_fabric_sweep(spec, FabricConfig(workers=3))
        assert_identical(run_sweep(spec), fabric)

    def test_fault_plan_cells_ride_the_fabric(self):
        from repro.faults import FaultPlan, TransientStall
        plan = FaultPlan.of([TransientStall(at=5.0, worker=1,
                                            duration=4.0)])
        spec = SweepSpec(flags=("mauritius",), scenarios=(3,),
                         fault_plans=(("clean", None), ("stall", plan)),
                         n_trials=2, seed=11)
        assert_identical(run_sweep(spec),
                         run_fabric_sweep(spec, FabricConfig(workers=2)))


class TestCacheInterop:
    def test_warm_rerun_leases_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        first = FabricCoordinator(SPEC, FabricConfig(workers=2),
                                  cache=cache)
        first.run()
        assert first.stats.computed_cells == 2

        warm = FabricCoordinator(SPEC, FabricConfig(workers=2),
                                 cache=cache)
        result = warm.run()
        assert result.computed_trials == 0
        assert result.cached_trials == SPEC.total_trials
        assert warm.stats.leases == 0
        assert warm.stats.cached_cells == 2
        assert_identical(run_sweep(SPEC), result)

    def test_fabric_warms_the_serial_cache_and_back(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fabric = run_fabric_sweep(SPEC, FabricConfig(workers=2),
                                  cache=cache)
        serial = run_sweep(SPEC, cache=cache)
        assert serial.computed_trials == 0  # fabric entries readable
        assert_identical(fabric, serial)

        spec2 = SweepSpec(flags=("poland",), scenarios=(3,), n_trials=2,
                          seed=6)
        run_sweep(spec2, cache=cache)
        again = FabricCoordinator(spec2, FabricConfig(workers=2),
                                  cache=cache)
        assert again.run().computed_trials == 0  # and the reverse


class TestMetricsAndStats:
    def test_clean_run_metric_surface(self):
        registry = MetricsRegistry()
        coordinator = FabricCoordinator(SPEC, FabricConfig(workers=2),
                                        registry=registry)
        coordinator.run()
        text = registry.render_prometheus()
        for series in ("fabric_leases_total", "fabric_cells_total",
                       "fabric_worker_state"):
            assert series in text, series
        assert registry.counter("fabric_leases_total").value(
            kind="primary") == 2
        assert registry.counter("fabric_cells_total").value(
            source="computed") == 2
        assert coordinator.stats.leases == 2
        assert coordinator.stats.retries == 0
        assert coordinator.stats.duplicates == 0
        assert coordinator.stats.worker_deaths == 0
        # Every computed cell took exactly one lease.
        assert sorted(coordinator.stats.attempts.values()) == [1, 1]

    def test_stats_attempt_keys_are_cell_keys(self):
        coordinator = FabricCoordinator(SPEC, FabricConfig(workers=2))
        coordinator.run()
        assert (set(coordinator.stats.attempts)
                == {c.key() for c in SPEC.cells()})


class TestSlowStarter:
    def test_ready_worker_drains_the_queue_alone(self):
        # w1 shows up late; w0 takes every cell from the shared queue.
        spec = SweepSpec(flags=("poland",), scenarios=(3, 4),
                        team_sizes=(4, 5), n_trials=1, seed=13)
        chaos = ChaosPlan.of([SlowStart(worker="w1", delay_s=30.0)])
        registry = MetricsRegistry()
        coordinator = FabricCoordinator(
            spec, FabricConfig(workers=2, hedge_after_s=None),
            chaos=chaos, registry=registry)
        result = coordinator.run()
        assert_identical(run_sweep(spec), result)
        # One lease per cell, all primaries: w0 computed every cell
        # while w1 was still asleep.
        assert coordinator.stats.leases == 4
        assert set(coordinator.stats.attempts.values()) == {1}
        assert registry.counter("fabric_leases_total").value(
            kind="primary") == 4


class TestGates:
    def test_preflight_rejects_before_spawning(self):
        bad = SweepSpec(flags=("mauritius",), scenarios=(3,),
                        team_sizes=(2,))
        with pytest.raises(SweepError, match="static analysis"):
            run_fabric_sweep(bad, FabricConfig(workers=2))

    def test_coordinator_runs_exactly_once(self):
        coordinator = FabricCoordinator(SPEC, FabricConfig(workers=2))
        coordinator.run()
        with pytest.raises(FabricError, match="exactly once"):
            coordinator.run()
