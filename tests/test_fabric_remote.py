"""Remote fabric workers: leases executed over ``POST /task``.

A live ``repro serve`` instance on a background thread backs remote
workers; the coordinator must produce byte-identical results whether a
cell was computed by a local subprocess or a remote endpoint — and
must route around a remote worker that drops its link mid-sweep, and
must retry only the cell, not write off the worker, when one reply
goes bad.
"""

import http.client
import threading

import pytest

from repro.fabric import (
    ChaosPlan,
    FabricConfig,
    FabricCoordinator,
    WorkerCrash,
    run_fabric_sweep,
)
from repro.serve import BackgroundServer, ServeClient, ServeConfig
from repro.sweep import SweepSpec, run_sweep

SPEC = SweepSpec(flags=("poland",), scenarios=(3, 4), n_trials=2, seed=19)


def assert_identical(a, b):
    """Byte-identity: every trial's every run, traces included."""
    assert len(a.cells) == len(b.cells)
    for ca, cb in zip(a.cells, b.cells):
        assert ca.cell == cb.cell
        assert ca.trials == cb.trials  # frozen dataclasses: trace bytes


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServeConfig()) as bg:
        yield bg


class TestRemoteWorkers:
    def test_remote_only_fleet_is_byte_identical(self, server):
        config = FabricConfig(workers=0,
                              remotes=(("127.0.0.1", server.port),))
        result = run_fabric_sweep(SPEC, config)
        assert_identical(run_sweep(SPEC), result)

    def test_mixed_local_and_remote_fleet(self, server):
        registry_spec = SweepSpec(flags=("poland",), scenarios=(3, 4),
                                  team_sizes=(4, 5), n_trials=1, seed=23)
        coordinator = FabricCoordinator(
            registry_spec,
            FabricConfig(workers=1,
                         remotes=(("127.0.0.1", server.port),)))
        result = coordinator.run()
        assert_identical(run_sweep(registry_spec), result)
        # Both halves of the fleet did real work.
        assert coordinator.stats.leases >= 4

    def test_two_remotes_share_one_server(self, server):
        config = FabricConfig(
            workers=0,
            remotes=(("127.0.0.1", server.port),
                     ("127.0.0.1", server.port)))
        result = run_fabric_sweep(SPEC, config)
        assert_identical(run_sweep(SPEC), result)

    def test_crashing_remote_routed_around(self, server):
        # Chaos crash on a remote worker = it drops its coordinator
        # link; the local worker absorbs the re-lease.
        chaos = ChaosPlan.of([WorkerCrash(worker="r0", on_lease=1)])
        coordinator = FabricCoordinator(
            SPEC,
            FabricConfig(workers=1,
                         remotes=(("127.0.0.1", server.port),),
                         retry_base_s=0.01, retry_cap_s=0.05,
                         hedge_after_s=None),
            chaos=chaos)
        result = coordinator.run()
        assert_identical(run_sweep(SPEC), result)
        assert coordinator.stats.worker_deaths == 1
        assert coordinator.stats.retries == 1

    def test_bad_reply_retries_the_cell_not_the_worker(self, server,
                                                        monkeypatch):
        # The client re-raises a truncated body once its own retries
        # run out; the worker must report a lease error (one cell
        # retried) rather than die and take the whole fleet with it.
        real_task = ServeClient.task
        lock = threading.Lock()
        calls = []

        def flaky_task(self, *args, **kwargs):
            with lock:
                calls.append(None)
                first = len(calls) == 1
            if first:
                raise http.client.IncompleteRead(b"")
            return real_task(self, *args, **kwargs)

        monkeypatch.setattr(ServeClient, "task", flaky_task)
        coordinator = FabricCoordinator(
            SPEC,
            FabricConfig(workers=0,
                         remotes=(("127.0.0.1", server.port),),
                         retry_base_s=0.01, retry_cap_s=0.05,
                         hedge_after_s=None))
        result = coordinator.run()
        assert_identical(run_sweep(SPEC), result)
        assert coordinator.stats.worker_deaths == 0
        assert coordinator.stats.retries == 1
