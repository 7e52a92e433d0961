"""Backend wiring through the sweep executor, serve API, and fabric.

The contract tests (``test_backend_contract.py``) pin selection rules
and the parity suite (``test_vector_parity.py``) pins per-trial bytes;
these tests pin the *plumbing*: ``run_sweep(backend=...)``, cache
address separation, the serve protocol's ``"backend"`` field, and
vector leases on the fabric.
"""

from __future__ import annotations

import pytest

from repro.fabric import FabricConfig, run_fabric_sweep
from repro.serve.client import ServeError
from repro.serve.server import BackgroundServer, ServeConfig
from repro.sim.backend import BackendError
from repro.sweep.executor import cell_address, run_sweep
from repro.sweep.spec import SweepSpec

SPEC = SweepSpec(flags=("mauritius", "japan"), scenarios=(1, 3),
                 team_sizes=(6,), n_trials=3, seed=11, rows=6, cols=8)


def _metrics(result):
    return [
        (c.cell.key(), t.trial, label,
         r.true_makespan, r.measured_time, r.correct, r.n_workers)
        for c in result.cells for t in c.trials
        for label, r in t.runs.items()
    ]


class TestSweepBackend:
    def test_vector_matches_reference_metrics(self):
        ref = run_sweep(SPEC)
        vec = run_sweep(SPEC, backend="vector")
        assert _metrics(vec) == _metrics(ref)
        assert vec.computed_trials == ref.computed_trials

    def test_vector_payloads_carry_no_trace(self):
        vec = run_sweep(SPEC, backend="vector")
        assert all(r.trace is None for c in vec.cells
                   for t in c.trials for r in t.runs.values())

    def test_parallel_vector_equals_serial(self):
        serial = run_sweep(SPEC, backend="vector")
        parallel = run_sweep(SPEC, backend="vector", workers=2)
        assert _metrics(parallel) == _metrics(serial)

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError):
            run_sweep(SPEC, backend="warp")

    def test_reference_address_unchanged_by_backend_param(self):
        # Pre-backend caches must stay warm: the reference address is
        # byte-identical with and without the (default) backend arg.
        cell = SPEC.cells()[0]
        legacy = cell_address(cell, seed=SPEC.seed, n_trials=SPEC.n_trials,
                              observe=False)
        assert cell_address(cell, seed=SPEC.seed, n_trials=SPEC.n_trials,
                            observe=False, backend="reference") == legacy
        assert cell_address(cell, seed=SPEC.seed, n_trials=SPEC.n_trials,
                            observe=False, backend="vector") != legacy

    def test_cache_separation_and_warm_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold_ref = run_sweep(SPEC, cache_dir=cache_dir)
        cold_vec = run_sweep(SPEC, backend="vector", cache_dir=cache_dir)
        # Vector results never collide with reference entries ...
        assert cold_vec.cached_trials == 0
        assert cold_vec.computed_trials == cold_ref.computed_trials
        # ... and both warm up independently.
        warm_ref = run_sweep(SPEC, cache_dir=cache_dir)
        warm_vec = run_sweep(SPEC, backend="vector", cache_dir=cache_dir)
        for warm, cold in ((warm_ref, cold_ref), (warm_vec, cold_vec)):
            assert warm.computed_trials == 0
            assert warm.cached_trials == SPEC.n_cells * SPEC.n_trials
            assert _metrics(warm) == _metrics(cold)

    def test_auto_with_observer_falls_back_to_reference(self):
        result = run_sweep(SPEC, backend="auto", observe=True)
        assert all(r.obs is not None and r.trace is not None
                   for c in result.cells for t in c.trials
                   for r in t.runs.values())


class TestServeBackend:
    @pytest.fixture(scope="class")
    def server(self):
        with BackgroundServer(ServeConfig()) as bg:
            yield bg

    def test_run_vector_parity_and_no_trace(self, server):
        client = server.client()
        kwargs = dict(flag="mauritius", scenario=3, seed=9, team_size=6,
                      rows=6, cols=8)
        ref = client.run(**kwargs)["trial"]["runs"]["scenario3"]
        vec = client.run(backend="vector",
                         **kwargs)["trial"]["runs"]["scenario3"]
        for metric in ("true_makespan", "measured_time", "correct"):
            assert vec[metric] == ref[metric]
        assert "trace" in ref and "trace" not in vec

    def test_task_backend_field(self, server):
        client = server.client()
        cell = SPEC.cells()[0].key_dict()
        ref = client.task(cell, seed=9, n_trials=2, trial=1)
        vec = client.task(cell, seed=9, n_trials=2, trial=1,
                          backend="vector")
        ref_run = ref["trial"]["runs"]["scenario1"]
        vec_run = vec["trial"]["runs"]["scenario1"]
        assert vec_run["measured_time"] == ref_run["measured_time"]

    def test_sweep_backend_field(self, server):
        client = server.client()
        kwargs = dict(flags=["mauritius"], scenarios=[3], team_sizes=[6],
                      rows=6, cols=8, n_trials=2, seed=4)
        ref = client.sweep(**kwargs)
        vec = client.sweep(backend="vector", **kwargs)
        assert vec["rows"] == ref["rows"]
        assert vec["computed_trials"] == ref["computed_trials"]

    def test_unknown_backend_is_400(self, server):
        with pytest.raises(ServeError) as err:
            server.client().run(flag="mauritius", backend="warp")
        assert err.value.status == 400
        assert err.value.code == "bad_field"

    def test_unsupported_explicit_vector_is_422(self, server):
        with pytest.raises(ServeError) as err:
            server.client().run(flag="mauritius", scenario=3, team_size=6,
                                backend="vector", observe=True)
        assert err.value.status == 422
        assert err.value.code == "backend_unsupported"

    def test_auto_falls_back_for_observers(self, server):
        reply = server.client().run(flag="mauritius", scenario=3,
                                    team_size=6, backend="auto",
                                    observe=True)
        run = reply["trial"]["runs"]["scenario3"]
        assert "trace" in run and "obs" in run


class TestFabricBackend:
    def test_vector_leases_match_reference_metrics(self):
        ref = run_sweep(SPEC)
        fab = run_fabric_sweep(
            SPEC, FabricConfig(workers=2, hedge_after_s=None),
            backend="vector")
        assert _metrics(fab) == _metrics(ref)
        assert all(t.runs[label].trace is None
                   for c in fab.cells for t in c.trials
                   for label in t.runs)
