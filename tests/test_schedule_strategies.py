"""Tests for repro.schedule.strategies — dynamic self-scheduling."""

import json

import numpy as np
import pytest

from repro.agents import make_team
from repro.flags import (compile_flag, diagonal_bicolor, france, mauritius,
                         single)
from repro.grid.palette import MAURITIUS_STRIPES, Color
from repro.schedule.runner import run_partition
from repro.schedule.strategies import StrategyError, chunk_sweep, run_dynamic
from repro.sim.export import export_events


def fresh_team(seed=0, n=4, colors=None):
    return make_team("t", n, np.random.default_rng(seed),
                     colors=colors or list(MAURITIUS_STRIPES))


class TestRunDynamic:
    def test_produces_correct_flag(self):
        prog = compile_flag(mauritius())
        r = run_dynamic(prog, fresh_team(), 4, np.random.default_rng(0))
        assert r.correct
        assert r.canvas.n_colored() == prog.n_ops

    def test_all_workers_participate(self):
        prog = compile_flag(mauritius())
        r = run_dynamic(prog, fresh_team(), 4, np.random.default_rng(0),
                        chunk=2)
        counts = r.canvas.agent_cell_counts()
        assert len(counts) == 4
        assert all(v > 0 for v in counts.values())

    def test_single_worker_dynamic_equals_whole_program(self):
        prog = compile_flag(mauritius())
        r = run_dynamic(prog, fresh_team(n=1), 1, np.random.default_rng(0))
        assert r.correct
        assert r.canvas.agent_cell_counts() == {"t.P1": 96}

    def test_validation(self):
        prog = compile_flag(mauritius())
        with pytest.raises(StrategyError):
            run_dynamic(prog, fresh_team(), 0, np.random.default_rng(0))
        with pytest.raises(StrategyError):
            run_dynamic(prog, fresh_team(), 2, np.random.default_rng(0),
                        chunk=0)

    def test_dynamic_balances_uneven_work(self):
        """On a diagonal flag, dynamic splits busy time more evenly than a
        vertical-slice static split does across worker speeds."""
        spec = diagonal_bicolor()
        prog = compile_flag(spec)
        colors = list(spec.colors_used())
        r = run_dynamic(prog, fresh_team(colors=colors, n=2), 2,
                        np.random.default_rng(3), chunk=1)
        assert r.correct
        busy = [s.busy for s in r.trace.summaries()]
        assert max(busy) / max(min(busy), 1e-9) < 2.0

    def test_extra_metadata(self):
        prog = compile_flag(mauritius())
        r = run_dynamic(prog, fresh_team(), 2, np.random.default_rng(0),
                        chunk=7)
        assert r.extra["chunk"] == 7
        assert r.strategy == "dynamic_chunk7"


class TestChunkSweep:
    def test_sweep_structure(self):
        prog = compile_flag(mauritius())
        out = chunk_sweep(
            prog,
            team_factory=lambda rng: make_team(
                "t", 4, rng, colors=list(MAURITIUS_STRIPES)
            ),
            n_workers=4,
            chunks=[1, 8],
            seed=5,
            trials=2,
        )
        assert set(out) == {1, 8}
        assert all(len(runs) == 2 for runs in out.values())
        assert all(r.correct for runs in out.values() for r in runs)

    def test_adjacent_seeds_do_not_share_trials(self):
        """Batch seed=0 trial 1 and batch seed=1 trial 0 are different
        runs: trial streams are spawned, never ``seed + t``."""
        prog = compile_flag(mauritius())

        def sweep(seed, trials):
            return chunk_sweep(
                prog,
                team_factory=lambda rng: make_team(
                    "t", 4, rng, colors=list(MAURITIUS_STRIPES)),
                n_workers=4, chunks=[4], seed=seed, trials=trials)[4]

        assert (sweep(0, 2)[1].true_makespan
                != sweep(1, 1)[0].true_makespan)


def trace_bytes(result):
    return json.dumps(export_events(result.trace.events),
                      sort_keys=True).encode()


@pytest.mark.parametrize("flag", [mauritius, france])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_worker_whole_queue_equals_static_run(flag, seed):
    """One worker pulling the whole program as a single chunk paints
    exactly the run the static runner paints: both share one stroke step."""
    spec = flag()
    prog = compile_flag(spec)
    colors = list(spec.colors_used())
    static = run_partition(single(prog), fresh_team(seed, colors=colors),
                           np.random.default_rng(seed))
    dynamic = run_dynamic(prog, fresh_team(seed, colors=colors), 1,
                          np.random.default_rng(seed), chunk=len(prog.ops))
    assert trace_bytes(dynamic) == trace_bytes(static)
    assert dynamic.measured_time == static.measured_time
