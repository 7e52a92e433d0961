"""Tests for repro.schedule.depsched — layered (dependency) scheduling."""

import numpy as np
import pytest

from repro.agents import make_team
from repro.flags import compile_flag, great_britain, jordan, mauritius
from repro.schedule.depsched import layered_speedup_curve, run_layered, split_ops
from repro.sim.events import EventKind


def team_for(spec, seed=0, n=4):
    """A team with enough duplicate implements that within-layer
    parallelism is implement-unconstrained — isolating the barrier effect
    (a single implement per color would serialize every layer)."""
    return make_team("t", n, np.random.default_rng(seed),
                     colors=list(spec.colors_used()), copies=max(n, 1))


class TestSplitOps:
    def test_even_split(self):
        prog = compile_flag(mauritius())
        chunks = split_ops(prog.ops, 4)
        assert [len(c) for c in chunks] == [24, 24, 24, 24]

    def test_uneven_split_front_loaded(self):
        chunks = split_ops(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]

    def test_more_workers_than_ops(self):
        chunks = split_ops([1, 2], 5)
        assert [len(c) for c in chunks] == [1, 1, 0, 0, 0]

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            split_ops([1], 0)


class TestRunLayered:
    @pytest.mark.parametrize("factory", [great_britain, jordan])
    def test_layered_flags_come_out_correct(self, factory):
        spec = factory()
        r = run_layered(spec, team_for(spec), 4, np.random.default_rng(0))
        assert r.correct
        assert r.strategy == "layer_barrier"

    def test_layer_finish_times_monotone(self):
        """Barriers order the layers: each finishes no earlier than the
        previous one."""
        spec = great_britain()
        r = run_layered(spec, team_for(spec), 4, np.random.default_rng(1))
        finishes = [r.extra["layer_finish"][l] for l in r.extra["layer_order"]]
        assert finishes == sorted(finishes)

    def test_no_stroke_precedes_dependency(self):
        """No stroke of layer k+1 may start before layer k's last end."""
        spec = jordan()
        r = run_layered(spec, team_for(spec), 3, np.random.default_rng(2))
        layer_order = r.extra["layer_order"]
        rank = {name: i for i, name in enumerate(layer_order)}
        last_end = {}
        first_start = {}
        for e in r.trace.events:
            if e.kind == EventKind.STROKE_START:
                lyr = e.data["layer"]
                first_start.setdefault(lyr, e.time)
            elif e.kind == EventKind.STROKE_END:
                lyr = e.data["layer"]
                last_end[lyr] = e.time
        for a, b in zip(layer_order, layer_order[1:]):
            assert first_start[b] >= last_end[a] - 1e-9

    def test_skip_optional_blank_default(self):
        spec = jordan()
        r = run_layered(spec, team_for(spec), 2, np.random.default_rng(3))
        assert "white_stripe" not in r.extra["layer_order"]
        assert r.correct

    def test_include_optional_layers(self):
        spec = jordan()
        r = run_layered(spec, team_for(spec), 2, np.random.default_rng(3),
                        skip_optional_blank=False)
        assert "white_stripe" in r.extra["layer_order"]
        assert r.correct

    def test_more_workers_not_slower(self):
        """P=4 should beat P=1 even with barriers (layers are big enough)."""
        spec = great_britain()
        r1 = run_layered(spec, team_for(spec, seed=5, n=1), 1,
                         np.random.default_rng(5))
        r4 = run_layered(spec, team_for(spec, seed=5, n=4), 4,
                         np.random.default_rng(5))
        assert r4.true_makespan < r1.true_makespan

    def test_small_layers_limit_parallelism(self):
        """The Jordan star is tiny: going from 4 to 8 workers helps little
        compared to the 1 -> 4 jump (dependencies limit parallelism)."""
        spec = jordan()
        times = {}
        for p in (1, 4, 8):
            r = run_layered(spec, team_for(spec, seed=6, n=p), p,
                            np.random.default_rng(6))
            times[p] = r.true_makespan
        gain_1_4 = times[1] / times[4]
        gain_4_8 = times[4] / times[8]
        assert gain_1_4 > 1.5
        assert gain_4_8 < gain_1_4


class TestLayeredCurve:
    def test_curve_shape(self):
        spec = great_britain()
        curve = layered_speedup_curve(
            spec,
            team_factory=lambda rng, n: make_team(
                "t", n, rng, colors=list(spec.colors_used()), copies=n
            ),
            workers=[1, 2],
            seed=7,
            trials=2,
        )
        assert set(curve) == {1, 2}
        assert all(len(v) == 2 for v in curve.values())
        med1 = np.median([r.true_makespan for r in curve[1]])
        med2 = np.median([r.true_makespan for r in curve[2]])
        assert med2 < med1

    def test_adjacent_seeds_do_not_share_trials(self):
        """Batch seed=0 trial 1 and batch seed=1 trial 0 are different
        runs: trial streams are spawned, never ``seed + t``."""
        spec = great_britain()

        def curve(seed, trials):
            return layered_speedup_curve(
                spec,
                team_factory=lambda rng, n: make_team(
                    "t", n, rng, colors=list(spec.colors_used()), copies=n),
                workers=[2], seed=seed, trials=trials)[2]

        assert (curve(0, 2)[1].true_makespan
                != curve(1, 1)[0].true_makespan)
