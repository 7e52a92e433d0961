"""Tests for repro.schedule.worksteal."""

import json

import numpy as np
import pytest

from repro.agents import ImplementKit, Team, make_team
from repro.agents.implements import THICK_MARKER
from repro.agents.student import StudentProcessor, StudentProfile, TimerStudent
from repro.flags import (
    canada,
    compile_flag,
    diagonal_bicolor,
    france,
    great_britain,
    mauritius,
    scenario_partition,
    single,
    vertical_slices,
)
from repro.grid.palette import MAURITIUS_STRIPES
from repro.schedule.runner import run_partition
from repro.schedule.worksteal import (
    WorkStealError,
    count_steals,
    run_work_stealing,
    steal_back_half,
)
from repro.sim.export import export_events


class TestStealBackHalf:
    """The pure queue-level primitive shared with repro.fabric."""

    def test_moves_back_half_of_largest_queue(self):
        from collections import deque
        queues = {"a": deque([1, 2, 3, 4]), "b": deque(), "c": deque([9])}
        moved = steal_back_half(queues, "b")
        assert moved == ("a", [3, 4])
        assert list(queues["a"]) == [1, 2]
        assert list(queues["b"]) == [3, 4]
        assert list(queues["c"]) == [9]

    def test_single_item_queue_gives_its_item(self):
        from collections import deque
        queues = {"a": deque(["only"]), "b": deque()}
        assert steal_back_half(queues, "b") == ("a", ["only"])
        assert not queues["a"]

    def test_nothing_to_steal_returns_none(self):
        from collections import deque
        queues = {"a": deque(), "b": deque([1, 2])}
        assert steal_back_half(queues, "b") is None
        assert list(queues["b"]) == [1, 2]  # own queue never raided

    def test_tie_breaks_deterministically(self):
        from collections import deque
        build = lambda: {"a": deque([1, 2]), "z": deque([3, 4]),
                         "thief": deque()}
        first = steal_back_half(build(), "thief")
        second = steal_back_half(build(), "thief")
        assert first == second == ("z", [4])

    def test_preserves_victim_order(self):
        from collections import deque
        queues = {"a": deque(list(range(10))), "b": deque()}
        _, stolen = steal_back_half(queues, "b")
        assert stolen == [5, 6, 7, 8, 9]
        assert list(queues["a"]) == [0, 1, 2, 3, 4]


def fresh_team(seed, n=4, colors=None, copies=1, slow_last=False):
    rng = np.random.default_rng(seed)
    team = make_team("t", n, rng, colors=colors or list(MAURITIUS_STRIPES),
                     copies=copies)
    if slow_last:
        # Make the last student dramatically slower to force imbalance.
        team.students[-1].profile.base_cell_time *= 3.0
    return team


class TestRunWorkStealing:
    def test_correct_result(self):
        prog = compile_flag(mauritius())
        part = scenario_partition(prog, 4)
        r = run_work_stealing(part, fresh_team(1), np.random.default_rng(1))
        assert r.correct
        assert r.canvas.n_colored() == prog.n_ops
        assert r.strategy.endswith("+stealing")

    def test_layered_program_rejected(self):
        spec = great_britain()
        prog = compile_flag(spec)
        part = vertical_slices(prog, 3)
        team = fresh_team(2, n=3, colors=list(spec.colors_used()))
        with pytest.raises(WorkStealError, match="flat"):
            run_work_stealing(part, team, np.random.default_rng(2))

    def test_steals_happen_under_imbalance(self):
        """A slow straggler gets robbed by finished teammates."""
        prog = compile_flag(mauritius())
        part = scenario_partition(prog, 4)
        team = fresh_team(3, slow_last=True, copies=4)
        r = run_work_stealing(part, team, np.random.default_rng(3))
        assert r.correct
        assert count_steals(r.trace) > 0

    def test_stealing_beats_static_under_imbalance(self):
        """With one very slow student, stealing shortens the makespan."""
        prog = compile_flag(mauritius())
        static_times, steal_times = [], []
        for s in range(4):
            t1 = fresh_team(50 + s, slow_last=True, copies=4)
            static_times.append(
                run_partition(scenario_partition(prog, 4), t1,
                              np.random.default_rng(50 + s)).true_makespan
            )
            t2 = fresh_team(50 + s, slow_last=True, copies=4)
            steal_times.append(
                run_work_stealing(scenario_partition(prog, 4), t2,
                                  np.random.default_rng(50 + s)).true_makespan
            )
        assert np.median(steal_times) < np.median(static_times)

    def test_few_steals_when_perfectly_balanced_and_uniform(self):
        """Identical students on equal shares: only end-of-run scraps get
        stolen (the first finisher grabs a cell or two), far fewer than
        under a real straggler."""
        prog = compile_flag(mauritius())
        students = [
            StudentProcessor(f"t.P{i+1}",
                             StudentProfile(sigma=0.01, warmup_penalty=0.0))
            for i in range(4)
        ]
        team = Team("t", students, TimerStudent("t.timer"),
                    ImplementKit.uniform(MAURITIUS_STRIPES, THICK_MARKER,
                                         copies=4))
        r = run_work_stealing(scenario_partition(prog, 4), team,
                              np.random.default_rng(4))
        assert r.correct
        assert count_steals(r.trace) <= 4

    def test_diagonal_imbalance_fixed_by_stealing(self):
        """Slicing the diagonal flag unevenly splits colors; stealing
        rebalances busy time."""
        spec = diagonal_bicolor()
        prog = compile_flag(spec)
        part = vertical_slices(prog, 2)
        team = fresh_team(7, n=2, colors=list(spec.colors_used()), copies=2)
        r = run_work_stealing(part, team, np.random.default_rng(7))
        assert r.correct

    def test_steal_overhead_recorded(self):
        prog = compile_flag(mauritius())
        r = run_work_stealing(scenario_partition(prog, 4),
                              fresh_team(9, slow_last=True, copies=4),
                              np.random.default_rng(9), steal_overhead=5.0)
        assert r.extra["steal_overhead"] == 5.0


def trace_bytes(result):
    return json.dumps(export_events(result.trace.events),
                      sort_keys=True).encode()


@pytest.mark.parametrize("flag", [mauritius, france])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lone_worker_never_steals_and_equals_static_run(flag, seed):
    """With no teammate to steal from, the stealing runner paints exactly
    the static run: both share one stroke step."""
    spec = flag()
    prog = compile_flag(spec)
    colors = list(spec.colors_used())
    static = run_partition(single(prog), fresh_team(seed, colors=colors),
                           np.random.default_rng(seed))
    stealing = run_work_stealing(single(prog),
                                 fresh_team(seed, colors=colors),
                                 np.random.default_rng(seed))
    assert trace_bytes(stealing) == trace_bytes(static)
    assert stealing.measured_time == static.measured_time
