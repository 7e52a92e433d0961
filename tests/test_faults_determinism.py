"""Determinism regression tests for fault injection.

Two properties carry the whole subsystem:

1. Same seed + same FaultPlan => byte-identical traces (replays are
   exact, so classroom chaos demos are reproducible).
2. A fault-free plan (empty) produces a trace byte-identical to passing
   no plan at all, under every scenario and acquire policy: faulty and
   clean runs drive the same ``paint_worker``, and the fault handling
   stays dormant until a fault fires.
"""

import json

import numpy as np
import pytest

from repro.agents import make_team
from repro.faults import (
    FaultPlan,
    RecoveryConfig,
    RecoveryPolicy,
    StudentDropout,
    sample_plan,
)
from repro.flags import mauritius
from repro.flags.compiler import compile_flag
from repro.schedule import AcquirePolicy, get_scenario, run_scenario
from repro.sim.export import export_events


def run(plan, seed=11, scenario=4, policy=RecoveryPolicy.REDISTRIBUTE,
        acquire=AcquirePolicy.HOLD_COLOR_RUN):
    spec = mauritius()
    team = make_team("team", 4, np.random.default_rng(seed),
                     colors=list(spec.colors_used()))
    rng = np.random.default_rng(seed)
    return run_scenario(get_scenario(scenario), spec, team, rng,
                        policy=acquire, fault_plan=plan,
                        recovery=RecoveryConfig(policy=policy))


def trace_bytes(result):
    return json.dumps(export_events(result.trace.events),
                      sort_keys=True).encode()


def make_plan(seed=11):
    program = compile_flag(mauritius())
    colors = sorted({op.color for op in program.ops}, key=int)
    return sample_plan(np.random.default_rng(seed), n_workers=4,
                       colors=colors, horizon=190.0,
                       n_dropouts=1, n_implement_failures=1, n_stalls=1)


class TestByteIdentity:
    def test_same_seed_same_plan_identical_traces(self):
        plan = make_plan()
        assert trace_bytes(run(plan)) == trace_bytes(run(plan))

    @pytest.mark.parametrize("policy", list(RecoveryPolicy))
    def test_identity_holds_under_every_policy(self, policy):
        plan = make_plan()
        a = run(plan, policy=policy)
        b = run(plan, policy=policy)
        assert trace_bytes(a) == trace_bytes(b)
        assert np.array_equal(a.canvas.codes, b.canvas.codes)
        assert a.true_makespan == b.true_makespan
        assert a.faults.summary() == b.faults.summary()

    @pytest.mark.parametrize("acquire", list(AcquirePolicy))
    @pytest.mark.parametrize("scenario", [1, 2, 3, 4])
    def test_empty_plan_matches_no_plan_exactly(self, scenario, acquire):
        clean = run(None, scenario=scenario, acquire=acquire)
        empty = run(FaultPlan(), scenario=scenario, acquire=acquire)
        assert trace_bytes(clean) == trace_bytes(empty)
        assert clean.true_makespan == empty.true_makespan
        assert clean.measured_time == empty.measured_time
        assert np.array_equal(clean.canvas.codes, empty.canvas.codes)

    def test_different_seeds_differ(self):
        plan = make_plan()
        assert trace_bytes(run(plan, seed=11)) != trace_bytes(
            run(plan, seed=12))

    def test_faults_actually_change_the_trace(self):
        plan = FaultPlan.of([StudentDropout(at=60.0, worker=3)])
        assert trace_bytes(run(None)) != trace_bytes(run(plan))

    def test_empty_plan_reports_zero_faults(self):
        r = run(FaultPlan())
        assert r.faults is not None
        assert r.faults.faults_fired == 0
        assert r.faults.summary()["ops_abandoned"] == 0
