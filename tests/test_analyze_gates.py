"""Pre-flight gates: statically-invalid work is refused before dispatch.

Two enforcement points share one analyzer: ``run_sweep`` raises
``SweepError`` before any trial executes, and the serve endpoints
answer 422 ``static_analysis_failed`` before a request takes an
admission slot.  ``POST /analyze`` reports the same findings without
refusing anything.
"""

import dataclasses
import sys
import threading

import pytest

from repro.analyze import check_cell, cell_reports, preflight
from repro.analyze.report import Severity, issues_summary
from repro.faults import FaultPlan, LateArrival, StudentDropout
from repro.grid.palette import Color
from repro.faults.plan import ImplementFailure
from repro.serve import PROTOCOL_VERSION, BackgroundServer, ServeConfig
from repro.serve.client import ServeError
from repro.sweep import SweepError, SweepSpec, run_sweep

BAD_WORKER_PLAN = FaultPlan.of([StudentDropout(at=5.0, worker=9)])
BAD_COLOR_PLAN = FaultPlan.of([ImplementFailure(at=3.0, color=Color.BLACK)])
LATE_PLAN = FaultPlan.of([LateArrival(worker=0, delay=3.0)])


def a_cell(**overrides):
    return next(iter(SweepSpec(**overrides).cells()))


def activity_cell_with_plan():
    """A clean mauritius ACTIVITY cell carrying an otherwise-valid plan."""
    return a_cell(flags=("mauritius",), scenarios=(0,),
                  fault_plans=(("late", LATE_PLAN),))


def fresh_verdict(cell):
    """The gate verdict recomputed without the memo."""
    failed = [i for i in check_cell(cell) if i.severity is Severity.ERROR]
    return issues_summary(failed) if failed else None


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServeConfig()) as bg:
        yield bg


class TestCheckCell:
    def cell(self, **overrides):
        spec = SweepSpec(**overrides)
        return next(iter(spec.cells()))

    def test_valid_cell_has_no_issues(self):
        assert check_cell(self.cell()) == []

    def test_undersized_team_flagged(self):
        issues = check_cell(self.cell(scenarios=(3,), team_sizes=(2,)))
        assert [i.code for i in issues] == ["team_too_small"]
        assert issues[0].severity is Severity.ERROR

    def test_bad_fault_plan_flagged(self):
        issues = check_cell(
            self.cell(fault_plans=(("bad", BAD_WORKER_PLAN),)))
        assert "fault_unknown_worker" in [i.code for i in issues]

    def test_unknown_flag_reported_via_failures(self):
        cell = self.cell()
        cell = type(cell)(**{**cell.__dict__, "flag": "atlantis"})
        failures = []
        reports = cell_reports(cell, failures)
        assert reports == []
        assert [i.code for i in failures] == ["unknown_flag"]
        assert "atlantis" in failures[0].message


class TestSweepGate:
    def test_undersized_team_refused_before_any_trial(self):
        spec = SweepSpec(flags=("mauritius",), scenarios=(3,),
                         team_sizes=(2,))
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        msg = str(err.value)
        assert "failed static analysis" in msg
        assert "team_too_small" in msg
        assert "needs 4 colorers, team has 2" in msg

    def test_bad_fault_target_refused(self):
        spec = SweepSpec(flags=("mauritius",), scenarios=(3,),
                         fault_plans=(("bad", BAD_WORKER_PLAN),))
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        msg = str(err.value)
        assert "fault_unknown_worker" in msg
        assert "worker 9" in msg

    def test_bad_implement_refused(self):
        spec = SweepSpec(flags=("mauritius",), scenarios=(3,),
                         fault_plans=(("bad", BAD_COLOR_PLAN),))
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        assert "fault_unknown_implement" in str(err.value)

    def test_valid_spec_still_runs(self):
        result = run_sweep(SweepSpec(flags=("poland",), scenarios=(3,),
                                     n_trials=1))
        assert result.computed_trials == 1 and result.all_correct


class TestServeGate:
    def test_invalid_run_is_422_before_dispatch(self, server):
        with pytest.raises(ServeError) as err:
            server.client().run(flag="mauritius", scenario=3,
                                team_size=2, seed=1)
        assert err.value.status == 422
        assert err.value.code == "static_analysis_failed"
        message = err.value.body["error"]["message"]
        assert "statically invalid" in message
        assert "team_too_small" in message

    def test_invalid_sweep_cell_is_422(self, server):
        with pytest.raises(ServeError) as err:
            server.client().sweep(flags=["mauritius"], scenarios=[3],
                                  team_sizes=[2], seed=1)
        assert err.value.status == 422
        assert err.value.code == "static_analysis_failed"

    def test_valid_run_passes_the_gate(self, server):
        reply = server.client().run(flag="poland", scenario=3, seed=31)
        assert "trial" in reply

    def test_rejection_consumes_no_admission_slot(self, server):
        for _ in range(5):
            with pytest.raises(ServeError):
                server.client().run(flag="mauritius", scenario=3,
                                    team_size=2, seed=1)
        assert server.client().healthz()["queue_depth"] == 0


class TestAnalyzeEndpoint:
    def post(self, server, **fields):
        fields.setdefault("protocol", PROTOCOL_VERSION)
        return server.client()._json("POST", "/analyze", fields)

    def test_valid_config_reports_ok(self, server):
        reply = self.post(server, flag="mauritius", scenario=3)
        assert reply["ok"] is True
        assert reply["failures"] == []
        [report] = reply["reports"]
        assert report["speedup_bound"] == 4.0
        assert report["deadlock_cycle"] == []

    def test_invalid_config_is_200_with_findings(self, server):
        # /analyze never refuses: analysis of a broken config succeeds.
        reply = self.post(server, flag="mauritius", scenario=3,
                          team_size=2)
        assert reply["ok"] is False
        [report] = reply["reports"]
        codes = [i["code"] for i in report["issues"]]
        assert "team_too_small" in codes

    def test_unknown_flag_is_404(self, server):
        with pytest.raises(ServeError) as err:
            self.post(server, flag="atlantis", scenario=3)
        assert err.value.status == 404


class TestActivityFaultPlanGate:
    """A fault plan on an ACTIVITY cell fails the one shared gate rule."""

    def test_check_cell_reports_an_error(self):
        issues = check_cell(activity_cell_with_plan())
        [issue] = [i for i in issues if i.code == "fault_plan_on_activity"]
        assert issue.severity is Severity.ERROR
        assert preflight.preflight_errors(activity_cell_with_plan())

    def test_task_is_422(self, server):
        cell = activity_cell_with_plan()
        with pytest.raises(ServeError) as err:
            server.client().task(cell.key_dict(), seed=1, n_trials=1,
                                 trial=0)
        assert err.value.status == 422
        assert err.value.code == "static_analysis_failed"
        assert "fault_plan_on_activity" in err.value.body["error"]["message"]

    def test_run_sweep_raises_naming_the_cell(self):
        spec = SweepSpec(flags=("mauritius",), scenarios=(0,),
                         fault_plans=(("late", LATE_PLAN),))
        with pytest.raises(SweepError) as err:
            run_sweep(spec)
        msg = str(err.value)
        assert repr(activity_cell_with_plan().describe()) in msg
        assert "fault_plan_on_activity" in msg

    def test_analysis_is_not_ok(self):
        # POST /analyze reports ``ok: false`` whenever cell_reports
        # records a failure (its wire body cannot carry a fault plan,
        # so the rule is pinned at the function /analyze calls).
        failures = []
        reports = cell_reports(activity_cell_with_plan(), failures)
        assert [i.code for i in failures] == ["fault_plan_on_activity"]
        assert len(reports) == 4


class TestPreflightMemo:
    """``preflight_errors`` memoizes its verdict per cell."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        preflight.preflight_errors.cache_clear()
        yield
        preflight.preflight_errors.cache_clear()

    def test_repeated_equal_cells_analyze_once(self, monkeypatch):
        calls = []
        real_check_cell = preflight.check_cell

        def counting(cell):
            calls.append(cell)
            return real_check_cell(cell)

        monkeypatch.setattr(preflight, "check_cell", counting)
        cell = a_cell(flags=("mauritius",), scenarios=(4,))
        twin = a_cell(flags=("mauritius",), scenarios=(4,))
        assert twin == cell and twin is not cell
        verdicts = [preflight.preflight_errors(c)
                    for c in (cell, twin, cell, twin)]
        assert calls == [cell]
        assert verdicts == [fresh_verdict(cell)] * 4

    def test_repeated_invalid_run_gets_identical_422(self, server):
        bodies = []
        for _ in range(2):
            with pytest.raises(ServeError) as err:
                server.client().run(flag="mauritius", scenario=3,
                                    team_size=2, seed=1)
            assert err.value.status == 422
            assert err.value.code == "static_analysis_failed"
            bodies.append(err.value.body["error"]["message"])
        assert bodies[0].encode() == bodies[1].encode()
        cell = a_cell(flags=("mauritius",), scenarios=(3,),
                      team_sizes=(2,))
        assert bodies[0].endswith(fresh_verdict(cell))

    def test_cells_differing_in_one_field_get_their_own_verdict(self):
        base = a_cell(flags=("mauritius",), scenarios=(3,))
        variants = [
            base,
            dataclasses.replace(base, team_size=2),
            dataclasses.replace(base, fault_label="renamed"),
            dataclasses.replace(base, fault_plan=BAD_WORKER_PLAN),
            dataclasses.replace(base, fault_label="bad",
                                fault_plan=BAD_WORKER_PLAN),
        ]
        verdicts = [preflight.preflight_errors(c) for c in variants]
        assert verdicts == [fresh_verdict(c) for c in variants]
        assert verdicts[0] is None and verdicts[2] is None
        assert "team_too_small" in verdicts[1]
        assert "fault_unknown_worker" in verdicts[3]
        info = preflight.preflight_errors.cache_info()
        assert (info.misses, info.currsize) == (len(variants),
                                                len(variants))

    def test_memo_is_bounded_by_the_module_constant(self):
        maxsize = preflight.preflight_errors.cache_parameters()["maxsize"]
        assert maxsize == preflight.PREFLIGHT_MEMO_SIZE
        assert 0 < maxsize < 1_000_000

    def test_concurrent_callers_get_the_serial_verdicts(self):
        cells = [
            a_cell(flags=("mauritius",), scenarios=(3,)),
            a_cell(flags=("mauritius",), scenarios=(3,), team_sizes=(2,)),
            a_cell(flags=("mauritius",), scenarios=(3,),
                   fault_plans=(("bad", BAD_COLOR_PLAN),)),
            a_cell(flags=("poland",), scenarios=(4,)),
            activity_cell_with_plan(),
        ]
        serial = [fresh_verdict(c) for c in cells]
        n_threads = 4
        start = threading.Barrier(n_threads, timeout=10)
        seen = [None] * n_threads

        def worker(k):
            start.wait()
            order = cells[k:] + cells[:k]
            seen[k] = [(c, preflight.preflight_errors(c))
                       for c in order * 3]

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        expected = dict(zip(cells, serial))
        for results in seen:
            assert results is not None and len(results) == 3 * len(cells)
            for cell, verdict in results:
                assert verdict == expected[cell]
