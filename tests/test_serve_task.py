"""Tests for ``POST /task`` — the fabric's remote-worker endpoint.

Covers the cell round-trip (``cell_from_key_dict`` inverts
``key_dict()``), :class:`TaskRequest` validation, and the endpoint
itself: a served task is byte-identical to in-process
:func:`repro.sweep.executor.run_trial`, fault-plan cells work (which
``/run`` cannot express), and the usual gates (404/422/400) hold.
"""

import json

import pytest

from repro.faults import FaultPlan, StudentDropout, TransientStall
from repro.serve import BackgroundServer, ServeConfig, TaskRequest
from repro.serve.client import ServeError
from repro.serve.protocol import ProtocolError
from repro.sweep import SweepError, SweepSpec, cell_from_key_dict
from repro.sweep.executor import run_trial
from repro.sweep.spec import SweepCell

PLAN = FaultPlan.of([StudentDropout(at=8.0, worker=1),
                     TransientStall(at=4.0, worker=2, duration=3.0)])


def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def a_cell(**overrides):
    spec = SweepSpec(**overrides)
    return next(iter(spec.cells()))


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServeConfig()) as bg:
        yield bg


class TestCellRoundTrip:
    def test_plain_cell_round_trips(self):
        cell = a_cell(flags=("poland",), scenarios=(3,))
        rebuilt = cell_from_key_dict(cell.key_dict())
        assert rebuilt == cell
        assert rebuilt.key() == cell.key()

    def test_fault_plan_cell_round_trips(self):
        cell = a_cell(flags=("mauritius",),
                      fault_plans=(("drop", PLAN),))
        rebuilt = cell_from_key_dict(cell.key_dict())
        assert rebuilt == cell
        assert rebuilt.fault_plan == PLAN

    def test_json_round_trip_preserves_key(self):
        cell = a_cell(flags=("mauritius",), scenarios=(0,),
                      fault_plans=(("drop", PLAN),), rows=12, cols=18)
        wire = json.loads(json.dumps(cell.key_dict()))
        assert cell_from_key_dict(wire).key() == cell.key()

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("flag"),
        lambda d: d.update(extra_field=1),
        lambda d: d.update(policy="NO_SUCH_POLICY"),
        lambda d: d.update(style="NO_SUCH_STYLE"),
        lambda d: d.update(faults="not-a-list"),
        lambda d: d.update(faults=[{"kind": "martian_attack"}]),
        lambda d: d.update(rows=0),
        lambda d: d.update(cols=True),
        lambda d: d.update(flag=""),
        lambda d: d.update(scenario=7),
        lambda d: d.update(team_size="four"),
    ])
    def test_bad_dicts_raise_sweep_error(self, mutate):
        d = a_cell().key_dict()
        mutate(d)
        with pytest.raises(SweepError):
            cell_from_key_dict(d)


class TestTaskRequest:
    def body(self, **overrides):
        body = {"cell": a_cell(flags=("poland",)).key_dict(),
                "seed": 5, "n_trials": 3, "trial": 1}
        body.update(overrides)
        return body

    def test_valid_body_parses(self):
        request = TaskRequest.from_body(self.body())
        assert request.cell.flag == "poland"
        assert (request.seed, request.n_trials, request.trial) == (5, 3, 1)
        assert request.observe is False

    def test_task_matches_executor_layout(self):
        request = TaskRequest.from_body(self.body(observe=True))
        task = request.task()
        assert set(task) == {"cell", "cell_key", "seed", "n_trials",
                             "trial", "observe"}
        assert task["cell_key"] == request.cell.key()
        assert task["cell"] == request.cell.key_dict()
        assert task["observe"] is True

    def test_cell_is_recanonicalized_not_echoed(self):
        # Scrambled key order on the wire; identity must not change.
        scrambled = dict(reversed(list(self.body()["cell"].items())))
        request = TaskRequest.from_body(self.body(cell=scrambled))
        assert request.task()["cell_key"] == a_cell(flags=("poland",)).key()

    @pytest.mark.parametrize("overrides,fragment", [
        ({"cell": "not-a-dict"}, "cell"),
        ({"cell": {"flag": "poland"}}, "invalid"),
        ({"trial": 3}, "trial"),          # trial >= n_trials
        ({"trial": -1}, "trial"),
        ({"n_trials": 0}, "n_trials"),
        ({"seed": "zero"}, "seed"),
        ({"observe": "yes"}, "observe"),
        ({"timeout_s": -1}, "timeout_s"),
        ({"banana": 1}, "banana"),
    ])
    def test_bad_bodies_are_400(self, overrides, fragment):
        with pytest.raises(ProtocolError) as err:
            TaskRequest.from_body(self.body(**overrides))
        assert err.value.status == 400
        assert fragment in err.value.message


class TestTaskEndpoint:
    def test_served_task_byte_identical_to_run_trial(self, server):
        cell = a_cell(flags=("poland",), scenarios=(3,))
        reply = server.client().task(cell.key_dict(), seed=11,
                                     n_trials=3, trial=2)
        expected = run_trial({"cell": cell.key_dict(),
                              "cell_key": cell.key(), "seed": 11,
                              "n_trials": 3, "trial": 2,
                              "observe": False})
        assert canon(reply["trial"]) == canon(expected)
        assert reply["trial_index"] == 2

    def test_fault_plan_cell_is_servable(self, server):
        # /run cannot express fault plans; /task can.
        cell = a_cell(flags=("mauritius",),
                      fault_plans=(("drop", PLAN),))
        reply = server.client().task(cell.key_dict(), seed=3,
                                     n_trials=1, trial=0)
        expected = run_trial({"cell": cell.key_dict(),
                              "cell_key": cell.key(), "seed": 3,
                              "n_trials": 1, "trial": 0,
                              "observe": False})
        assert canon(reply["trial"]) == canon(expected)

    def test_distinct_trials_of_one_cell_differ(self, server):
        cell = a_cell(flags=("poland",))
        first = server.client().task(cell.key_dict(), seed=4,
                                     n_trials=2, trial=0)
        second = server.client().task(cell.key_dict(), seed=4,
                                      n_trials=2, trial=1)
        assert canon(first["trial"]) != canon(second["trial"])

    def test_unknown_flag_is_404(self, server):
        cell_dict = a_cell().key_dict()
        cell_dict["flag"] = "atlantis"
        with pytest.raises(ServeError) as err:
            server.client().task(cell_dict, seed=0, n_trials=1, trial=0)
        assert err.value.status == 404
        assert err.value.code == "flag_not_found"

    def test_statically_invalid_cell_is_422(self, server):
        cell = SweepCell(flag="mauritius", scenario=3, team_size=2,
                         policy=a_cell().policy, style=a_cell().style)
        with pytest.raises(ServeError) as err:
            server.client().task(cell.key_dict(), seed=0,
                                 n_trials=1, trial=0)
        assert err.value.status == 422
        assert err.value.code == "static_analysis_failed"

    def test_malformed_cell_is_400(self, server):
        with pytest.raises(ServeError) as err:
            server.client().task({"flag": "poland"}, seed=0,
                                 n_trials=1, trial=0)
        assert err.value.status == 400
        assert err.value.code == "bad_field"

    def test_failed_trial_is_structured_500(self, server, monkeypatch):
        def boom(task):
            raise RuntimeError("engine blew up")

        monkeypatch.setattr("repro.sweep.executor.run_trial", boom)
        cell = a_cell(flags=("poland",))
        with pytest.raises(ServeError) as err:
            server.client().task(cell.key_dict(), seed=0, n_trials=1,
                                 trial=0)
        assert err.value.status == 500
        assert err.value.code == "internal"
        assert "engine blew up" in str(err.value)
        assert server.server.admission.depth == 0

    def test_deadline_is_504(self, server):
        cell = a_cell(flags=("mauritius",), scenarios=(1,), rows=24,
                      cols=36)
        with pytest.raises(ServeError) as err:
            server.client().task(cell.key_dict(), seed=9, n_trials=1,
                                 trial=0, timeout_s=0.0005)
        assert err.value.status == 504
        assert err.value.code == "deadline_exceeded"
