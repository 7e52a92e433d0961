"""Tests for repro.serve.protocol — schemas, codec, error mapping."""

import json

import pytest

from repro.schedule import AcquirePolicy
from repro.agents.student import FillStyle
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RunRequest,
    SweepRequest,
    dumps,
    error_body,
    parse_body,
)
from repro.sweep import ACTIVITY, SweepSpec
from repro.sweep.executor import cell_address, make_task


class TestParseBody:
    def test_valid_object(self):
        assert parse_body(b'{"flag": "poland"}') == {"flag": "poland"}

    def test_malformed_json_is_400_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            parse_body(b"{nope")
        assert err.value.status == 400
        assert err.value.code == "bad_json"

    def test_non_object_top_level_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse_body(b"[1, 2]")
        assert err.value.status == 400
        assert err.value.code == "bad_request"

    def test_wrong_protocol_version_rejected(self):
        with pytest.raises(ProtocolError) as err:
            parse_body(b'{"protocol": 99}')
        assert err.value.code == "unsupported_protocol"

    def test_current_protocol_version_accepted(self):
        body = parse_body(dumps({"protocol": PROTOCOL_VERSION}))
        assert body["protocol"] == PROTOCOL_VERSION

    def test_dumps_is_canonical(self):
        assert dumps({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


class TestRunRequest:
    def test_defaults_mirror_sweep_spec(self):
        req = RunRequest.from_body({"flag": "mauritius"})
        assert req.scenario == 3
        assert req.team_size == 4
        assert req.policy is AcquirePolicy.HOLD_COLOR_RUN
        assert req.style is FillStyle.SCRIBBLE
        assert (req.seed, req.copies, req.observe) == (0, 1, False)

    def test_activity_scenario_accepted_by_name(self):
        req = RunRequest.from_body({"flag": "mauritius",
                                    "scenario": "activity"})
        assert req.scenario == ACTIVITY

    @pytest.mark.parametrize("body,code", [
        ({}, "bad_field"),                                 # flag missing
        ({"flag": ""}, "bad_field"),
        ({"flag": 7}, "bad_field"),
        ({"flag": "m", "scenario": 9}, "bad_field"),
        ({"flag": "m", "scenario": 2.5}, "bad_field"),
        ({"flag": "m", "seed": "zero"}, "bad_field"),
        ({"flag": "m", "team_size": 0}, "bad_field"),
        ({"flag": "m", "copies": -1}, "bad_field"),
        ({"flag": "m", "policy": "steal"}, "bad_field"),
        ({"flag": "m", "style": "crosshatch"}, "bad_field"),
        ({"flag": "m", "rows": 0}, "bad_field"),
        ({"flag": "m", "observe": "yes"}, "bad_field"),
        ({"flag": "m", "timeout_s": -1}, "bad_field"),
        ({"flag": "m", "timeout_s": True}, "bad_field"),
        ({"flag": "m", "bogus": 1}, "unknown_field"),
    ])
    def test_invalid_bodies_are_400(self, body, code):
        with pytest.raises(ProtocolError) as err:
            RunRequest.from_body(body)
        assert err.value.status == 400
        assert err.value.code == code

    def test_task_matches_executor_layout(self):
        """/run is pinned to the sweep executor's own task dicts."""
        req = RunRequest.from_body({"flag": "poland", "scenario": 4,
                                    "seed": 9, "team_size": 3})
        spec = SweepSpec(flags=("poland",), scenarios=(4,),
                         team_sizes=(3,), n_trials=1, seed=9)
        [cell] = spec.cells()
        task = make_task(cell, seed=spec.seed, n_trials=spec.n_trials,
                         trial=0)
        assert req.task() == task

    def test_address_matches_cell_address(self):
        """/run cache entries interoperate with sweep cache entries."""
        req = RunRequest.from_body({"flag": "poland", "seed": 5,
                                    "observe": True})
        spec = SweepSpec(flags=("poland",), scenarios=(3,),
                         n_trials=1, seed=5)
        [cell] = spec.cells()
        assert req.address() == cell_address(
            cell, seed=spec.seed, n_trials=spec.n_trials, observe=True)

    def test_task_is_json_safe(self):
        task = RunRequest.from_body({"flag": "mauritius"}).task()
        assert json.loads(json.dumps(task)) == task


class TestSweepRequest:
    def test_defaults(self):
        req = SweepRequest.from_body({})
        assert req.spec.flags == ("mauritius",)
        assert req.spec.scenarios == (3,)
        assert req.spec.n_trials == 1

    def test_full_grid(self):
        req = SweepRequest.from_body({
            "flags": ["poland", "mauritius"],
            "scenarios": [3, "activity"],
            "team_sizes": [2, 4],
            "policies": ["release_per_stroke"],
            "styles": ["minimal"],
            "copies": [2],
            "n_trials": 3,
            "seed": 7,
        })
        assert req.spec.n_cells == 8
        assert req.spec.scenarios == (3, ACTIVITY)
        assert req.spec.policies == (AcquirePolicy.RELEASE_PER_STROKE,)

    @pytest.mark.parametrize("body,code", [
        ({"flags": []}, "bad_field"),
        ({"flags": "mauritius"}, "bad_field"),     # list, not scalar
        ({"flags": [3]}, "bad_field"),
        ({"scenarios": [7]}, "bad_field"),
        ({"team_sizes": [0]}, "bad_field"),
        ({"n_trials": 0}, "bad_field"),
        ({"workers": 4}, "unknown_field"),         # server-side knob
    ])
    def test_invalid_bodies_are_400(self, body, code):
        with pytest.raises(ProtocolError) as err:
            SweepRequest.from_body(body)
        assert err.value.status == 400
        assert err.value.code == code


class TestErrorBody:
    def test_structured_shape(self):
        body = error_body("flag_not_found", "no such flag")
        assert body["protocol"] == PROTOCOL_VERSION
        assert body["error"]["code"] == "flag_not_found"
        assert "no such flag" in body["error"]["message"]
