"""The event-line template writes exactly what the generic encoder does.

:func:`repro.sim.export.event_line` writes stroke events of the shape
the runner logs through one template and every other event through
``json.dumps(event_to_dict(event), sort_keys=True)``.  These tests pin
the template to that generic call: on generated events (every kind,
awkward agents and times, shapes that must fall back) and on the traces
the catalog actually produces.  The exact byte pins live in
``tests/test_canonical.py``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.agents import make_team
from repro.faults import RecoveryConfig, RecoveryPolicy, sample_plan
from repro.flags import available_flags, get_flag, mauritius
from repro.flags.compiler import compile_flag
from repro.schedule import get_scenario, run_core_activity, run_scenario
from repro.sim import export
from repro.sim.events import Event, EventKind
from repro.sim.export import event_line, event_to_dict, export_trace

STROKES = (EventKind.STROKE_START, EventKind.STROKE_END)


def generic(event):
    return json.dumps(event_to_dict(event), sort_keys=True)


def outcome(encode, event):
    """The line, or the exception type when the event cannot be encoded."""
    try:
        return encode(event)
    except (TypeError, ValueError) as exc:
        return type(exc)


# -- generated events ----------------------------------------------------
#
# One test starts from a stroke event of the exact template shape and
# changes one thing, once per kind of change, so every guard of the
# template is exercised on both sides; another draws arbitrary events
# of any kind.

awkward_text = st.one_of(
    st.text(alphabet=st.sampled_from(
        list('az"\\/\x00\x07\x1f\x7fé 日\U0001F3F3 '))),
    st.text(max_size=8),
)
special_times = st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf])
finite_times = st.one_of(
    special_times.filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False))
coords = st.integers(-(2 ** 70), 2 ** 70)


@st.composite
def strokes(draw):
    """A template-shaped stroke event."""
    return Event(time=draw(finite_times), seq=draw(st.integers(0, 2 ** 64)),
                 kind=draw(st.sampled_from(STROKES)),
                 agent=draw(awkward_text),
                 data={"cell": (draw(coords), draw(coords)),
                       "color": draw(awkward_text),
                       "layer": draw(awkward_text)})


#: One change each, applied to a template-shaped stroke: ``(event,
#: draw) -> field overrides``.  Every one but the first two must fall
#: back to the generic encoder; the bytes must match either way.
CHANGES = {
    "none": lambda e, draw: {},
    "time": lambda e, draw: {"time": draw(finite_times)},
    "nonfinite_time": lambda e, draw: {"time": draw(st.sampled_from(
        [math.nan, math.inf, -math.inf]))},
    "np_float_time": lambda e, draw: {"time": np.float64(
        draw(finite_times))},
    "int_time": lambda e, draw: {"time": draw(st.integers(-3, 10 ** 6))},
    "bool_seq": lambda e, draw: {"seq": draw(st.booleans())},
    "kind": lambda e, draw: {"kind": draw(st.sampled_from(
        [k for k in EventKind if k not in STROKES]))},
    "no_agent": lambda e, draw: {"agent": None},
    "drop_key": lambda e, draw: {"data": {
        k: v for k, v in e.data.items()
        if k != draw(st.sampled_from(sorted(e.data)))}},
    "add_key": lambda e, draw: {"data": {
        **e.data, draw(st.sampled_from(["a", "reason", "zz"])): "x"}},
    "swap_key": lambda e, draw: {"data": {
        "cell": e.data["cell"], "color": e.data["color"],
        draw(st.sampled_from(["reason", "resource", "zz"])):
            e.data["layer"]}},
    "retype_value": lambda e, draw: {"data": {
        **e.data, draw(st.sampled_from(["color", "layer"])):
            draw(st.one_of(st.none(), st.integers(), st.just(["RED"])))}},
    "list_cell": lambda e, draw: {"data": {
        **e.data, "cell": list(e.data["cell"])}},
    "short_cell": lambda e, draw: {"data": {
        **e.data, "cell": e.data["cell"][:1]}},
    "long_cell": lambda e, draw: {"data": {
        **e.data, "cell": e.data["cell"] + (0,)}},
    "bool_coord": lambda e, draw: {"data": {
        **e.data, "cell": (draw(st.booleans()), e.data["cell"][1])}},
    "np_int_coord": lambda e, draw: {"data": {
        **e.data, "cell": (e.data["cell"][0],
                           np.int64(draw(st.integers(-99, 99))))}},
}


class TestTemplateMatchesGeneric:
    @pytest.mark.parametrize("change", sorted(CHANGES))
    @seed(20250527)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_change_to_a_stroke(self, change, data):
        event = data.draw(strokes())
        event = dataclasses.replace(
            event, **CHANGES[change](event, data.draw))
        assert outcome(event_line, event) == outcome(generic, event)

    @seed(20250527)
    @settings(max_examples=300, deadline=None)
    @given(st.builds(
        Event, time=st.one_of(special_times, st.floats()),
        seq=st.integers(0, 2 ** 64),
        kind=st.sampled_from(list(EventKind)),
        agent=st.one_of(st.none(), awkward_text),
        data=st.dictionaries(awkward_text,
                             st.one_of(st.integers(), awkward_text),
                             max_size=3)))
    @example(Event(time=12.5, seq=40, kind=EventKind.OP_ABANDONED,
                   agent="w2", data={"cell": (1, 2), "color": "RED",
                                     "reason": "implement_failed"}))
    @example(Event(time=12.5, seq=40, kind=EventKind.STROKE_END,
                   agent="w2", data={"cell": (1, 2), "color": "RED",
                                     "reason": "implement_failed"}))
    def test_any_event(self, event):
        assert outcome(event_line, event) == outcome(generic, event)

    @pytest.mark.parametrize("kind", STROKES)
    @pytest.mark.parametrize("time", [-0.0, 5e-324, 1e16, 1e-7, 2.5])
    def test_stroke_times_take_the_template(self, kind, time, monkeypatch):
        calls = []
        monkeypatch.setattr(export, "event_to_dict",
                            lambda e: calls.append(e) or event_to_dict(e))
        event = Event(time=time, seq=3, kind=kind, agent="wé\"1",
                      data={"cell": (2, 3), "color": "RED",
                            "layer": "top\\band"})
        assert event_line(event) == generic(event)
        assert calls == []


# -- traces the catalog produces -----------------------------------------

def count_generic_calls(monkeypatch):
    """Patch the fallback's ``event_to_dict`` to count its calls."""
    calls = []
    monkeypatch.setattr(export, "event_to_dict",
                        lambda e: calls.append(e.kind) or event_to_dict(e))
    return calls


def assert_template_exports(trace, calls):
    """``export_trace`` equals the generic join; strokes skip json."""
    expected = "".join(generic(e) + "\n" for e in trace.events)
    del calls[:]
    assert export_trace(trace) == expected
    strokes = sum(e.kind in STROKES for e in trace.events)
    assert strokes > 0
    assert len(calls) == len(trace.events) - strokes
    assert not set(calls) & set(STROKES)


def team_for(spec, seed, size=6):
    return make_team("team", size, np.random.default_rng(seed),
                     colors=list(spec.colors_used()))


@pytest.mark.parametrize("scenario", [1, 2, 3, 4])
@pytest.mark.parametrize("flag", sorted(available_flags()))
def test_catalog_scenarios_export_identically(flag, scenario, monkeypatch):
    spec = get_flag(flag)
    result = run_scenario(get_scenario(scenario), spec, team_for(spec, 5),
                          np.random.default_rng(5))
    assert_template_exports(result.trace, count_generic_calls(monkeypatch))


@pytest.mark.parametrize("flag", sorted(available_flags()))
def test_catalog_activity_exports_identically(flag, monkeypatch):
    spec = get_flag(flag)
    calls = count_generic_calls(monkeypatch)
    runs = run_core_activity(spec, team_for(spec, 9),
                             np.random.default_rng(9))
    for result in runs.values():
        assert_template_exports(result.trace, calls)


@pytest.mark.parametrize("policy", list(RecoveryPolicy))
def test_fault_plans_export_identically(policy, monkeypatch):
    spec = mauritius()
    colors = sorted({op.color for op in compile_flag(spec).ops}, key=int)
    plan = sample_plan(np.random.default_rng(11), n_workers=4,
                       colors=colors, horizon=190.0, n_dropouts=1,
                       n_implement_failures=1, n_stalls=1, n_late=1)
    result = run_scenario(get_scenario(4), spec, team_for(spec, 11, 4),
                          np.random.default_rng(11), fault_plan=plan,
                          recovery=RecoveryConfig(policy=policy))
    kinds = {e.kind for e in result.trace.events}
    assert EventKind.FAULT_INJECTED in kinds
    assert_template_exports(result.trace, count_generic_calls(monkeypatch))
