"""Tests for repro.stream.protocol — the versioned wire schema.

The envelope contract: stable key set, strict version check, SSE
framing that round-trips through a line decoder, and
``reassemble_feed`` rebuilding the archived event log byte for byte
(deduplicating resumes, refusing gaps).
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import protocol
from repro.stream import (
    FRAME_KINDS,
    STREAM_PROTOCOL_VERSION,
    StreamEvent,
    StreamProtocolError,
    TERMINAL_KINDS,
    decode_sse_lines,
    dumps_frame,
    encode_sse,
    feed_makespans,
    heartbeat_comment,
    loads_frame,
    reassemble_feed,
    split_runs,
)


def frame(seq, kind="event", run="scenario3", **data):
    if kind == "event" and "line" not in data:
        data["line"] = json.dumps({"seq": seq, "time": float(seq)},
                                  sort_keys=True)
    return StreamEvent(seq=seq, time=float(seq), kind=kind, run=run,
                       data=data)


class TestEnvelope:
    def test_wire_round_trip(self):
        ev = frame(7)
        assert StreamEvent.from_wire(ev.to_wire()) == ev

    def test_wire_dict_is_versioned_with_stable_keys(self):
        wire = frame(1).to_wire()
        assert wire["v"] == STREAM_PROTOCOL_VERSION
        assert set(wire) == {"v", "seq", "time", "kind", "run", "data"}

    def test_terminal_kinds(self):
        assert TERMINAL_KINDS == {"end", "bye", "error"}
        assert frame(1, kind="end", run=None).terminal
        assert frame(1, kind="bye", run=None).terminal
        assert not frame(1).terminal
        assert not frame(1, kind="run_start").terminal

    def test_unknown_version_refused(self):
        wire = frame(1).to_wire()
        wire["v"] = STREAM_PROTOCOL_VERSION + 1
        with pytest.raises(StreamProtocolError, match="not supported"):
            StreamEvent.from_wire(wire)

    def test_unknown_kind_refused(self):
        wire = frame(1).to_wire()
        wire["kind"] = "telemetry"
        with pytest.raises(StreamProtocolError, match="unknown frame"):
            StreamEvent.from_wire(wire)
        assert "telemetry" not in FRAME_KINDS

    def test_missing_field_refused(self):
        wire = frame(1).to_wire()
        del wire["seq"]
        with pytest.raises(StreamProtocolError, match="bad stream frame"):
            StreamEvent.from_wire(wire)

    def test_loads_frame_rejects_garbage(self):
        with pytest.raises(StreamProtocolError, match="invalid frame"):
            loads_frame("{not json")
        with pytest.raises(StreamProtocolError, match="must be an object"):
            loads_frame("[1, 2]")

    def test_dumps_frame_is_canonical(self):
        text = dumps_frame(frame(3))
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))


class TestSseFraming:
    def test_encode_sse_carries_seq_as_id(self):
        raw = encode_sse(frame(42)).decode("utf-8")
        assert raw.startswith("id: 42\ndata: ")
        assert raw.endswith("\n\n")

    def test_heartbeat_is_a_comment(self):
        assert heartbeat_comment(3) == b": keepalive 3\n\n"

    def test_decode_round_trips_a_feed_with_heartbeats(self):
        frames = [frame(1, kind="run_start"), frame(2), frame(3),
                  frame(4, kind="end", run=None, status="ok")]
        raw = b"".join([encode_sse(frames[0]), heartbeat_comment(0),
                        encode_sse(frames[1]), encode_sse(frames[2]),
                        heartbeat_comment(1), encode_sse(frames[3])])
        lines = raw.decode("utf-8").split("\n")
        assert list(decode_sse_lines(lines)) == frames

    def test_decode_tolerates_truncated_final_frame(self):
        # A feed cut before its final blank line still yields the frame.
        raw = encode_sse(frame(1)).decode("utf-8").rstrip("\n")
        assert list(decode_sse_lines(raw.split("\n"))) == [frame(1)]


def reference_sse(event):
    """The SSE bytes as the generic encoder writes them."""
    return f"id: {event.seq}\ndata: {dumps_frame(event)}\n\n".encode()


awkward_text = st.one_of(
    st.text(alphabet=st.sampled_from(
        list('az"\\/\x00\x07\x1f\x7f\u2028é 日\U0001F3F3 '))),
    st.text(max_size=8),
)
finite_times = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2e-308, 1e16, 1e-7, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def event_frames(draw):
    """An ``event`` frame of the exact shape the SSE template writes."""
    return StreamEvent(seq=draw(st.integers(0, 2 ** 70)),
                       time=draw(finite_times), kind="event",
                       run=draw(awkward_text),
                       data={"line": draw(awkward_text)})


class TestSseTemplate:
    """``encode_sse`` writes event frames from one template; the bytes
    must equal the generic ``dumps_frame`` path on every input."""

    @pytest.fixture
    def generic_calls(self, monkeypatch):
        calls = []
        real = protocol.dumps_frame

        def counting(event):
            calls.append(event)
            return real(event)

        monkeypatch.setattr(protocol, "dumps_frame", counting)
        return calls

    @settings(max_examples=300, deadline=None)
    @given(event_frames())
    def test_template_bytes_equal_the_generic_encoder(self, event):
        assert encode_sse(event) == reference_sse(event)

    def test_template_shape_skips_the_generic_encoder(self, generic_calls):
        event = StreamEvent(seq=3, time=1.25, kind="event", run="s3",
                            data={"line": '{"a": "\u00e9"}'})
        expected = reference_sse(event)
        generic_calls.clear()
        assert encode_sse(event) == expected
        assert generic_calls == []

    @pytest.mark.parametrize("change", [
        {"time": 2},
        {"time": math.nan},
        {"time": math.inf},
        {"time": -math.inf},
        {"run": None},
        {"seq": True},
        {"kind": "run_end"},
        {"data": {"line": "x", "extra": 1}},
        {"data": {"line": 7}},
        {"data": {"text": "x"}},
        {"data": {}},
    ], ids=lambda change: repr(change))
    def test_other_shapes_take_the_generic_path(self, change,
                                                 generic_calls):
        fields = dict(seq=9, time=0.5, kind="event", run="scenario3",
                      data={"line": "x"})
        fields.update(change)
        event = StreamEvent(**fields)
        expected = reference_sse(event)
        generic_calls.clear()
        assert encode_sse(event) == expected
        assert generic_calls == [event]


class TestReassembly:
    def feed(self):
        lines = [json.dumps({"seq": i, "time": float(i)}, sort_keys=True)
                 for i in range(3)]
        return [
            StreamEvent(1, 0.0, "run_start", "scenario3", {}),
            StreamEvent(2, 0.0, "event", "scenario3", {"line": lines[0]}),
            StreamEvent(3, 1.0, "event", "scenario3", {"line": lines[1]}),
            StreamEvent(4, 2.0, "event", "scenario3", {"line": lines[2]}),
            StreamEvent(5, 2.0, "run_end", "scenario3",
                        {"makespan": 2.0, "events": 3}),
            StreamEvent(6, 0.0, "end", None, {"status": "ok"}),
        ], lines

    def test_reassembles_the_archived_log(self):
        feed, lines = self.feed()
        assert reassemble_feed(feed) == {
            "scenario3": "\n".join(lines) + "\n"}

    def test_deduplicates_resumed_frames(self):
        feed, lines = self.feed()
        resumed = feed + feed[2:]  # a reconnect legitimately replays
        assert reassemble_feed(resumed) == reassemble_feed(feed)

    def test_gap_is_refused_with_resume_hint(self):
        feed, _ = self.feed()
        with pytest.raises(StreamProtocolError, match="resume from 2"):
            reassemble_feed([feed[0], feed[1], feed[3]])

    def test_event_without_line_is_refused(self):
        with pytest.raises(StreamProtocolError, match="no line/run"):
            reassemble_feed([StreamEvent(1, 0.0, "event", "scenario3",
                                         {})])

    def test_feed_makespans_reads_run_end_frames(self):
        feed, _ = self.feed()
        assert feed_makespans(feed) == {"scenario3": 2.0}

    def test_split_runs_groups_in_feed_order(self):
        feed, _ = self.feed()
        groups = split_runs(feed)
        assert [label for label, _ in groups] == ["scenario3"]
        assert len(groups[0][1]) == 3
