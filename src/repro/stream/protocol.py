"""The stream wire schema: versioned event envelopes and SSE framing.

One streamed run is a totally-ordered feed of :class:`StreamEvent`
envelopes.  The envelope is deliberately thin:

- ``seq`` — the *stream cursor*: 1-based, contiguous, assigned by the
  bus in publish order.  It is the resume key (``Last-Event-ID`` /
  ``?after=``) and is distinct from the engine's own per-run event
  sequence numbers, which live inside the payload.
- ``time`` — the simulated timestamp of the underlying engine event
  (monotonic *within* one run; control frames carry the time of the
  run boundary they mark).
- ``kind`` — the span kind: ``"event"`` for engine events, or a
  control kind (``run_start`` / ``run_end`` / ``end`` / ``bye`` /
  ``error``).  ``end`` and ``bye`` are *terminal*: nothing follows
  them, ever.
- ``run`` — the run label the frame belongs to (``scenario3``,
  ``scenario1_repeat``, ...); lifecycle-only frames (``end``, ``bye``)
  carry ``None``.
- ``data`` — the payload.  For ``kind="event"`` this is
  ``{"line": <canonical JSON line>}`` where the line is *exactly* one
  line of :func:`repro.sim.export.export_events` — the archived
  event-log serialization.  That identity is the whole point:
  concatenating the ``line`` fields of a run's ``event`` frames (plus
  the trailing newline) reproduces the archived event log **byte for
  byte** (:func:`reassemble_feed`), so streaming can never disagree
  with the archive.

The SSE mapping is one envelope per frame: ``id:`` carries ``seq``,
``data:`` carries the canonical JSON of the envelope, and comment
lines (``: ...``) are heartbeats a client ignores.  Feeds are
idempotent under resume: frames replayed after a reconnect carry their
original ``seq``, and :func:`reassemble_feed` deduplicates on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..canonical import canonical_json

#: Version stamp on every envelope; bump on breaking schema changes.
STREAM_PROTOCOL_VERSION = 1

#: Frame kinds that end a feed — nothing may follow them.
TERMINAL_KINDS = frozenset({"end", "bye", "error"})

#: Every kind a conforming feed may carry.
FRAME_KINDS = frozenset(
    {"event", "run_start", "run_end"}) | TERMINAL_KINDS


class StreamProtocolError(Exception):
    """Raised for malformed frames or feeds that violate the schema."""


@dataclass(frozen=True)
class StreamEvent:
    """One envelope of the stream feed (see the module docstring)."""

    seq: int
    time: float
    kind: str
    run: Optional[str]
    data: Dict[str, Any]

    @property
    def terminal(self) -> bool:
        """Whether this frame ends the feed."""
        return self.kind in TERMINAL_KINDS

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe wire dict (stable key set, versioned)."""
        return {"v": STREAM_PROTOCOL_VERSION, "seq": self.seq,
                "time": self.time, "kind": self.kind, "run": self.run,
                "data": self.data}

    @classmethod
    def from_wire(cls, d: Dict[str, Any]) -> "StreamEvent":
        """Rebuild an envelope from its wire dict.

        Raises:
            StreamProtocolError: on missing fields, unknown kinds, or a
                version this library does not speak.
        """
        try:
            version = int(d["v"])
            if version != STREAM_PROTOCOL_VERSION:
                raise StreamProtocolError(
                    f"stream protocol v{version} not supported "
                    f"(this library speaks v{STREAM_PROTOCOL_VERSION})")
            kind = str(d["kind"])
            if kind not in FRAME_KINDS:
                raise StreamProtocolError(f"unknown frame kind {kind!r}")
            run = d.get("run")
            return cls(seq=int(d["seq"]), time=float(d["time"]),
                       kind=kind,
                       run=None if run is None else str(run),
                       data=dict(d.get("data", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamProtocolError(
                f"bad stream frame {d!r}: {exc}") from exc


def dumps_frame(event: StreamEvent) -> str:
    """Canonical JSON for one envelope (sorted keys, compact)."""
    return canonical_json(event.to_wire())


def loads_frame(text: str) -> StreamEvent:
    """Parse one envelope from its JSON text.

    Raises:
        StreamProtocolError: on unparseable JSON or a bad envelope.
    """
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StreamProtocolError(
            f"invalid frame JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise StreamProtocolError(f"frame must be an object, got {d!r}")
    return StreamEvent.from_wire(d)


def encode_sse(event: StreamEvent) -> bytes:
    """One envelope as a Server-Sent-Events frame (``id`` + ``data``).

    The bytes are ``f"id: {seq}\\ndata: {dumps_frame(event)}\\n\\n"``.
    Engine event frames (nearly every frame of a feed) of the exact
    shape the stream observer publishes skip the generic encoder: one
    template writes the envelope's keys in sorted order, strings
    through ``json``'s own ASCII escaper and the time through
    ``float.__repr__``, as :func:`~repro.canonical.canonical_json`
    does.  Any other kind, key set or field type takes
    :func:`dumps_frame`.
    """
    data = event.data
    if event.kind == "event" and type(data) is dict and len(data) == 1:
        line, seq, time, run = (data.get("line"), event.seq, event.time,
                                event.run)
        if (type(line) is str and type(run) is str and type(seq) is int
                and type(time) is float and math.isfinite(time)):
            return (f'id: {seq!r}\ndata: {{"data":{{"line":{_quote(line)}}},'
                    f'"kind":"event","run":{_quote(run)},"seq":{seq!r},'
                    f'"time":{float.__repr__(time)},'
                    f'"v":{STREAM_PROTOCOL_VERSION!r}}}\n\n'
                    ).encode("ascii")
    return (f"id: {event.seq}\ndata: {dumps_frame(event)}\n\n"
            .encode("utf-8"))


def heartbeat_comment(n: int) -> bytes:
    """The ``n``-th keepalive comment frame (clients must ignore it)."""
    return f": keepalive {n}\n\n".encode("utf-8")


def decode_sse_lines(lines: Iterable[str]
                     ) -> Iterable[StreamEvent]:
    """Parse decoded SSE text lines back into envelopes.

    Comment lines and ``id:`` fields are consumed but the envelope is
    authoritative (its ``seq`` *is* the id).  Yields events as their
    blank-line terminators arrive, so it works on a live feed.
    """
    data: List[str] = []
    for line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            if data:
                yield loads_frame("\n".join(data))
                data = []
            continue
        if line.startswith(":"):
            continue
        field, _, value = line.partition(":")
        if value.startswith(" "):
            value = value[1:]
        if field == "data":
            data.append(value)
    if data:  # tolerate a feed truncated before its final blank line
        yield loads_frame("\n".join(data))


def reassemble_feed(events: Iterable[StreamEvent]
                    ) -> Dict[str, str]:
    """Rebuild per-run archived event logs from a feed.

    Deduplicates on ``seq`` (resumed feeds legitimately repeat frames),
    then checks the surviving cursor sequence is contiguous — a hole
    means the feed lost frames on the way (a cut connection, or a peer
    that sheds them) and the caller should resume from the gap instead
    of trusting the text.

    Returns:
        Mapping of run label to event-log text, byte-identical to
        :func:`repro.sim.export.export_events` of that run's events.

    Raises:
        StreamProtocolError: on a gap in the deduplicated cursor
            sequence or an ``event`` frame without its ``line``.
    """
    by_seq: Dict[int, StreamEvent] = {}
    for ev in events:
        by_seq.setdefault(ev.seq, ev)
    lines: Dict[str, List[str]] = {}
    expected = None
    for seq in sorted(by_seq):
        if expected is not None and seq != expected:
            raise StreamProtocolError(
                f"gap in stream feed: expected seq {expected}, "
                f"got {seq} (missing frames; resume from "
                f"{expected - 1})")
        expected = seq + 1
        ev = by_seq[seq]
        if ev.kind != "event":
            continue
        if "line" not in ev.data or ev.run is None:
            raise StreamProtocolError(
                f"event frame {seq} carries no line/run")
        lines.setdefault(ev.run, []).append(str(ev.data["line"]))
    return {run: "\n".join(ls) + "\n" for run, ls in lines.items()}


def feed_makespans(events: Iterable[StreamEvent]
                   ) -> Dict[str, float]:
    """Per-run makespans from the ``run_end`` control frames."""
    out: Dict[str, float] = {}
    for ev in events:
        if ev.kind == "run_end" and ev.run is not None:
            out[ev.run] = float(ev.data.get("makespan", ev.time))
    return out


def split_runs(events: Iterable[StreamEvent]
               ) -> List[Tuple[str, List[StreamEvent]]]:
    """Group a feed's ``event`` frames by run label, in feed order."""
    out: List[Tuple[str, List[StreamEvent]]] = []
    for ev in events:
        if ev.kind != "event" or ev.run is None:
            continue
        if not out or out[-1][0] != ev.run:
            out.append((ev.run, []))
        out[-1][1].append(ev)
    return out
