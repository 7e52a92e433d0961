"""Trace serialization: JSON-lines export/import of event logs.

Lets a simulated session be archived, diffed, or analyzed outside the
process (the equivalent of keeping the classroom's raw stopwatch sheets).
Round-trips exactly: ``import_events(export_events(evs)) == evs``.
"""

from __future__ import annotations

import io
import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, List, TextIO, Union

from .events import Event, EventKind
from .trace import Trace


class ExportError(Exception):
    """Raised for malformed trace files."""


def event_to_dict(event: Event) -> dict:
    """One event as a JSON-safe dict."""
    return {
        "time": event.time,
        "seq": event.seq,
        "kind": event.kind.value,
        "agent": event.agent,
        "data": dict(event.data),
    }


def event_from_dict(d: dict) -> Event:
    """Rebuild an event from its dict form.

    Raises:
        ExportError: on missing fields or unknown event kinds.
    """
    try:
        kind = EventKind(d["kind"])
        return Event(time=float(d["time"]), seq=int(d["seq"]), kind=kind,
                     agent=d.get("agent"), data=dict(d.get("data", {})))
    except (KeyError, ValueError) as exc:
        raise ExportError(f"bad event record {d!r}: {exc}") from exc


#: Stroke kinds the template writes, with their wire names.
_STROKE_KINDS = {EventKind.STROKE_START: EventKind.STROKE_START.value,
                 EventKind.STROKE_END: EventKind.STROKE_END.value}

#: The exact ``data`` key set of a stroke event (``runner.paint_stroke``).
_STROKE_KEYS = frozenset(("cell", "color", "layer"))


def event_line(event: Event) -> str:
    """One archived line: trace files and stream feeds both carry it.

    The bytes are ``json.dumps(event_to_dict(event), sort_keys=True)``.
    Stroke events (94 % of a typical trace) of the exact shape the
    runner logs skip the generic encoder: one template writes their
    keys in sorted order, strings through ``json``'s own ASCII escaper
    and the time through ``float.__repr__``, as ``json.dumps`` does.
    Any other kind, key set or field type takes the generic call.
    """
    kind = _STROKE_KINDS.get(event.kind)
    data = event.data
    if (kind is not None and type(data) is dict
            and data.keys() == _STROKE_KEYS):
        agent, seq, time = event.agent, event.seq, event.time
        cell, color, layer = data["cell"], data["color"], data["layer"]
        if (type(agent) is str and type(seq) is int
                and type(time) is float and math.isfinite(time)
                and type(cell) is tuple and len(cell) == 2
                and type(cell[0]) is int and type(cell[1]) is int
                and type(color) is str and type(layer) is str):
            return (f'{{"agent": {_quote(agent)}, "data": {{"cell": '
                    f'[{cell[0]!r}, {cell[1]!r}], "color": {_quote(color)}, '
                    f'"layer": {_quote(layer)}}}, "kind": "{kind}", '
                    f'"seq": {seq!r}, "time": {float.__repr__(time)}}}')
    return json.dumps(event_to_dict(event), sort_keys=True)


def export_events(events: Iterable[Event],
                  fp: Union[TextIO, None] = None) -> str:
    """Serialize events as JSON lines; returns the text (and writes to
    ``fp`` when given)."""
    lines = [event_line(e) for e in events]
    text = "\n".join(lines) + ("\n" if lines else "")
    if fp is not None:
        fp.write(text)
    return text


def import_events(source: Union[str, TextIO]) -> List[Event]:
    """Parse JSON-lines text (or a file object) back into events.

    Raises:
        ExportError: on unparseable lines or bad records.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    events: List[Event] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ExportError(f"line {lineno}: invalid JSON: {exc}") from exc
        events.append(event_from_dict(d))
    return events


def export_trace(trace: Trace, fp: Union[TextIO, None] = None) -> str:
    """Serialize a whole trace's event list."""
    return export_events(trace.events, fp)


def import_trace(source: Union[str, TextIO]) -> Trace:
    """Load a trace back; all Trace analyses work on the result."""
    return Trace(import_events(source))
