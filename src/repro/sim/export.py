"""Trace serialization: JSON-lines export/import of event logs.

Lets a simulated session be archived, diffed, or analyzed outside the
process (the equivalent of keeping the classroom's raw stopwatch sheets).
Round-trips exactly: ``import_events(export_events(evs)) == evs``.
"""

from __future__ import annotations

import io
import json
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


def event_line(event: Event) -> str:
    """One archived line: trace files and stream feeds both carry it."""
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
