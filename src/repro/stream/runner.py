"""Publish one sweep trial's payload through the stream bus.

A feed has one producer: the archived trial payload.
:func:`replay_payload` re-publishes its event log
(``payload["runs"][label]["trace"]`` is the verbatim
:func:`repro.sim.export.export_trace` text) as frames, whether the
payload was just computed by :func:`repro.sweep.executor.run_trial` or
read back from a cache or store, so cold and warm feeds are the same
frames.  The caller finishes the feed with :func:`finish_stream`
(terminal ``end`` frame) or :func:`fail_stream` (terminal ``error``).

The vector backend advances trials as structure-of-arrays draws and
never materializes an event log, so there is nothing to stream;
:func:`check_streamable` refuses those tasks up front with
:class:`StreamUnsupported` — the error the serve layer maps onto a 422
``stream_unsupported``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..sweep.spec import ACTIVITY
from .bus import RunStream

#: Run labels of one whole-activity trial, in classroom execution
#: order (see :func:`repro.schedule.scenario.run_core_activity`).
ACTIVITY_RUN_LABELS = ("scenario1", "scenario1_repeat", "scenario2",
                      "scenario3", "scenario4")


class StreamUnsupported(Exception):
    """Raised for tasks whose execution produces no event log."""


def expected_run_labels(cell: Dict[str, Any]) -> List[str]:
    """The run labels one trial of ``cell`` will produce, in order."""
    if cell["scenario"] == ACTIVITY:
        return list(ACTIVITY_RUN_LABELS)
    return [f"scenario{cell['scenario']}"]


def check_streamable(task: Dict[str, Any]) -> None:
    """Refuse tasks that cannot carry a stream.

    Raises:
        StreamUnsupported: for vector-backend tasks — the vectorized
            engine carries no traces, so there are no events to feed.
    """
    backend = task.get("backend", "reference")
    if backend != "reference":
        raise StreamUnsupported(
            f"the {backend!r} backend carries no event traces; "
            f"streaming needs the reference engine")


def replay_payload(payload: Dict[str, Any], stream: RunStream) -> None:
    """Publish an archived trial payload's event log as a feed.

    Each run is a ``run_start`` frame, one ``event`` frame per archived
    line (re-emitted verbatim, so the feed reassembles to the archive
    byte for byte) and a ``run_end`` frame whose makespan is the last
    event time.  The feed is left open: the caller decides whether
    ``end`` (normal) or ``error`` closes it.
    """
    import json

    for label, run in payload["runs"].items():
        lines = [ln for ln in run["trace"].split("\n") if ln]
        stream.publish("run_start", run=label, time=0.0)
        makespan = 0.0
        for line in lines:
            time = float(json.loads(line)["time"])
            makespan = max(makespan, time)
            stream.publish("event", run=label, time=time,
                           data={"line": line})
        stream.publish("run_end", run=label, time=makespan,
                       data={"makespan": makespan,
                             "events": len(lines)})


def finish_stream(stream: RunStream, *, cached: bool,
                  runs: List[str]) -> None:
    """Publish the terminal ``end`` frame of a successful feed."""
    stream.publish("end", run=None, time=0.0,
                   data={"status": "ok", "cached": cached,
                         "runs": runs})


def fail_stream(stream: RunStream, message: str) -> None:
    """Publish the terminal ``error`` frame of a failed feed."""
    stream.publish("error", run=None, time=0.0,
                   data={"status": "error", "message": message})
