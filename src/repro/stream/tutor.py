"""Interactive guided lessons: the paper's debrief, narrated live.

``repro tutor`` runs one *real* engine trial — the full classroom
activity, scenario 1 through 4 — publishes it through the stream bus
and narrates one of the paper's lessons over the feed:

- ``speedup``: makespans fall from scenario 1 to 3, sublinearly;
- ``warmup``: the repeated scenario 1 run is faster than the first;
- ``contention``: scenario 4's shared implements make agents wait;
- ``pipelining``: scenario 4's first strokes form a filling staircase.

Every lesson consumes the same feed a remote SSE subscriber would see
(frame for frame), reconstructs the focal run's trace from the
streamed archive lines, and renders a terminal Gantt plus an
agents-waiting sparkline — the "watch the parallelism happen" view the
activity is built around.  Locally the trial executes in-process
through :func:`~repro.sweep.executor.run_trial` and its payload is
published with :func:`~repro.stream.runner.replay_payload`, as the
server does; with ``serve=(host, port)`` the tutor subscribes to a
remote ``repro serve`` endpoint over SSE instead, so one classroom
server can drive many tutors.

The lesson catalog is a plain name → description mapping
(:func:`available_lessons`), the shape a lesson-picking CLI wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..classroom.discussion import LESSON_INTROS, Lesson
from ..sim.export import import_trace
from ..sim.trace import Trace
from ..sweep.executor import make_task, run_trial
from ..sweep.spec import ACTIVITY, SweepCell
from ..viz.bars import sparkline
from ..viz.gantt import render_gantt
from .bus import RunStream
from .protocol import (
    StreamEvent,
    StreamProtocolError,
    feed_makespans,
    reassemble_feed,
)
from .runner import finish_stream, replay_payload

#: Default experiment shape every lesson runs (the classroom default).
DEFAULT_FLAG = "mauritius"
DEFAULT_TEAM_SIZE = 6


class TutorError(Exception):
    """Raised for unknown lessons or feeds that cannot be narrated."""


@dataclass(frozen=True)
class TutorLesson:
    """One guided lesson: what to watch and how to talk about it."""

    name: str
    lesson: Lesson
    description: str
    focus_run: str  # the run label the Gantt view renders


LESSONS: Dict[str, TutorLesson] = {
    lesson.name: lesson for lesson in (
        TutorLesson(
            name="speedup",
            lesson=Lesson.SPEEDUP,
            description="makespans fall from scenario 1 to 3 — "
                        "but never by the worker count",
            focus_run="scenario3"),
        TutorLesson(
            name="warmup",
            lesson=Lesson.WARMUP,
            description="the repeated first run is faster: teams "
                        "(and caches) warm up",
            focus_run="scenario1_repeat"),
        TutorLesson(
            name="contention",
            lesson=Lesson.CONTENTION,
            description="scenario 4's shared implements stall four "
                        "workers behind two crayons",
            focus_run="scenario4"),
        TutorLesson(
            name="pipelining",
            lesson=Lesson.PIPELINING,
            description="scenario 4's first strokes staircase as the "
                        "pipeline fills",
            focus_run="scenario4"),
    )
}


@dataclass
class LessonReport:
    """What one tutor session saw (returned for tests and callers)."""

    name: str
    makespans: Dict[str, float]
    frames: int
    remote: bool
    lines: List[str] = field(default_factory=list)

    def text(self) -> str:
        """The full narration as one printable block."""
        return "\n".join(self.lines)


def available_lessons() -> Dict[str, str]:
    """Lesson name → one-line description, in catalog order."""
    return {name: lesson.description for name, lesson in LESSONS.items()}


def lesson_catalog() -> str:
    """The printable lesson catalog (``repro tutor --list``)."""
    width = max(len(name) for name in LESSONS)
    lines = ["Available lessons:"]
    for name, desc in available_lessons().items():
        lines.append(f"  {name:<{width}}  {desc}")
    return "\n".join(lines)


def activity_cell(*, flag: str = DEFAULT_FLAG,
                  team_size: int = DEFAULT_TEAM_SIZE) -> SweepCell:
    """The whole-activity cell every lesson streams."""
    from ..agents.student import FillStyle
    from ..schedule import AcquirePolicy
    return SweepCell(flag=flag, scenario=ACTIVITY, team_size=team_size,
                     policy=AcquirePolicy.HOLD_COLOR_RUN,
                     style=FillStyle.SCRIBBLE)


def _collect_local(cell: SweepCell, seed: int) -> List[StreamEvent]:
    """Run the trial in-process and publish its payload; its whole feed."""
    payload = run_trial(make_task(cell, seed=seed, n_trials=1, trial=0))
    stream = RunStream(f"tutor-{cell.flag}-{seed}")
    with stream.subscribe() as sub:
        replay_payload(payload, stream)
        finish_stream(stream, cached=False, runs=list(payload["runs"]))
        return sub.pop_ready(max_frames=stream.last_seq)


def _collect_remote(cell: SweepCell, seed: int, serve: Tuple[str, int],
                    token: Optional[str]) -> List[StreamEvent]:
    """Subscribe to a remote serve endpoint; returns its whole feed."""
    from ..serve.client import ServeClient
    host, port = serve
    client = ServeClient(host, port, token=token)
    reply = client.run(flag=cell.flag, scenario=cell.scenario,
                       seed=seed, team_size=cell.team_size,
                       stream=True)
    return list(client.stream(reply["stream"]))


def _waiting_series(trace: Trace) -> List[float]:
    """Agents-waiting counts sampled at every queue transition."""
    from ..sim.events import EventKind
    waiting = 0
    series: List[float] = []
    for event in trace.events:
        if event.kind == EventKind.RESOURCE_REQUEST:
            waiting += 1
        elif event.kind == EventKind.RESOURCE_ACQUIRE:
            waiting = max(0, waiting - 1)
        else:
            continue
        series.append(float(waiting))
    return series


def _narrate(lesson: TutorLesson, makespans: Dict[str, float],
             traces: Dict[str, Trace]) -> List[str]:
    """The lesson-specific storyline over the observed numbers."""
    out: List[str] = []
    if lesson.name == "speedup":
        base = makespans.get("scenario1")
        for label in ("scenario1", "scenario2", "scenario3"):
            span = makespans.get(label)
            if span is None or base is None:
                continue
            ratio = base / span if span else 0.0
            out.append(f"  {label}: makespan {span:.0f}s "
                       f"(speedup x{ratio:.2f})")
        out.append("  more workers help — but never linearly: "
                   "coordination and shared implements eat the rest.")
    elif lesson.name == "warmup":
        first = makespans.get("scenario1")
        again = makespans.get("scenario1_repeat")
        if first is not None and again is not None:
            out.append(f"  first run {first:.0f}s, repeat "
                       f"{again:.0f}s — the team warmed up "
                       f"({(1 - again / first) * 100:.0f}% faster).")
        out.append("  the same effect shows up as cold vs warm caches "
                   "in real systems.")
    elif lesson.name == "contention":
        trace = traces.get("scenario4")
        if trace is not None:
            span = trace.makespan()
            waited = sum(iv.duration for iv in trace.wait_intervals())
            frac = waited / (span * max(1, len(trace.agents()))) \
                if span else 0.0
            out.append(f"  scenario4: {waited:.0f}s spent waiting for "
                       f"implements ({frac * 100:.0f}% of worker "
                       f"time).")
        three = makespans.get("scenario3")
        four = makespans.get("scenario4")
        if three is not None and four is not None:
            out.append(f"  same four workers: scenario3 {three:.0f}s, "
                       f"scenario4 {four:.0f}s — sharing is the "
                       f"difference.")
    elif lesson.name == "pipelining":
        trace = traces.get("scenario4")
        if trace is not None:
            from ..schedule.pipeline import pipeline_metrics
            pm = pipeline_metrics(trace)
            starts = sorted(pm.first_stroke.values())
            stair = ", ".join(f"{s:.0f}s" for s in starts)
            out.append(f"  first strokes began at {stair} — the "
                       f"pipeline took {pm.fill_time:.0f}s to fill.")
        out.append("  fill and drain time is why short pipelines "
                   "never hit their steady-state rate.")
    return out


def run_lesson(name: str, *, flag: str = DEFAULT_FLAG, seed: int = 7,
               team_size: int = DEFAULT_TEAM_SIZE,
               serve: Optional[Tuple[str, int]] = None,
               token: Optional[str] = None,
               width: int = 64,
               out: Optional[Callable[[str], Any]] = None
               ) -> LessonReport:
    """Run one guided lesson end to end; returns what it narrated.

    Args:
        serve: ``(host, port)`` of a live ``repro serve`` endpoint to
            stream from; None runs the trial in-process.
        token: Bearer token for a ``--require-token`` server.
        out: line sink (e.g. ``print``); None collects silently.

    Raises:
        TutorError: for unknown lesson names or a feed that ended in
            an ``error`` frame / cannot be reassembled.
    """
    lesson = LESSONS.get(name)
    if lesson is None:
        raise TutorError(
            f"unknown lesson {name!r}; one of {sorted(LESSONS)}")
    cell = activity_cell(flag=flag, team_size=team_size)
    if serve is None:
        frames = _collect_local(cell, seed)
    else:
        frames = _collect_remote(cell, seed, serve, token)
    for frame in frames:
        if frame.kind == "error":
            raise TutorError(
                f"streamed run failed: {frame.data.get('message')}")
    try:
        logs = reassemble_feed(frames)
    except StreamProtocolError as exc:
        raise TutorError(f"feed did not reassemble: {exc}") from exc
    traces = {label: import_trace(text) for label, text in logs.items()}
    makespans = feed_makespans(frames)

    report = LessonReport(name=name, makespans=makespans,
                          frames=len(frames), remote=serve is not None)

    def emit(line: str) -> None:
        report.lines.append(line)
        if out is not None:
            out(line)

    emit(f"lesson: {name} — {lesson.description}")
    emit(f"  {LESSON_INTROS[lesson.lesson]}")
    emit(f"  watched {len(frames)} frames over "
         f"{len(traces)} runs of {flag!r} (seed {seed}"
         f"{', remote' if serve is not None else ''}).")
    emit("")
    for line in _narrate(lesson, makespans, traces):
        emit(line)
    focus = traces.get(lesson.focus_run)
    if focus is not None:
        emit("")
        emit(f"  {lesson.focus_run} timeline:")
        for line in render_gantt(focus, width=width).split("\n"):
            emit(f"    {line}")
        series = _waiting_series(focus)
        if series:
            emit(f"    agents waiting: {sparkline(series)}")
    return report
