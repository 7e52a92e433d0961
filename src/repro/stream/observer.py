"""The engine-side publisher: an Observer that feeds the stream bus.

:class:`StreamObserver` implements the PR 2 Observer protocol
(:class:`repro.obs.observer.Observer`) and turns each engine hook into
one envelope on a :class:`~repro.stream.bus.RunStream`:

- ``on_run_start``  → a ``run_start`` control frame;
- ``on_event``      → an ``event`` frame whose payload ``line`` is the
  *exact* archived serialization of the event —
  :func:`repro.sim.export.event_line` — which is what makes the
  streamed feed byte-identical to the archive;
- ``on_run_end``    → a ``run_end`` control frame carrying the
  makespan.

Like every observer it is a read-only tap: it never touches
simulation state, and because :meth:`RunStream.publish
<repro.stream.bus.RunStream.publish>` never blocks, attaching it
cannot slow the engine behind a lagging consumer.  One instance
observes exactly one run (it is pinned to a run label); multi-run
activities build a fresh instance per run via
:func:`label_sequence_factory`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..obs.observer import Observer
from ..sim.events import Event
from ..sim.export import event_line
from .bus import RunStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


class StreamObserver(Observer):
    """Publish one run's engine events into a stream, as they happen."""

    def __init__(self, stream: RunStream, *, run: str) -> None:
        self.stream = stream
        self.run = run
        self.events_published = 0

    def on_run_start(self, sim: "Simulator") -> None:
        """Announce the run boundary before its first event."""
        self.stream.publish("run_start", run=self.run, time=sim.now)

    def on_event(self, event: Event) -> None:
        """Forward one engine event in its archived serialization."""
        self.stream.publish("event", run=self.run, time=event.time,
                            data={"line": event_line(event)})
        self.events_published += 1

    def on_run_end(self, sim: "Simulator", makespan: float) -> None:
        """Close the run with its makespan (not the feed — see ``end``)."""
        self.stream.publish("run_end", run=self.run, time=makespan,
                            data={"makespan": makespan,
                                  "events": self.events_published})


def label_sequence_factory(stream: RunStream,
                           labels: Iterable[str]
                           ) -> Callable[[], StreamObserver]:
    """An observer factory that pins successive labels to new observers.

    :func:`repro.schedule.scenario.run_core_activity` calls its
    ``observer_factory`` once per run, in a deterministic classroom
    order; this zips that call order with the known label sequence so
    every frame carries the right run label.

    Raises:
        RuntimeError: when the factory is called more times than there
            are labels (the run plan and the label plan disagree).
    """
    it: Iterator[str] = iter(labels)

    def make() -> StreamObserver:
        try:
            label = next(it)
        except StopIteration:
            raise RuntimeError(
                "observer factory called past the planned run labels"
            ) from None
        return StreamObserver(stream, run=label)

    return make
