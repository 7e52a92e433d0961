"""Deterministic self-chaos: scripted failures for fabric workers.

The fault-injection idea of :mod:`repro.faults` lifted one level up:
where a :class:`~repro.faults.plan.FaultPlan` breaks simulated students
*inside* a run, a :class:`ChaosPlan` breaks the *infrastructure* that
executes runs — a worker process dies, stalls, starts late, or computes
a result and never reports it.  The coordinator must absorb every one
of these and still produce byte-identical sweep results.

Determinism without a clock: chaos events trigger on a worker's local
**lease ordinal** (its 1st, 2nd, ... lease), never on wall time, so the
same plan against the same spec exercises the same failure no matter
how fast the host is.  ``SlowStart`` is the one duration-shaped event
(a delay before the worker reports for duty); it changes scheduling,
never results.

Events address workers by *name* (``w0``, ``w1``, ... for local
processes; ``r0``, ... for remote clients), mirroring how fault plans
address students by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union


class ChaosError(Exception):
    """Raised for invalid chaos plans (bad ordinals, negative delays)."""


def _check_worker(worker: str) -> None:
    if not isinstance(worker, str) or not worker:
        raise ChaosError(f"worker name must be a non-empty string, "
                         f"got {worker!r}")


def _check_ordinal(on_lease: int) -> None:
    if isinstance(on_lease, bool) or not isinstance(on_lease, int) \
            or on_lease < 1:
        raise ChaosError(f"on_lease is a 1-based ordinal, got {on_lease!r}")


@dataclass(frozen=True)
class WorkerCrash:
    """The worker dies the instant it receives its ``on_lease``-th lease.

    Local processes ``os._exit`` (indistinguishable from SIGKILL: no
    cleanup, no goodbye); remote clients drop their coordinator link.
    The lease is lost mid-flight and must be re-issued elsewhere.
    """

    worker: str
    on_lease: int

    def __post_init__(self) -> None:
        _check_worker(self.worker)
        _check_ordinal(self.on_lease)


@dataclass(frozen=True)
class WorkerStall:
    """The worker sleeps ``stall_s`` before computing its Nth lease.

    Heartbeats stop for the whole stall — exactly what a wedged process
    looks like from the coordinator — then the worker wakes and finishes
    normally.  If the coordinator hedged or re-leased meanwhile, the
    late result arrives as a duplicate and is discarded.
    """

    worker: str
    on_lease: int
    stall_s: float

    def __post_init__(self) -> None:
        _check_worker(self.worker)
        _check_ordinal(self.on_lease)
        if self.stall_s < 0:
            raise ChaosError(f"stall_s must be >= 0, got {self.stall_s}")


@dataclass(frozen=True)
class SlowStart:
    """The worker waits ``delay_s`` before saying hello.

    Models a cold container or a late classroom arrival: the fabric
    must start leasing to whoever *is* present and fold the straggler
    in (it takes the head of the shared queue) when it finally appears.
    """

    worker: str
    delay_s: float

    def __post_init__(self) -> None:
        _check_worker(self.worker)
        if self.delay_s < 0:
            raise ChaosError(f"delay_s must be >= 0, got {self.delay_s}")


@dataclass(frozen=True)
class DroppedResponse:
    """The worker computes its Nth lease fully, then says nothing.

    The nastiest failure: all heartbeats arrive (the work really
    happened), the final result silently vanishes — a lost network
    reply.  Only a hedge or a heartbeat-silence retry recovers the
    cell; the worker itself keeps waiting for its next lease as if
    nothing were wrong.
    """

    worker: str
    on_lease: int

    def __post_init__(self) -> None:
        _check_worker(self.worker)
        _check_ordinal(self.on_lease)


ChaosEvent = Union[WorkerCrash, WorkerStall, SlowStart, DroppedResponse]

_EVENT_TYPES = (WorkerCrash, WorkerStall, SlowStart, DroppedResponse)


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable, validated schedule of infrastructure failures."""

    events: Tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, _EVENT_TYPES):
                raise ChaosError(
                    f"not a chaos event: {event!r}")
        seen = set()
        for event in self.events:
            ordinal = getattr(event, "on_lease", None)
            key = (type(event), event.worker, ordinal)
            if key in seen:
                raise ChaosError(f"duplicate chaos event {event!r}")
            seen.add(key)

    @classmethod
    def of(cls, events: Iterable[ChaosEvent]) -> "ChaosPlan":
        """Build a plan from any iterable of events."""
        return cls(events=tuple(events))

    def for_worker(self, worker: str) -> List[ChaosEvent]:
        """The events that target one worker, in plan order."""
        return [e for e in self.events if e.worker == worker]

    def __len__(self) -> int:
        return len(self.events)
