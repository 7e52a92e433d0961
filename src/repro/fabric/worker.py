"""The fabric worker loop: lease in, heartbeats out, result back.

One worker process runs :func:`worker_main` over its end of a duplex
``multiprocessing.Pipe``.  The wire vocabulary is deliberately tiny —
five tuple shapes, listed below — and each worker owns its pipe
exclusively (single producer, no shared queue locks), so a SIGKILLed
worker can never wedge its siblings: the coordinator just sees EOF on
that one connection.

Coordinator -> worker::

    ("lease", lease_id, cell_index, [task, ...])   # one whole cell
    ("shutdown",)

Worker -> coordinator::

    ("hello", worker)                              # ready for leases
    ("beat", worker, lease_id, trial)              # one trial finished
    ("result", worker, lease_id, cell_index, [payload, ...])
    ("error", worker, lease_id, cell_index, message)

Every lease is executed by :func:`repro.sweep.executor.run_cell_tasks`,
a pure function of its task dicts, so *which* worker computes a cell can
never change its bytes; the coordinator is free to retry, hedge, and
steal leases at will.

Chaos hooks (:mod:`repro.fabric.chaos`) key off the worker's local
lease ordinal: crash on receipt, stall before compute, start slow,
or compute-then-drop the response.  They live here, in the worker
loop itself, so the coordinator is tested against the real failure
surface rather than a mock.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from .chaos import (
    ChaosEvent,
    DroppedResponse,
    SlowStart,
    WorkerCrash,
    WorkerStall,
)

#: Message-type tags, shared by local workers, remote client threads,
#: and the coordinator.
MSG_LEASE = "lease"
MSG_SHUTDOWN = "shutdown"
MSG_HELLO = "hello"
MSG_BEAT = "beat"
MSG_RESULT = "result"
MSG_ERROR = "error"


def startup_delay(chaos: Sequence[ChaosEvent]) -> float:
    """Seconds a worker's chaos script delays its hello."""
    return sum(e.delay_s for e in chaos if isinstance(e, SlowStart))


def crashes_on(chaos: Sequence[ChaosEvent], ordinal: int) -> bool:
    """Whether the script kills the worker on this lease ordinal."""
    return any(isinstance(e, WorkerCrash) and e.on_lease == ordinal
               for e in chaos)


def stall_before(chaos: Sequence[ChaosEvent], ordinal: int) -> float:
    """Seconds the script stalls the worker before this lease's work."""
    return sum(e.stall_s for e in chaos
               if isinstance(e, WorkerStall) and e.on_lease == ordinal)


def drops_response(chaos: Sequence[ChaosEvent], ordinal: int) -> bool:
    """Whether the script swallows this lease's final result."""
    return any(isinstance(e, DroppedResponse) and e.on_lease == ordinal
               for e in chaos)


def worker_main(conn, worker: str,
                chaos: Sequence[ChaosEvent] = ()) -> None:
    """Run one local worker until shutdown (or scripted death).

    Args:
        conn: the worker's end of a duplex ``multiprocessing.Pipe``.
        worker: this worker's name (chaos events address it by name).
        chaos: this worker's slice of the chaos plan, already filtered
            via :meth:`~repro.fabric.chaos.ChaosPlan.for_worker`.
    """
    from ..sweep.executor import run_cell_tasks

    delay = startup_delay(chaos)
    if delay:
        time.sleep(delay)
    conn.send((MSG_HELLO, worker))

    ordinal = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # coordinator went away; nothing left to do
        if message[0] == MSG_SHUTDOWN:
            break
        _, lease_id, cell_index, tasks = message
        ordinal += 1

        if crashes_on(chaos, ordinal):
            # Die the hard way: no cleanup, no flush, no goodbye —
            # exactly what SIGKILL or a kernel OOM-kill looks like.
            os._exit(1)
        stall = stall_before(chaos, ordinal)
        if stall:
            time.sleep(stall)  # heartbeats stop for the duration

        # Reference trials heartbeat one by one; a vector lease is one
        # whole-cell batch, so its heartbeats arrive in a burst when the
        # batch lands.
        try:
            payloads = run_cell_tasks(
                tasks, on_trial=lambda task: conn.send(
                    (MSG_BEAT, worker, lease_id, task["trial"])))
        except Exception as exc:
            conn.send((MSG_ERROR, worker, lease_id, cell_index,
                       f"{type(exc).__name__}: {exc}"))
            continue
        if drops_response(chaos, ordinal):
            continue  # the work happened; the reply evaporates
        conn.send((MSG_RESULT, worker, lease_id, cell_index, payloads))
    conn.close()
