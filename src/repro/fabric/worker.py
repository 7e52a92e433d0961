"""The fabric worker loop: lease in, heartbeats out, result back.

Every worker runs :func:`serve_leases` over its end of a duplex
``multiprocessing.Pipe``: a local process via :func:`worker_main`, a
remote client thread via :mod:`repro.fabric.remote`.  The wire
vocabulary is deliberately tiny — six tuple shapes, listed below —
and each worker owns its pipe exclusively (single producer, no shared
queue locks), so a SIGKILLed worker can never wedge its siblings: the
coordinator just sees EOF on that one connection.

Coordinator -> worker::

    ("lease", lease_id, cell_index, [task, ...])   # one whole cell
    ("shutdown",)

Worker -> coordinator::

    ("hello", worker)                              # ready for leases
    ("beat", worker, lease_id, trial)              # one trial finished
    ("result", worker, lease_id, cell_index, [payload, ...])
    ("error", worker, lease_id, cell_index, message)

Local and remote workers differ only in how they compute a cell and
how they die on a scripted crash.  A local lease is executed by
:func:`repro.sweep.executor.run_cell_tasks`, a remote one trial by
trial over ``POST /task``; both are pure functions of their task
dicts, so *which* worker computes a cell can never change its bytes,
and the coordinator is free to retry and hedge leases at will.

Chaos hooks (:mod:`repro.fabric.chaos`) key off the worker's local
lease ordinal: crash on receipt, stall before compute, start slow,
or compute-then-drop the response.  They live here, in the lease
loop itself, so the coordinator is tested against the real failure
surface rather than a mock.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Sequence

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


def serve_leases(conn, worker: str, chaos: Sequence[ChaosEvent],
                 compute: Callable[..., List[dict]],
                 die: Callable[[], None]) -> None:
    """The lease loop every worker runs, local or remote.

    Says hello, then takes leases until shutdown (or scripted death):
    count the ordinal, apply the chaos script, compute the cell with a
    heartbeat per trial, and send the result — or, if computing raised
    anything at all, an error that costs the coordinator one retry of
    this cell rather than the whole worker.

    Args:
        conn: the worker's end of a duplex ``multiprocessing.Pipe``.
        worker: this worker's name (chaos events address it by name).
        chaos: this worker's slice of the chaos plan, already filtered
            via :meth:`~repro.fabric.chaos.ChaosPlan.for_worker`.
        compute: ``compute(tasks, on_trial=...)`` returns one cell's
            payloads, calling ``on_trial(task)`` as each trial lands.
        die: how this worker dies on a scripted crash.
    """
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
            die()
            return
        stall = stall_before(chaos, ordinal)
        if stall:
            time.sleep(stall)  # heartbeats stop for the duration

        try:
            payloads = compute(tasks, on_trial=lambda task: conn.send(
                (MSG_BEAT, worker, lease_id, task["trial"])))
        except Exception as exc:
            conn.send((MSG_ERROR, worker, lease_id, cell_index,
                       f"{type(exc).__name__}: {exc}"))
            continue
        if drops_response(chaos, ordinal):
            continue  # the work happened; the reply evaporates
        conn.send((MSG_RESULT, worker, lease_id, cell_index, payloads))
    conn.close()


def worker_main(conn, worker: str,
                chaos: Sequence[ChaosEvent] = ()) -> None:
    """Run one local worker process until shutdown (or scripted death).

    Reference trials heartbeat one by one; a vector lease is one
    whole-cell batch, so its heartbeats arrive in a burst when the
    batch lands.  Arguments as for :func:`serve_leases`.
    """
    from ..sweep.executor import run_cell_tasks

    # A scripted crash dies the hard way: no cleanup, no flush, no
    # goodbye — exactly what SIGKILL or a kernel OOM-kill looks like.
    serve_leases(conn, worker, chaos, run_cell_tasks, lambda: os._exit(1))
