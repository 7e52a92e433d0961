"""Remote fabric workers: the same lease loop, executed over HTTP.

A remote worker is a daemon thread that runs the lease loop of
:mod:`repro.fabric.worker` (:func:`~repro.fabric.worker.serve_leases`)
— hello, leases in, heartbeats and results out — but computes each
trial by calling ``POST /task`` on a ``repro serve`` endpoint through a
:class:`~repro.serve.client.ServeClient`.  The coordinator cannot tell
a remote worker from a local one (same messages, same connection
object in its ``wait()`` set), so retries and hedging apply uniformly
across a mixed local+remote fleet.

Transient server trouble (429 backpressure, 503/504, connection drops)
is absorbed by the client's :class:`~repro.serve.retry.RetryPolicy`
*inside* the worker; exhausted retries, non-retryable errors and
malformed replies surface to the coordinator as lease errors for
cross-worker retry, exactly as a local worker's exceptions do.

Chaos applies here too: a scripted ``WorkerCrash`` closes the
connection (the thread's equivalent of dying), stalls and dropped
responses behave exactly as on local workers.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..serve.client import ServeClient
from ..serve.retry import RetryPolicy
from .chaos import ChaosEvent
from .worker import serve_leases

#: Default retry stance for remote execution: patient with transient
#: server states, bounded so a dead endpoint surfaces as a lease error
#: the coordinator can route around.
DEFAULT_REMOTE_RETRY = RetryPolicy(max_attempts=4, base_s=0.05,
                                   cap_s=1.0, deadline_s=60.0)


def remote_worker_main(conn, worker: str, host: str, port: int,
                       chaos: Sequence[ChaosEvent] = (),
                       retry: RetryPolicy = DEFAULT_REMOTE_RETRY,
                       timeout_s: float = 60.0) -> None:
    """Drive one serve endpoint as a fabric worker (thread target).

    Args:
        conn: this worker's end of a duplex ``multiprocessing.Pipe``.
        worker: the worker's name in the fabric.
        host / port: the ``repro serve`` endpoint to execute against.
        chaos: this worker's slice of the chaos plan.
        retry: client-side retry policy for transient server errors.
        timeout_s: per-request client timeout.
    """
    client = ServeClient(host, port, timeout_s=timeout_s, retry=retry)

    def compute(tasks: List[dict],
                on_trial: Callable[[dict], None]) -> List[dict]:
        payloads = []
        for task in tasks:
            reply = client.task(task["cell"], seed=task["seed"],
                                n_trials=task["n_trials"],
                                trial=task["trial"],
                                observe=task["observe"],
                                backend=task.get("backend"))
            payloads.append(reply["trial"])
            on_trial(task)
        return payloads

    serve_leases(conn, worker, chaos, compute, conn.close)
