"""The simulation service: async HTTP serving for flagsim workloads.

Where :mod:`repro.sweep` made experiments *batchable*, this package
makes them *servable*: an asyncio HTTP/JSON server (stdlib only) that
exposes the core workloads to many concurrent clients the way
always-on classroom tools are deployed, built from inference-serving
patterns:

- :mod:`~repro.serve.protocol` — versioned JSON request/response
  schemas with structured, typed errors (never a 500 stack trace);
- :mod:`~repro.serve.admission` — a bounded admission queue: at
  capacity, new requests get ``429`` + ``Retry-After`` instead of
  unbounded queueing;
- :mod:`~repro.serve.handlers` — endpoint logic with read-through
  :class:`~repro.sweep.cache.ResultCache` integration and
  per-request deadlines;
- :mod:`~repro.serve.server` — HTTP framing, lifecycle, graceful
  drain on SIGTERM, and :class:`BackgroundServer` for in-process use;
- :mod:`~repro.serve.client` — a small synchronous client.

``POST /run`` with ``stream: true`` returns a stream token instead of
a payload, and ``GET /stream?run=<token>`` follows the trial live over
Server-Sent Events (see :mod:`repro.stream`) — heartbeats while quiet,
``Last-Event-ID`` resume after a drop, and a terminal frame on every
path, graceful drain included.

Served results are byte-identical to in-process
:func:`repro.sweep.executor.run_sweep` results — cold, concurrent, or
cached — and the server's cache interoperates with
``repro sweep --cache-dir``.

Quickstart::

    from repro.serve import BackgroundServer, ServeConfig
    with BackgroundServer(ServeConfig(cache_dir=".serve-cache")) as bg:
        client = bg.client()
        reply = client.run(flag="mauritius", scenario=3, seed=7)
        print(reply["cached"], reply["trial"]["runs"].keys())
"""

from .admission import AdmissionFull, AdmissionQueue
from .client import ServeClient, ServeError
from .handlers import ServeHandlers, StreamHandle
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RunRequest,
    SweepRequest,
    TaskRequest,
    error_body,
    parse_body,
)
from .retry import RetryExhausted, RetryPolicy, call_with_retry
from .server import BackgroundServer, ServeConfig, ServeServer

__all__ = [
    "AdmissionFull",
    "AdmissionQueue",
    "BackgroundServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RetryExhausted",
    "RetryPolicy",
    "RunRequest",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeHandlers",
    "ServeServer",
    "StreamHandle",
    "SweepRequest",
    "TaskRequest",
    "call_with_retry",
    "error_body",
    "parse_body",
]
