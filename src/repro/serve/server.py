"""The asyncio HTTP/JSON server: framing, lifecycle, graceful drain.

Stdlib-only serving: ``asyncio.start_server`` plus hand-rolled
HTTP/1.1 framing (request line, headers, ``Content-Length`` body —
the subset the protocol needs; no chunked encoding, one request per
connection).  Endpoint logic lives in :mod:`repro.serve.handlers`;
this module owns sockets, the metrics around them (request counts and
latency histograms), and the lifecycle:

- :class:`ServeServer` owns one compute executor for buffered trials:
  a single thread at ``workers=0`` (buffered trials then run one at a
  time rather than interleave under the interpreter lock), else a
  process pool of ``workers``;
- :meth:`ServeServer.start` binds (port 0 picks an ephemeral port);
- :meth:`ServeServer.serve_forever` runs until :meth:`shutdown`;
- :meth:`ServeServer.shutdown` is the graceful drain: stop accepting,
  let admitted requests finish, release the compute executor.
  The CLI wires it to ``SIGTERM``/``SIGINT``.

:class:`BackgroundServer` runs the whole thing on a daemon thread —
the harness tests, benchmarks, and executable docs examples all use
it to get a live server inside one ordinary Python process.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..canonical import canonical_bytes
from ..obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from ..stream import StreamEvent, encode_sse, heartbeat_comment
from ..sweep.cache import ResultCache
from .admission import AdmissionQueue
from .handlers import ServeHandlers, StreamHandle
from .protocol import (
    DEFAULT_MAX_BODY_BYTES,
    ProtocolError,
    error_body,
)

_REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized",
    403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error", 504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one server instance.

    Attributes:
        host / port: bind address; port 0 picks an ephemeral port
            (read it back from :attr:`ServeServer.port`).
        max_pending: admission limit — requests admitted (queued +
            in flight) before new ones get 429.
        retry_after_s: the ``Retry-After`` hint on 429 responses.
        workers: executor processes for buffered ``/run`` and
            ``/task`` trials; 0 runs them one at a time on a single
            compute thread (right for tests and small boxes — a
            process pool there is pure overhead, the same reasoning
            as ``test_sweep_scaling``).
        default_timeout_s: per-request deadline when the request
            body carries no ``timeout_s``.
        max_body_bytes: request bodies above this get 413.
        cache_dir: read-through result cache directory (``None``
            disables caching).
        cache_max_entries / cache_max_bytes: LRU bounds for the
            cache, so a long-lived server cannot fill the disk.
        backend: the trial engine used when a request body carries no
            ``"backend"`` field — ``"reference"``, ``"vector"``, or
            ``"auto"`` (see :mod:`repro.sim.backend`).
        store_path: SQLite database of a :class:`~repro.store.ResultStore`
            to persist results through (``None`` disables the store).
            With both a store and a cache the server reads through the
            two-level :class:`~repro.store.StoreTier`.
        store_tenant: tenant path unauthenticated requests act as.
        require_token: refuse tokenless requests on the protected
            endpoints (``/run``, ``/sweep``, ``/task``, ``/results``,
            ``/tenants``) with 401; needs ``store_path``.
        stream_heartbeat_s: idle seconds between SSE keepalive
            comments, so proxies and clients can tell a quiet feed
            from a dead connection.

    Every SSE subscriber reads its feed's one history through its own
    cursor (:mod:`repro.stream.bus`), and the 64 newest finished feeds
    stay readable for late or resumed subscribers.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 64
    retry_after_s: float = 1.0
    workers: int = 0
    default_timeout_s: float = 30.0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    cache_dir: Optional[str] = None
    cache_max_entries: Optional[int] = None
    cache_max_bytes: Optional[int] = None
    backend: str = "reference"
    store_path: Optional[str] = None
    store_tenant: str = "public"
    require_token: bool = False
    stream_heartbeat_s: float = 10.0


class ServeServer:
    """One serving instance: sockets, scheduler, metrics, lifecycle."""

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 registry: Optional[MetricsRegistry] = None,
                 cache: Optional[ResultCache] = None,
                 store: Optional["ResultStore"] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = registry or MetricsRegistry()
        if cache is None and self.config.cache_dir is not None:
            cache = ResultCache(self.config.cache_dir,
                                max_entries=self.config.cache_max_entries,
                                max_bytes=self.config.cache_max_bytes)
        self.cache = cache
        self._own_store = False
        if store is None and self.config.store_path is not None:
            from ..store import ResultStore
            store = ResultStore(self.config.store_path)
            self._own_store = True
        self.store = store
        self.admission = AdmissionQueue(self.config.max_pending,
                                        retry_after_s=self.config.retry_after_s,
                                        registry=self.registry)
        self._executor: Optional[concurrent.futures.Executor]
        if self.config.workers > 0:
            from ..sweep.executor import _pool
            self._executor = _pool(self.config.workers)
        else:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=1)
        self.handlers = ServeHandlers(
            executor=self._executor, admission=self.admission,
            registry=self.registry, cache=self.cache,
            store=self.store,
            default_tenant=self.config.store_tenant,
            require_token=self.config.require_token,
            default_timeout_s=self.config.default_timeout_s,
            default_backend=self.config.backend)
        self._requests = self.registry.counter(
            "serve_requests_total", "Requests answered, by endpoint/status")
        self._latency = self.registry.histogram(
            "serve_request_latency_seconds",
            "Wall-clock request latency by endpoint",
            buckets=LATENCY_BUCKETS)
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        self._stream_wakers: set = set()  # active SSE writers' wake events
        self._draining = False
        self.interrupted = False

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the socket; returns when live."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        if self._server is None or self._stopped is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._stopped.wait()

    async def shutdown(self, *, interrupted: bool = False) -> None:
        """Graceful drain: stop accepting, finish admitted work, stop.

        Safe to call more than once; later calls are no-ops.  Pass
        ``interrupted=True`` from signal handlers so the CLI can exit
        nonzero after an operator interrupt.
        """
        if self._server is None or self._stopped is None \
                or self._stopped.is_set():
            return
        self.interrupted = self.interrupted or interrupted
        self._server.close()
        await self._server.wait_closed()
        while self.admission.depth > 0:  # admitted work drains out
            await asyncio.sleep(0.01)
        # Streamed runs held admission slots, so every feed now carries
        # its terminal frame; wake any still-attached SSE writers so
        # they flush it (or say ``bye``) and let them finish.
        self._draining = True
        for waker in list(self._stream_wakers):
            waker.set()
        for _ in range(500):  # bounded: writers exit promptly after bye
            if not self._stream_wakers:
                break
            await asyncio.sleep(0.01)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._own_store and self.store is not None:
            self.store.close()  # the server opened it; the server closes it
        self._stopped.set()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status = 400
            endpoint = "?"
            started = time.perf_counter()
            try:
                parsed = await self._read_request(reader)
                if parsed is None:  # client connected and went away
                    return
                method, path, body, req_headers = parsed
                endpoint = path.split("?", 1)[0]
                status, payload, headers = await self.handlers.dispatch(
                    method, path, body, req_headers)
            except ProtocolError as exc:
                status, payload, headers = (
                    exc.status, error_body(exc.code, exc.message), {})
            self._requests.inc(endpoint=endpoint, status=str(status))
            self._latency.observe(time.perf_counter() - started,
                                  endpoint=endpoint)
            if isinstance(payload, StreamHandle):
                await self._write_stream(writer, payload)
                return
            writer.write(_response_bytes(status, payload, headers))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client hung up mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - race on close
                pass

    async def _write_stream(self, writer: asyncio.StreamWriter,
                            handle: StreamHandle) -> None:
        """Pump one SSE subscription down its socket until terminal.

        The loop: flush everything deliverable, then sleep on an
        asyncio event the bus wakes from the engine thread (via
        ``call_soon_threadsafe``); an idle ``stream_heartbeat_s``
        window emits a keepalive comment instead.  A terminal frame
        ends the feed; a server drain ends it with a synthetic ``bye``
        frame (its ``seq`` continues the cursor, so reassembly on the
        client stays gap-free).  SSE connections hold no admission
        slot — drain never waits on a watcher, only on work.
        """
        sub = handle.subscription
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        sub.add_waker(lambda: loop.call_soon_threadsafe(wake.set))
        self._stream_wakers.add(wake)
        heartbeats = 0
        last_seq = 0
        try:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Cache-Control: no-cache\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            while True:
                wake.clear()
                frames = sub.pop_ready()
                while frames:
                    writer.write(b"".join(map(encode_sse, frames)))
                    last_seq = frames[-1].seq
                    await writer.drain()
                    if frames[-1].terminal:
                        return
                    frames = sub.pop_ready()
                if self._draining:
                    bye = StreamEvent(seq=last_seq + 1, time=0.0,
                                      kind="bye", run=None,
                                      data={"reason": "server draining"})
                    writer.write(encode_sse(bye))
                    await writer.drain()
                    return
                try:
                    await asyncio.wait_for(
                        wake.wait(), self.config.stream_heartbeat_s)
                except asyncio.TimeoutError:
                    writer.write(heartbeat_comment(heartbeats))
                    heartbeats += 1
                    await writer.drain()
        finally:
            self._stream_wakers.discard(wake)
            sub.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except ValueError:  # line longer than the stream limit
            raise ProtocolError(400, "bad_request",
                                "request line too long") from None
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ProtocolError(400, "bad_request",
                                f"malformed request line "
                                f"{request_line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if method == "POST":
            if "content-length" not in headers:
                raise ProtocolError(411, "length_required",
                                    "POST requires Content-Length")
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise ProtocolError(400, "bad_request",
                                    "unparseable Content-Length") from None
            if length > self.config.max_body_bytes:
                raise ProtocolError(
                    413, "payload_too_large",
                    f"body of {length} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte limit")
            body = await reader.readexactly(length)
        return method, path, body, headers


def _response_bytes(status: int, payload: Any,
                    headers: Dict[str, str]) -> bytes:
    """Serialize one HTTP/1.1 response (JSON or Prometheus text)."""
    if isinstance(payload, (dict, list)):
        body = canonical_bytes(payload)
        content_type = "application/json"
    else:
        body = str(payload).encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class BackgroundServer:
    """A live :class:`ServeServer` on a daemon thread.

    Context manager used by tests, the throughput benchmark and the docs
    examples::

        with BackgroundServer(ServeConfig(cache_dir="cache")) as bg:
            client = bg.client()
            client.healthz()

    Exit triggers the same graceful drain as SIGTERM on the CLI
    server.
    """

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 registry: Optional[MetricsRegistry] = None,
                 cache: Optional[ResultCache] = None,
                 store: Optional["ResultStore"] = None,
                 startup_timeout_s: float = 10.0) -> None:
        self.server = ServeServer(config, registry=registry, cache=cache,
                                  store=store)
        self.startup_timeout_s = startup_timeout_s
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        """The server's bound port (valid once the context is entered)."""
        return self.server.port

    def client(self, **kwargs) -> "ServeClient":
        """A sync client pointed at this server."""
        from .client import ServeClient
        return ServeClient(self.server.config.host, self.port, **kwargs)

    def __enter__(self) -> "BackgroundServer":
        """Start the thread; returns once the socket is bound.

        Raises:
            RuntimeError: when the server fails to come up in time
                (the underlying exception is chained).
        """
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(self.startup_timeout_s):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def __exit__(self, *exc_info) -> None:
        """Drain gracefully and join the server thread."""
        if self._loop is not None:
            def _request_shutdown() -> None:
                asyncio.ensure_future(self.server.shutdown())
            self._loop.call_soon_threadsafe(_request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=self.startup_timeout_s)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface start-up failures
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()
