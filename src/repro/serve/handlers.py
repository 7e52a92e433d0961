"""Endpoint handlers: routing, cache read-through, deadlines.

Pure request→response logic, separated from the socket layer in
:mod:`repro.serve.server` so tests can drive endpoints without a
network.  The flow for ``POST /run``:

1. parse + validate (:mod:`repro.serve.protocol`) — 400s;
2. resolve the flag against the catalog — 404 ``flag_not_found``;
3. static pre-flight (:mod:`repro.analyze.preflight`) — 422
   ``static_analysis_failed`` for configurations that cannot execute
   correctly (undersized team, provable deadlock, bad fault target);
4. take an admission slot — or 429 + ``Retry-After``;
5. read-through the :class:`~repro.sweep.cache.ResultCache` — a hit
   answers without touching the executor;
6. miss: submit to the :class:`~repro.serve.batcher.MicroBatcher`
   under the request deadline — 504 ``deadline_exceeded`` on timeout;
7. write the computed payload back to the cache (same address scheme
   as ``repro sweep --cache-dir``, so the two interoperate).

``POST /analyze`` runs only step 1-2 plus the static analyzer and
returns the full report — the inspection companion to the gate.

With a :class:`~repro.store.ResultStore` configured the cache step
becomes a two-level read-through (:class:`~repro.store.StoreTier`):
store hits warm the disk cache, computed payloads persist through
both, and quota refusals surface as 429 + ``Retry-After``.  Bearer
tokens (``Authorization: Bearer <token>``) scope requests to their
tenant; ``require_token`` servers refuse tokenless requests on the
protected endpoints with 401, revoked tokens with 403.  ``GET
/tenants`` and ``GET /results`` expose the store's contents — scoped:
a request reads only its own tenant subtree (the token's tenant when
authenticated, the server default otherwise), and naming any other
tenant is a 403 ``tenant_forbidden``.

``POST /run`` with ``stream: true`` forks the flow at step 5: instead
of a buffered trial payload the response carries an unguessable
*stream token*, the trial executes (or cache-replays) in the
background publishing onto a :class:`~repro.stream.bus.RunStream`,
and ``GET /stream?run=<token>`` subscribes to the live SSE feed —
capability-authorized by the token itself.  Vector-backend requests
cannot stream (no event traces) and get 422 ``stream_unsupported``.
"""

from __future__ import annotations

import asyncio
import secrets
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..flags import available_flags, get_flag
from ..obs.metrics import MetricsRegistry
from ..sim.backend import BackendError, resolve_backend
from ..store import AuthError, QuotaExceeded, ResultStore, StoreError, \
    StoreTier, UnknownCursor
from ..stream import (
    DEFAULT_QUEUE_FRAMES,
    StreamHub,
    StreamUnsupported,
    Subscription,
    check_streamable,
    expected_run_labels,
    fail_stream,
    finish_stream,
    replay_payload,
    run_streamed_trial,
)
from ..sweep.cache import ResultCache
from .admission import AdmissionFull, AdmissionQueue
from .batcher import MicroBatcher
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RunRequest,
    SweepRequest,
    TaskRequest,
    error_body,
    parse_body,
    run_response,
    stream_response,
    sweep_response,
    task_response,
)

#: (status, JSON body or text, extra headers)
Response = Tuple[int, Any, Dict[str, str]]

#: Endpoints that demand a Bearer token when ``require_token`` is on.
PROTECTED_PATHS = frozenset(
    {"/run", "/sweep", "/task", "/results", "/tenants"})


@dataclass(frozen=True)
class RequestContext:
    """Per-request state the router resolves before a handler runs.

    Attributes:
        tenant: the tenant path this request acts as — the token's
            tenant when one authenticated, else the server default.
        authenticated: whether a Bearer token established the tenant.
        query: decoded query-string parameters (last value wins).
        headers: the request headers, lower-cased names.
    """

    tenant: str
    authenticated: bool = False
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class StreamHandle:
    """A live SSE subscription the socket layer must finish writing.

    ``GET /stream`` returns one of these as its response payload in
    place of a JSON body; :class:`~repro.serve.server.ServeServer`
    recognizes it and switches the connection into a
    ``text/event-stream`` write loop (frames, heartbeats, graceful
    ``bye`` on drain).  Handlers stay socket-free.
    """

    subscription: Subscription


class ServeHandlers:
    """Routes parsed HTTP requests onto the scheduler, cache, and store."""

    def __init__(self, *, batcher: MicroBatcher,
                 admission: AdmissionQueue,
                 registry: MetricsRegistry,
                 cache: Optional[ResultCache] = None,
                 store: Optional[ResultStore] = None,
                 default_tenant: str = "public",
                 require_token: bool = False,
                 default_timeout_s: float = 30.0,
                 sweep_workers: int = 1,
                 default_backend: str = "reference",
                 stream_queue: int = DEFAULT_QUEUE_FRAMES,
                 stream_keep: int = 64) -> None:
        self.batcher = batcher
        self.admission = admission
        self.registry = registry
        self.cache = cache
        self.store = store
        self.default_tenant = default_tenant
        self.require_token = require_token and store is not None
        self._tiers: Dict[str, StoreTier] = {}
        self.default_timeout_s = default_timeout_s
        self.sweep_workers = sweep_workers
        self.default_backend = default_backend
        self.hub = StreamHub(keep_finished=stream_keep,
                             max_queue=stream_queue, registry=registry)
        self._drives: set = set()  # in-flight background stream tasks
        self._hits = registry.counter(
            "serve_cache_hits_total", "/run answers served from cache")
        self._misses = registry.counter(
            "serve_cache_misses_total", "/run answers that were computed")
        self._hit_ratio = registry.gauge(
            "serve_cache_hit_ratio",
            "Lifetime cache hit fraction of /run lookups")
        self._timeouts = registry.counter(
            "serve_deadline_timeouts_total",
            "Requests that hit their deadline before a result")
        self._streams = registry.counter(
            "serve_streams_total",
            "Streamed /run feeds started, by cache state")

    async def dispatch(self, method: str, path: str, body: bytes,
                       headers: Optional[Dict[str, str]] = None
                       ) -> Response:
        """Answer one request; never raises for client-caused errors."""
        try:
            return await self._route(method, path, body, headers or {})
        except AdmissionFull as exc:
            return (429,
                    error_body("too_many_requests", str(exc)),
                    {"Retry-After": f"{exc.retry_after:g}"})
        except QuotaExceeded as exc:
            return (429,
                    error_body("quota_exceeded", str(exc)),
                    {"Retry-After": f"{exc.retry_after_s:g}"})
        except ProtocolError as exc:
            extra = {}
            if exc.retry_after is not None:
                extra["Retry-After"] = f"{exc.retry_after:g}"
            if exc.status == 401:
                extra["WWW-Authenticate"] = "Bearer"
            return exc.status, error_body(exc.code, exc.message), extra
        except Exception as exc:  # structured 500, never a stack trace
            return (500,
                    error_body("internal",
                               f"{type(exc).__name__}: {exc}"),
                    {})

    def _authenticate(self, path: str,
                      headers: Dict[str, str]) -> RequestContext:
        """Resolve the request's tenant from its (optional) Bearer token.

        Without a store every request acts as the default tenant.  With
        one, a presented token must authenticate — 401
        ``token_unknown`` for a token the store never issued, 401
        ``token_expired`` for one past its deadline (distinct, so the
        client knows to renew rather than re-check the secret), 403
        ``token_revoked`` for a dead one — and when the server requires
        tokens, protected endpoints refuse tokenless requests with 401
        ``token_missing``.
        """
        token = None
        auth = headers.get("authorization", "")
        scheme, _, value = auth.partition(" ")
        if scheme.lower() == "bearer" and value.strip():
            token = value.strip()
        if self.store is None:
            return RequestContext(tenant=self.default_tenant)
        if token is None:
            if self.require_token and path in PROTECTED_PATHS:
                raise ProtocolError(
                    401, "token_missing",
                    f"{path} requires `Authorization: Bearer <token>` "
                    f"on this server")
            return RequestContext(tenant=self.default_tenant)
        try:
            tenant = self.store.authenticate(token)
        except AuthError as exc:
            if exc.reason == "revoked":
                raise ProtocolError(403, "token_revoked",
                                    "token has been revoked") from exc
            if exc.reason == "expired":
                raise ProtocolError(
                    401, "token_expired",
                    "token has expired; ask for a fresh one") from exc
            raise ProtocolError(401, "token_unknown",
                                "unknown token") from exc
        return RequestContext(tenant=tenant.path, authenticated=True)

    async def _offload(self, fn):
        """Run a store-touching callable off the event loop.

        Store calls serialize on the ``ResultStore``'s process-wide
        lock, which ``/sweep`` holds from executor threads during bulk
        persists; calling into the store inline would stall every
        connection on the loop behind that lock.  Without a store the
        tier is the plain in-memory-indexed disk cache and runs inline.
        """
        if self.store is None:
            return fn()
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, fn)

    def _scope(self, ctx: RequestContext) -> str:
        """The tenant subtree this request may read.

        The token's tenant when one authenticated, else the server's
        default tenant — an unauthenticated caller never sees other
        tenants' data, even on a server that does not require tokens.
        """
        return ctx.tenant if ctx.authenticated else self.default_tenant

    @staticmethod
    def _in_scope(path: str, scope: str) -> bool:
        """Whether a tenant path is ``scope`` itself or a descendant."""
        return path == scope or path.startswith(scope + "/")

    def _scoped_tenant(self, ctx: RequestContext) -> str:
        """The tenant a read acts on, holding ``?tenant=`` to scope.

        Raises:
            ProtocolError: 403 ``tenant_forbidden`` when the query
                names a tenant outside the request's subtree.
        """
        scope = self._scope(ctx)
        requested = ctx.query.get("tenant")
        if requested is None:
            return scope
        if not self._in_scope(requested, scope):
            raise ProtocolError(
                403, "tenant_forbidden",
                f"this request may only read tenant {scope!r} and its "
                f"sub-tenants, not {requested!r}")
        return requested

    def _tier(self, tenant: str) -> Optional[Any]:
        """The result tier for one tenant: cache alone, or store+cache.

        Tiers are memoized per tenant path so their hit counters
        accumulate across requests.
        """
        if self.store is None:
            return self.cache
        tier = self._tiers.get(tenant)
        if tier is None:
            tier = StoreTier(self.store, cache=self.cache, tenant=tenant)
            self._tiers[tenant] = tier
        return tier

    async def _route(self, method: str, path: str, body: bytes,
                     headers: Dict[str, str]) -> Response:
        path, _, query_string = path.partition("?")
        routes = {
            "/healthz": ("GET", self._healthz),
            "/flags": ("GET", self._flags),
            "/metrics": ("GET", self._metrics),
            "/run": ("POST", self._run),
            "/task": ("POST", self._task),
            "/sweep": ("POST", self._sweep),
            "/analyze": ("POST", self._analyze),
            "/tenants": ("GET", self._tenants),
            "/results": ("GET", self._results),
            "/stream": ("GET", self._stream),
        }
        entry = routes.get(path)
        if entry is None:
            raise ProtocolError(404, "unknown_endpoint",
                                f"no endpoint {path!r}; one of "
                                f"{sorted(routes)}")
        expected, handler = entry
        if method != expected:
            raise ProtocolError(405, "method_not_allowed",
                                f"{path} expects {expected}, got {method}")
        ctx = self._authenticate(path, headers)
        query: Dict[str, str] = {}
        if query_string:
            query = {k: vs[-1] for k, vs in
                     urllib.parse.parse_qs(query_string).items()}
        ctx = RequestContext(tenant=ctx.tenant,
                             authenticated=ctx.authenticated,
                             query=query, headers=headers)
        return await handler(body, ctx)

    async def _healthz(self, body: bytes, ctx: RequestContext) -> Response:
        return (200,
                {"protocol": PROTOCOL_VERSION, "status": "ok",
                 "queue_depth": self.admission.depth,
                 "queue_limit": self.admission.limit},
                {})

    async def _flags(self, body: bytes, ctx: RequestContext) -> Response:
        catalog = {}
        for name, desc in sorted(available_flags().items()):
            spec = get_flag(name)
            catalog[name] = {"description": desc,
                            "rows": spec.default_rows,
                            "cols": spec.default_cols,
                            "layered": spec.is_layered()}
        return 200, {"protocol": PROTOCOL_VERSION, "flags": catalog}, {}

    async def _metrics(self, body: bytes, ctx: RequestContext) -> Response:
        return 200, self.registry.render_prometheus(), {}

    def _resolve_flag(self, name: str) -> None:
        try:
            get_flag(name)
        except KeyError:
            raise ProtocolError(
                404, "flag_not_found",
                f"flag {name!r} is not in the catalog; "
                f"one of {sorted(available_flags())}") from None

    def _preflight(self, cell) -> None:
        """Refuse statically-invalid work before it takes a slot.

        Runs :func:`repro.analyze.preflight.check_cell` on the resolved
        cell; any ERROR-severity finding (undersized team, provable
        deadlock, fault plan naming a nonexistent target) becomes a 422
        ``static_analysis_failed`` with the findings in the message, so
        clients learn *why* before any executor time is spent.
        """
        # Deferred: importing repro.analyze would lengthen server start-up.
        from ..analyze.preflight import preflight_errors
        errors = preflight_errors(cell)
        if errors:
            raise ProtocolError(
                422, "static_analysis_failed",
                f"cell {cell.describe()!r} is statically invalid: "
                f"{errors}")

    def _backend(self, requested: Optional[str], cell, *,
                 observe: bool) -> str:
        """Resolve the request's engine, mapping refusals onto 422.

        ``None`` (no ``"backend"`` field on the wire) means the
        server's configured default; ``auto`` falls back to reference
        for cells the vector engine cannot express, and an *explicit*
        ``vector`` on such a cell is a client error — 422
        ``backend_unsupported`` with the reason.
        """
        try:
            return resolve_backend(requested or self.default_backend,
                                   cell.key_dict(), observe=observe)
        except BackendError as exc:
            raise ProtocolError(422, "backend_unsupported",
                                str(exc)) from exc

    def _record_lookup(self, hit: bool) -> None:
        (self._hits if hit else self._misses).inc()
        total = self._hits.value() + self._misses.value()
        self._hit_ratio.set(self._hits.value() / total if total else 0.0)

    async def _run(self, body: bytes, ctx: RequestContext) -> Response:
        request = RunRequest.from_body(parse_body(body))
        self._resolve_flag(request.flag)
        self._preflight(request.cell())
        if request.stream:
            return await self._run_streamed(request, ctx)
        engine = self._backend(request.backend, request.cell(),
                               observe=request.observe)
        timeout = request.timeout_s or self.default_timeout_s
        with self.admission.slot():
            address = request.address(backend=engine)
            tier = await self._offload(lambda: self._tier(ctx.tenant))
            if tier is not None:
                stored = await self._offload(lambda: tier.get(address))
                if stored is not None:
                    self._record_lookup(hit=True)
                    return (200,
                            run_response(stored["trials"][0], cached=True,
                                         batch_size=0),
                            {})
            self._record_lookup(hit=False)
            try:
                payload, batch_size = await asyncio.wait_for(
                    self.batcher.submit(request.task(backend=engine)),
                    timeout)
            except asyncio.TimeoutError:
                self._timeouts.inc()
                raise ProtocolError(
                    504, "deadline_exceeded",
                    f"no result within {timeout:g}s (the trial keeps "
                    f"computing; a retry may hit the cache)") from None
            if tier is not None:
                await self._offload(lambda: tier.put(
                    address, {"cell": request.cell().key_dict(),
                              "trials": [payload]}))
            return (200,
                    run_response(payload, cached=False,
                                 batch_size=batch_size),
                    {})

    async def _run_streamed(self, request: RunRequest,
                            ctx: RequestContext) -> Response:
        """``POST /run`` with ``stream: true`` — start a feed, hand back
        its token.

        The response returns immediately; the trial executes (cache
        miss) or replays its archived payload (hit — frame-identical
        to the live feed it archives) in the background, publishing
        onto a :class:`~repro.stream.bus.RunStream` that ``GET
        /stream?run=<token>`` subscribes to.  The feed holds one
        admission slot until its terminal frame, so graceful drain
        waits for streamed runs exactly like buffered ones.
        ``timeout_s`` does not bound the feed: a streaming client
        watches progress live and can simply disconnect.

        Streaming needs the reference engine's event traces.  A bare
        request streams on reference regardless of the server's
        default backend; an *explicit* non-reference backend is a 422
        ``stream_unsupported``.
        """
        engine = "reference"
        if request.backend is not None:
            engine = self._backend(request.backend, request.cell(),
                                   observe=request.observe)
        task = request.task(backend=engine)
        try:
            check_streamable(task)
        except StreamUnsupported as exc:
            raise ProtocolError(422, "stream_unsupported",
                                str(exc)) from exc
        address = request.address(backend=engine)
        self.admission.acquire()  # released when the feed terminates
        try:
            tier = await self._offload(lambda: self._tier(ctx.tenant))
            stored = None
            if tier is not None:
                stored = await self._offload(lambda: tier.get(address))
            self._record_lookup(hit=stored is not None)
            cached = stored is not None
            self._streams.inc(cached=str(cached).lower())
            token = secrets.token_hex(16)
            stream = self.hub.create(token)
        except BaseException:
            self.admission.release()
            raise
        drive = asyncio.get_running_loop().create_task(
            self._drive_stream(
                stream, task, address, tier,
                stored["trials"][0] if cached else None,
                cell_key_dict=request.cell().key_dict()))
        self._drives.add(drive)
        drive.add_done_callback(self._drives.discard)
        return (200,
                stream_response(token, cached=cached,
                                runs=expected_run_labels(task["cell"])),
                {})

    async def _drive_stream(self, stream, task: Dict[str, Any],
                            address: str, tier: Optional[Any],
                            cached_payload: Optional[Dict[str, Any]], *,
                            cell_key_dict: Dict[str, Any]) -> None:
        """Feed one stream to its terminal frame off the event loop.

        Success ends the feed with ``end``; any failure with ``error``
        (subscribers always see a terminal frame).  The admission slot
        taken by :meth:`_run_streamed` is released here, whatever
        happens, so drain accounting stays balanced.
        """
        loop = asyncio.get_running_loop()
        try:
            if cached_payload is not None:
                await loop.run_in_executor(
                    None, lambda: replay_payload(cached_payload, stream))
                finish_stream(stream, cached=True,
                              runs=list(cached_payload["runs"]))
            else:
                payload = await loop.run_in_executor(
                    None, lambda: run_streamed_trial(task, stream))
                if tier is not None:
                    await self._offload(lambda: tier.put(
                        address, {"cell": cell_key_dict,
                                  "trials": [payload]}))
                finish_stream(stream, cached=False,
                              runs=list(payload["runs"]))
        except Exception as exc:
            fail_stream(stream, f"{type(exc).__name__}: {exc}")
        finally:
            self.admission.release()

    async def _stream(self, body: bytes, ctx: RequestContext) -> Response:
        """``GET /stream?run=<token>`` — subscribe to a feed over SSE.

        Authorization is capability-style: the unguessable token
        minted by the streamed ``/run`` *is* the credential (tokens
        never appear in listings), so tutors without Bearer tokens can
        still watch feeds their teacher's server started for them.

        Resume: a ``Last-Event-ID: <seq>`` header (what an SSE client
        sends automatically on reconnect) or ``?after=<seq>`` replays
        history past the cursor — gap-free — before splicing onto the
        live feed.  The socket layer turns the returned
        :class:`StreamHandle` into the actual ``text/event-stream``
        response; this handler never touches the socket.
        """
        token = ctx.query.get("run")
        if not token:
            raise ProtocolError(400, "bad_request",
                                "GET /stream requires ?run=<stream token>")
        stream = self.hub.get(token)
        if stream is None:
            raise ProtocolError(
                404, "stream_not_found",
                "no live or recently finished stream under that token")
        raw = ctx.headers.get("last-event-id", ctx.query.get("after"))
        after = 0
        if raw is not None:
            try:
                after = int(raw)
                if after < 0:
                    raise ValueError
            except ValueError:
                raise ProtocolError(
                    400, "bad_request",
                    f"resume cursor must be a non-negative integer, "
                    f"got {raw!r}") from None
        return 200, StreamHandle(stream.subscribe(after=after)), {}

    async def _task(self, body: bytes, ctx: RequestContext) -> Response:
        """One raw executor task — the fabric's remote-worker endpoint.

        Same gate sequence as ``/run`` (validate, resolve, preflight,
        admission, batcher, deadline) but *no* cache read-through or
        write-back: the task names one trial of an n-trial cell, and
        cell-level caching belongs to whoever assembles all n trials —
        the fabric coordinator or ``run_sweep`` — not to the worker.
        """
        request = TaskRequest.from_body(parse_body(body))
        self._resolve_flag(request.cell.flag)
        self._preflight(request.cell)
        engine = self._backend(request.backend, request.cell,
                               observe=request.observe)
        timeout = request.timeout_s or self.default_timeout_s
        with self.admission.slot():
            try:
                payload, batch_size = await asyncio.wait_for(
                    self.batcher.submit(request.task(backend=engine)),
                    timeout)
            except asyncio.TimeoutError:
                self._timeouts.inc()
                raise ProtocolError(
                    504, "deadline_exceeded",
                    f"no result within {timeout:g}s") from None
            return (200,
                    task_response(payload, trial=request.trial,
                                  batch_size=batch_size),
                    {})

    async def _sweep(self, body: bytes, ctx: RequestContext) -> Response:
        request = SweepRequest.from_body(parse_body(body))
        for flag in request.spec.flags:
            self._resolve_flag(flag)
        backend = request.backend or self.default_backend
        for cell in request.spec.cells():
            self._preflight(cell)
            # Refuse an unservable explicit backend before taking a
            # slot; run_sweep repeats the same per-cell resolution.
            self._backend(backend, cell, observe=request.observe)
        timeout = request.timeout_s or self.default_timeout_s
        with self.admission.slot():
            from ..sweep.executor import run_sweep
            tier = await self._offload(lambda: self._tier(ctx.tenant))
            loop = asyncio.get_running_loop()
            try:
                result = await asyncio.wait_for(
                    loop.run_in_executor(
                        None, lambda: run_sweep(
                            request.spec, workers=self.sweep_workers,
                            cache=tier,
                            observe=request.observe,
                            backend=backend)),
                    timeout)
            except asyncio.TimeoutError:
                self._timeouts.inc()
                raise ProtocolError(
                    504, "deadline_exceeded",
                    f"sweep did not finish within {timeout:g}s") from None
            return (200,
                    sweep_response(result.table_rows(),
                                   computed_trials=result.computed_trials,
                                   cached_trials=result.cached_trials,
                                   all_correct=result.all_correct,
                                   wall_seconds=result.wall_seconds),
                    {})

    async def _analyze(self, body: bytes, ctx: RequestContext) -> Response:
        """Static analysis as a service: the report, no simulation.

        Accepts the same body as ``POST /run`` (seed/observe/timeout_s
        are accepted and ignored — analysis is deterministic and
        cheap).  Always 200 with the full report(s); an invalid
        configuration is a *successful analysis* here, reported via
        ``ok: false`` and the issue list — only the execution endpoints
        refuse it.
        """
        from ..analyze.preflight import cell_reports

        request = RunRequest.from_body(parse_body(body))
        self._resolve_flag(request.flag)
        failures = []
        reports = cell_reports(request.cell(), failures)
        return (200,
                {"protocol": PROTOCOL_VERSION,
                 "ok": (not failures
                        and all(r.ok for r in reports)),
                 "failures": [i.to_dict() for i in failures],
                 "reports": [r.to_dict() for r in reports]},
                {})

    def _require_store(self) -> ResultStore:
        """The configured store, or 404 ``store_disabled`` without one."""
        if self.store is None:
            raise ProtocolError(
                404, "store_disabled",
                "this server has no durable store; start it with "
                "--store PATH")
        return self.store

    async def _tenants(self, body: bytes, ctx: RequestContext) -> Response:
        """``GET /tenants`` — usage and quota, scoped to the caller.

        Authenticated requests see the token's tenant and its
        descendants; unauthenticated requests see only the server's
        default tenant.  Nobody enumerates anyone else's tenants.
        """
        store = self._require_store()
        scope = self._scope(ctx)
        tenants = await self._offload(store.tenants)
        return (200,
                {"protocol": PROTOCOL_VERSION,
                 "tenants": [t for t in tenants
                             if self._in_scope(t["path"], scope)]},
                {})

    async def _results(self, body: bytes, ctx: RequestContext) -> Response:
        """``GET /results`` — durable result listings and payloads.

        Reads are scoped: the request acts as its token's tenant (or
        the server default without one), and ``?tenant=`` may only
        narrow *within* that subtree — anything else is a 403
        ``tenant_forbidden``.

        Query parameters:

        - ``tenant``: restrict to one tenant path inside the caller's
          subtree.  Defaults to the caller's own tenant.
        - ``limit``: cap the listing length (positive integer).
        - ``after``: cursor pagination — the ``"next"`` digest of the
          previous page; the listing resumes strictly past it.  A
          stale cursor is a 400 ``bad_cursor``.  When a full page came
          back the reply carries ``"next"`` (the last row's digest);
          its absence marks the final page.
        - ``digest``: return that single result's full stored payload —
          the byte-level interop hook (404 ``result_not_found`` when
          the digest is not stored for the tenant).
        """
        store = self._require_store()
        tenant = self._scoped_tenant(ctx)
        digest = ctx.query.get("digest")
        if digest is not None:
            payload = await self._offload(
                lambda: store.get_result(digest, tenant=tenant))
            if payload is None:
                raise ProtocolError(
                    404, "result_not_found",
                    f"no stored result {digest!r} for tenant "
                    f"{tenant!r}")
            return (200,
                    {"protocol": PROTOCOL_VERSION, "digest": digest,
                     "tenant": tenant,
                     "payload": payload},
                    {})
        limit = None
        if "limit" in ctx.query:
            try:
                limit = int(ctx.query["limit"])
                if limit < 1:
                    raise ValueError
            except ValueError:
                raise ProtocolError(
                    400, "bad_request",
                    f"limit must be a positive integer, got "
                    f"{ctx.query['limit']!r}") from None
        after = ctx.query.get("after")
        try:
            rows = await self._offload(
                lambda: store.results(tenant=tenant, limit=limit,
                                      after=after))
        except UnknownCursor as exc:
            raise ProtocolError(400, "bad_cursor", str(exc)) from exc
        except StoreError as exc:
            if "tenant" in ctx.query:  # unknown path named -> 404
                raise ProtocolError(404, "tenant_not_found",
                                    str(exc)) from exc
            rows = []  # caller's own tenant has no rows yet
        body_out = {"protocol": PROTOCOL_VERSION,
                    "results": rows,
                    "count": len(rows)}
        if limit is not None and len(rows) == limit:
            body_out["next"] = rows[-1]["digest"]
        return 200, body_out, {}
