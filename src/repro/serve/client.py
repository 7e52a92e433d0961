"""A small synchronous client for the serve API.

Stdlib ``http.client`` only — one connection per request (the server
answers ``Connection: close``), JSON in/out, and typed errors:
non-2xx responses raise :class:`ServeError` carrying the status, the
structured error body, and any ``Retry-After`` hint.

Pass a :class:`~repro.serve.retry.RetryPolicy` and the client absorbs
transient failures itself — exponential backoff with full jitter,
``Retry-After`` honored as a floor on 429, the whole dance bounded by
a deadline — so callers stop hand-rolling retry loops.  Every request
here is safe to retry: the compute endpoints are pure functions of the
request body (at worst a duplicate recompute that the result cache
dedupes), and the read endpoints are read-only.

Used by the test suite, the throughput benchmark, the executable docs
examples, the sweep fabric's remote workers, and anyone driving a
server from a notebook::

    client = ServeClient("127.0.0.1", 8642, retry=RetryPolicy())
    reply = client.run(flag="mauritius", scenario=3, seed=7)
    print(reply["cached"], reply["trial"]["runs"].keys())
"""

from __future__ import annotations

import http.client
import json
import urllib.parse
from typing import Any, Dict, Iterator, Optional, Tuple

from ..stream import StreamEvent, StreamProtocolError, decode_sse_lines
from .protocol import PROTOCOL_VERSION
from .retry import RetryExhausted, RetryPolicy, call_with_retry


class ServeError(Exception):
    """A non-2xx response from the server.

    Attributes:
        status: the HTTP status code.
        code: the structured error code (``"too_many_requests"``, ...)
            or ``"unknown"`` when the body was not structured.
        body: the decoded JSON error body (may be empty).
        retry_after: seconds to back off, when the server said so.
    """

    def __init__(self, status: int, body: Dict[str, Any],
                 retry_after: Optional[float] = None) -> None:
        err = body.get("error", {}) if isinstance(body, dict) else {}
        self.status = status
        self.code = err.get("code", "unknown")
        self.body = body
        self.retry_after = retry_after
        super().__init__(
            f"HTTP {status} [{self.code}] "
            f"{err.get('message', '(no message)')}")


class ServeClient:
    """Synchronous JSON client for one serve endpoint address.

    With ``retry`` set, every JSON call retries transient failures
    (connection errors and the policy's HTTP statuses — 429/503/504 by
    default) under exponential backoff with full jitter; a 429's
    ``Retry-After`` floors the sleep.  ``retry=None`` (the default)
    keeps the old fail-fast behavior.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642, *,
                 timeout_s: float = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 token: Optional[str] = None) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry
        self.token = token

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Dict[str, str], bytes]:
        """One raw exchange; returns ``(status, headers, body bytes)``."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            payload = None
            headers = {}
            if self.token is not None:
                headers["Authorization"] = f"Bearer {self.token}"
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return (response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    raw)
        finally:
            conn.close()

    def _json_once(self, method: str, path: str,
                   body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        status, headers, raw = self.request(method, path, body)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError:
            decoded = {}
        if status >= 400:
            retry_after = headers.get("retry-after")
            raise ServeError(
                status, decoded,
                float(retry_after) if retry_after is not None else None)
        return decoded

    def _classify(self, exc: BaseException):
        """(retryable?, Retry-After floor) for one failed attempt."""
        if isinstance(exc, ServeError):
            assert self.retry is not None
            return (self.retry.should_retry_status(exc.status),
                    exc.retry_after)
        if isinstance(exc, (OSError, http.client.HTTPException)):
            return True, None  # connection refused/reset/timeout
        return False, None

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        if self.retry is None:
            return self._json_once(method, path, body)
        try:
            return call_with_retry(
                lambda: self._json_once(method, path, body),
                self.retry, classify=self._classify)
        except RetryExhausted as exc:
            raise exc.last from exc  # surface the familiar typed error

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz`` — liveness plus queue depth/limit."""
        return self._json("GET", "/healthz")

    def flags(self) -> Dict[str, Any]:
        """``GET /flags`` — the servable flag catalog."""
        return self._json("GET", "/flags")

    def tenants(self) -> Dict[str, Any]:
        """``GET /tenants`` — store tenants with usage and quotas.

        Raises:
            ServeError: 404 ``store_disabled`` on a server without a
                durable store; 401/403 under token auth.
        """
        return self._json("GET", "/tenants")

    def results(self, *, tenant: Optional[str] = None,
                limit: Optional[int] = None,
                digest: Optional[str] = None,
                after: Optional[str] = None) -> Dict[str, Any]:
        """``GET /results`` — durable result listings (or one payload).

        With ``digest`` set, returns that result's full stored payload
        (the byte-level interop hook); otherwise a newest-first listing,
        optionally scoped to ``tenant`` and capped at ``limit``.

        Pagination is cursor-based: pass ``after=<digest>`` (the
        ``"next"`` cursor of the previous page) to continue a listing
        past its last row; a reply without ``"next"`` is the final
        page.  Cursors are stable under concurrent inserts — new rows
        land on page one, never shift later pages.

        Raises:
            ServeError: 404 for a missing store, tenant, or digest;
                400 for an unknown ``after`` cursor; 401/403 under
                token auth.
        """
        params = {}
        if tenant is not None:
            params["tenant"] = tenant
        if limit is not None:
            params["limit"] = str(limit)
        if digest is not None:
            params["digest"] = digest
        if after is not None:
            params["after"] = after
        path = "/results"
        if params:
            path += "?" + urllib.parse.urlencode(params)
        return self._json("GET", path)

    def metrics(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition dump."""
        status, _, raw = self.request("GET", "/metrics")
        if status >= 400:
            raise ServeError(status, {})
        return raw.decode("utf-8")

    def run(self, **fields: Any) -> Dict[str, Any]:
        """``POST /run`` — one trial; kwargs become the request body.

        Pass ``stream=True`` and the reply carries a ``"stream"``
        token instead of a trial payload; feed it to :meth:`stream`
        to watch the run live.

        Raises:
            ServeError: on any non-2xx response (429 carries
                ``retry_after``; 504 means the deadline passed).
        """
        fields.setdefault("protocol", PROTOCOL_VERSION)
        return self._json("POST", "/run", fields)

    def _stream_once(self, token: str,
                     cursor: int) -> Iterator[StreamEvent]:
        """One SSE connection's worth of envelopes (until it drops)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            headers = {"Accept": "text/event-stream"}
            if self.token is not None:
                headers["Authorization"] = f"Bearer {self.token}"
            if cursor:
                headers["Last-Event-ID"] = str(cursor)
            conn.request("GET",
                         "/stream?" + urllib.parse.urlencode(
                             {"run": token}),
                         headers=headers)
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    decoded = json.loads(raw.decode("utf-8")) \
                        if raw else {}
                except json.JSONDecodeError:
                    decoded = {}
                raise ServeError(response.status, decoded)

            def lines() -> Iterator[str]:
                while True:
                    raw_line = response.readline()
                    if not raw_line:
                        return
                    yield raw_line.decode("utf-8")

            for event in decode_sse_lines(lines()):
                yield event
        finally:
            conn.close()

    def stream(self, token: str, *, after: int = 0,
               max_reconnects: int = 5) -> Iterator[StreamEvent]:
        """``GET /stream?run=<token>`` — yield a feed's typed envelopes.

        Generates :class:`~repro.stream.protocol.StreamEvent` frames
        live, ending after the feed's terminal frame (``end``,
        ``bye``, or ``error`` — inspect ``kind``/``data`` to tell a
        clean finish from a failure).  Heartbeat comments are consumed
        silently.

        A dropped connection resumes automatically: the client
        reconnects with ``Last-Event-ID`` set to the last seen cursor,
        and the server replays the missed frames from history, so the
        yielded sequence stays gap-free.  The same resume covers a
        hole in ``seq``: a feed is input from another process, and a
        server speaking the same protocol may shed frames, so the
        client abandons that connection and re-reads the missed frames
        from history instead of yielding a gapped feed.  Up to
        ``max_reconnects`` consecutive *fruitless* attempts are
        absorbed; progress resets the budget.

        Raises:
            ServeError: on a non-2xx response (404
                ``stream_not_found`` once a finished feed ages out).
            OSError: when reconnecting stopped making progress.
        """
        cursor = after
        failures = 0
        while True:
            progressed = False
            try:
                source = self._stream_once(token, cursor)
                for event in source:
                    if event.seq <= cursor:
                        continue  # replayed overlap after a reconnect
                    if event.seq > cursor + 1:
                        # The server skipped frames; resume from the
                        # cursor to fill the hole.
                        progressed = True
                        source.close()
                        break
                    cursor = event.seq
                    progressed = True
                    yield event
                    if event.terminal:
                        return
                else:
                    raise ConnectionError(
                        "stream closed before its terminal frame")
            except (OSError, http.client.HTTPException,
                    StreamProtocolError):
                failures = 0 if progressed else failures + 1
                if failures > max_reconnects:
                    raise

    def sweep(self, **fields: Any) -> Dict[str, Any]:
        """``POST /sweep`` — a cell grid; kwargs become the body.

        Raises:
            ServeError: on any non-2xx response.
        """
        fields.setdefault("protocol", PROTOCOL_VERSION)
        return self._json("POST", "/sweep", fields)

    def task(self, cell: Dict[str, Any], *, seed: int, n_trials: int,
             trial: int, observe: bool = False,
             backend: Optional[str] = None,
             timeout_s: Optional[float] = None) -> Dict[str, Any]:
        """``POST /task`` — one raw executor task (the worker endpoint).

        ``cell`` is a :meth:`repro.sweep.spec.SweepCell.key_dict` —
        the same identity dict the sweep layer hashes — and the reply's
        ``"trial"`` payload is byte-identical to what an in-process
        :func:`repro.sweep.executor.run_trial` computes for the same
        task.  This is how :mod:`repro.fabric` remote workers execute
        leased cells trial by trial.

        Raises:
            ServeError: on any non-2xx response.
        """
        body: Dict[str, Any] = {"protocol": PROTOCOL_VERSION, "cell": cell,
                                "seed": seed, "n_trials": n_trials,
                                "trial": trial, "observe": observe}
        if backend is not None:
            body["backend"] = backend
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._json("POST", "/task", body)
