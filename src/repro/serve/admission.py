"""Admission control: a bounded slot pool with backpressure.

The server admits at most ``limit`` requests at a time (waiting for
or in flight on the compute executor).  When every slot is
taken, new work is *rejected immediately* with :class:`AdmissionFull`
— which the HTTP layer maps to ``429 Too Many Requests`` plus a
``Retry-After`` header — instead of queueing unboundedly and letting
latency blow up for everyone (the standard inference-serving
trade-off: shed load early, keep the queue short).

Health and metrics endpoints bypass admission so the service stays
observable exactly when it is saturated.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from ..obs.metrics import MetricsRegistry


class AdmissionFull(Exception):
    """Raised when every admission slot is taken.

    Attributes:
        retry_after: seconds the client should wait before retrying.
    """

    def __init__(self, limit: int, retry_after: float) -> None:
        super().__init__(
            f"admission queue full ({limit} requests pending); "
            f"retry after {retry_after:g}s")
        self.limit = limit
        self.retry_after = retry_after


class AdmissionQueue:
    """A fixed pool of request slots with fail-fast acquisition.

    Not a queue in the FIFO sense — rejected requests never wait —
    but it bounds the *logical* queue: everything admitted and not yet
    answered holds one slot.
    """

    def __init__(self, limit: int, *, retry_after_s: float = 1.0,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {limit}")
        self.limit = limit
        self.retry_after_s = retry_after_s
        self._depth = 0
        self._registry = registry
        if registry is not None:
            self._gauge = registry.gauge(
                "serve_queue_depth",
                "Admitted requests currently queued or in flight")
            self._gauge.set(0)
            self._rejects = registry.counter(
                "serve_admission_rejects_total",
                "Requests rejected with 429 because every slot was taken")

    @property
    def depth(self) -> int:
        """Admitted requests currently holding a slot."""
        return self._depth

    def acquire(self) -> None:
        """Take one slot, or fail fast.

        Raises:
            AdmissionFull: when all ``limit`` slots are taken.
        """
        if self._depth >= self.limit:
            if self._registry is not None:
                self._rejects.inc()
            raise AdmissionFull(self.limit, self.retry_after_s)
        self._depth += 1
        if self._registry is not None:
            self._gauge.set(self._depth)

    def release(self) -> None:
        """Give one slot back.

        Raises:
            RuntimeError: on release without a matching acquire.
        """
        if self._depth <= 0:
            raise RuntimeError("release() without a matching acquire()")
        self._depth -= 1
        if self._registry is not None:
            self._gauge.set(self._depth)

    @contextlib.contextmanager
    def slot(self) -> Iterator[None]:
        """Hold one slot for the duration of a ``with`` block."""
        self.acquire()
        try:
            yield
        finally:
            self.release()
