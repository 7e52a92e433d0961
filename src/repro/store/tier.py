"""Read-through tiering between the durable store and the disk cache.

:class:`StoreTier` quacks like :class:`repro.sweep.cache.ResultCache` —
``get(digest)`` / ``put(digest, payload)`` — so every call-site that
already takes a cache (``run_sweep``, the fabric coordinator, the serve
handlers) gains durable persistence without changing shape:

- **get**: the fast on-disk cache answers first; on a cache miss the
  store is consulted, and a store hit *warms the cache* on the way out
  so the next read is local.
- **put**: the payload lands in the store (quota-enforced) and the
  cache both, so a fresh compute is immediately durable *and* fast.
  It is encoded once: the store row and the cache file hold the same
  canonical text.

The tier never hides quota refusals on explicit ``put`` — the caller
(serve) needs the :exc:`~repro.store.core.QuotaExceeded` to surface a
429 — but a missing or read-only cache never blocks the store, and
vice versa on reads.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, Optional

from ..canonical import canonical_json
from .core import DEFAULT_TENANT, ResultStore


class StoreTier:
    """A two-level result tier: durable store under an on-disk cache.

    Drop-in for :class:`~repro.sweep.cache.ResultCache` wherever one is
    accepted.  ``cache`` may be ``None`` (store-only operation — the
    restart-and-delete-the-cache-directory case the acceptance test
    pins); ``store`` is required.

    Attributes:
        store_hits: reads the cache missed but the store answered.
        store_puts: payloads persisted to the store by :meth:`put`.

    Both counters are incremented under a private lock: a tier is
    shared by serve's executor threads, so lost updates would skew the
    hit-rate arithmetic the smoke tests pin.
    """

    def __init__(self, store: ResultStore, *,
                 cache: Optional[Any] = None,
                 tenant: str = DEFAULT_TENANT,
                 kind: str = "sweep_cell") -> None:
        self.store = store
        self.cache = cache
        self.tenant = tenant
        self.kind = kind
        self._stats_lock = threading.Lock()
        self.store_hits = 0
        self.store_puts = 0
        store.ensure_tenant(tenant)

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """Cache first, then store; a store hit warms the cache."""
        if self.cache is not None:
            payload = self.cache.get(digest)
            if payload is not None:
                return payload
        payload = self.store.get_result(digest, tenant=self.tenant)
        if payload is None:
            return None
        with self._stats_lock:
            self.store_hits += 1
        if self.cache is not None:
            with contextlib.suppress(OSError):  # the store row is durable
                self.cache.put(digest, payload)
        return payload

    def put(self, digest: str, payload: Dict[str, Any]) -> None:
        """Persist to the store (quota-enforced), then warm the cache.

        Raises:
            repro.store.QuotaExceeded: when the tenant's budget refuses
                the write; the cache is *not* written either, so a
                throttled tenant cannot sneak results in locally.
        """
        text = canonical_json(payload)
        self.store.put_result(digest, text, tenant=self.tenant,
                              kind=self.kind)
        with self._stats_lock:
            self.store_puts += 1
        if self.cache is not None:
            with contextlib.suppress(OSError):  # the store row is durable
                self.cache.put(digest, text)
