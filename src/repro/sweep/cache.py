"""Content-addressed on-disk result cache for experiment sweeps.

Results are stored one JSON file per cell under a cache root, named by
the SHA-256 of the cell's *full identity*: the canonical cell key, the
trial count, the batch seed, whether observability was on, and a cache
schema fingerprint that includes the library version.  Any knob that
can change the computed bytes is part of the address, so a hit is
always safe to reuse verbatim and any change — different grid point,
different seed, new library release — misses cleanly instead of
returning stale results.

The cache is deliberately dumb: no locking beyond atomic rename, no
index.  ``repro sweep --cache-dir PATH`` and the benchmark drivers
point it at a scratch directory; deleting the directory is the only
invalidation anyone needs, even under a running process.  A file
holds the payload's canonical bytes, exactly what a store row holds;
older spaced ``json.dump`` files still read.  Eviction is opt-in: a
long-lived process (the :mod:`repro.serve` server) passes
``max_entries`` / ``max_bytes`` and the cache prunes least-recently-used
entries after every write, so the directory never grows without bound.

A generic :meth:`ResultCache.get_or_compute` is exposed for non-sweep
workloads (the Tables I-III driver caches its synthesized survey
medians through it) so every cached artifact in the repo shares one
addressing scheme.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Callable, Dict, Optional, Union

from .. import __version__
from ..canonical import canonical_bytes, canonical_json

#: Bump when the payload layout changes; stale schema -> clean miss.
CACHE_SCHEMA = 1


class CacheError(Exception):
    """Raised for invalid cache configuration (bad eviction limits).

    Corrupt *entries* never raise: :meth:`ResultCache.get` quarantines
    them and reports a miss instead (see :attr:`ResultCache.corruptions`).
    """


def content_address(key_obj: Any) -> str:
    """SHA-256 hex digest of a JSON-serializable identity object.

    The library version and cache schema are folded in, so upgrading
    either retires every old entry without touching the files.
    """
    return hashlib.sha256(canonical_bytes(
        {"schema": CACHE_SCHEMA, "version": __version__, "key": key_obj},
    )).hexdigest()


class ResultCache:
    """A directory of content-addressed JSON payloads.

    ``max_entries`` / ``max_bytes`` (both off by default) bound the
    directory: after every :meth:`put`, least-recently-used entries
    (by file mtime — reads refresh it) are deleted until both budgets
    hold.  The entry just written is the most recent, so it always
    survives a prune.

    Corrupt entries never raise out of :meth:`get`: a file that cannot
    be parsed (a torn write from a crashed process, a bad disk) is
    treated as a miss, renamed aside to ``<digest>.corrupt`` so later
    reads miss cleanly too, and counted in :attr:`corruptions`.  The
    payload is recomputed and re-stored by the caller exactly as for
    an ordinary miss.
    """

    def __init__(self, root: Union[str, pathlib.Path], *,
                 max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise CacheError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise CacheError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def _path(self, digest: str) -> pathlib.Path:
        return self.root / f"{digest}.json"

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored payload for an address, or ``None`` on a miss.

        A hit refreshes the entry's mtime so LRU pruning sees it as
        recently used.  An entry that exists but cannot be parsed (a
        truncated write from a crashed process, say) or does not hold a
        JSON object is *quarantined* — renamed to ``<digest>.corrupt``,
        counted in :attr:`corruptions` — and reported as a miss, so one
        bad file costs a recompute instead of failing the sweep.  An
        entry that vanishes between the address lookup and the read (a
        concurrent prune in another process) is an ordinary miss, not a
        corruption.
        """
        path = self._path(digest)
        try:
            text = path.read_text()
        except FileNotFoundError:
            # Absent, or pruned by a concurrent process between lookup
            # and read: either way the entry is simply gone — a plain
            # miss, never a corruption (there is no file to quarantine).
            self.misses += 1
            return None
        except (OSError, UnicodeDecodeError):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError(
                    f"entry holds {type(payload).__name__}, not an object")
        except (json.JSONDecodeError, ValueError):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away; still a hit
            pass
        self.hits += 1
        return payload

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside so every later read misses cleanly."""
        self.corruptions += 1
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # pragma: no cover - raced away; miss either way
            pass

    def put(self, digest: str,
            payload: Union[Dict[str, Any], str]) -> None:
        """Store a payload's canonical bytes atomically (temp file, rename),
        recreating a root deleted under the running process.

        ``payload`` is the result dict, or its canonical JSON text when
        the caller has encoded it already.
        """
        text = payload if isinstance(payload, str) \
            else canonical_json(payload)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        except FileNotFoundError:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fp:
                fp.write(text.encode("utf-8"))
            os.replace(tmp, self._path(digest))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        if self.max_entries is not None or self.max_bytes is not None:
            self.prune()

    def _files(self):
        """Every file the cache owns: entries plus quarantined sidecars."""
        yield from self.root.glob("*.json")
        yield from self.root.glob("*.corrupt")

    def total_bytes(self) -> int:
        """Bytes currently stored, quarantined sidecars included.

        Sidecars occupy the same disk budget entries do, so they count
        against ``max_bytes`` — otherwise a bounded cache under
        recurring corruption would grow without bound.
        """
        total = 0
        for p in self._files():
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return total

    def prune(self) -> int:
        """Evict LRU files until ``max_entries``/``max_bytes`` hold.

        Returns the number of files deleted (0 when no limits are
        set or both budgets already hold).  Quarantined ``.corrupt``
        sidecars are swept alongside entries — oldest first, never the
        newest file — and their bytes count against ``max_bytes``, so a
        bounded cache stays bounded even under recurring corruption.
        Files that vanish midway (another process pruning the same
        directory) are skipped.
        """
        entries = []
        for p in self._files():
            try:
                st = p.stat()
            except OSError:
                continue
            entries.append((st.st_mtime_ns, p.name, st.st_size, p))
        entries.sort()
        count = len(entries)
        size = sum(e[2] for e in entries)
        evicted = 0
        # The newest entry is never pruned, even when it alone exceeds
        # max_bytes — a cache that deletes what it just wrote would
        # silently disable itself.
        for _, _, nbytes, path in entries[:-1]:
            over_entries = (self.max_entries is not None
                            and count > self.max_entries)
            over_bytes = (self.max_bytes is not None
                          and size > self.max_bytes)
            if not over_entries and not over_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent prune
                continue
            count -= 1
            size -= nbytes
            evicted += 1
        self.evictions += evicted
        return evicted

    def get_or_compute(
        self,
        key_obj: Any,
        compute: Callable[[], Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Return the cached payload for ``key_obj`` or compute and store it.

        ``compute`` must return a JSON-serializable dict; what comes back
        on a later hit is exactly what JSON round-trips (tuples become
        lists, int dict keys become strings).
        """
        digest = content_address(key_obj)
        payload = self.get(digest)
        if payload is None:
            payload = compute()
            self.put(digest, payload)
        return payload

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
