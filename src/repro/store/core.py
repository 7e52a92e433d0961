"""The durable multi-tenant result store: SQLite behind plain SQL.

:class:`ResultStore` is the persistence layer under every artifact the
system produces: sweep results and cell payloads (keyed by the same
``content_address`` digests :mod:`repro.sweep.cache` uses, so the two
interoperate), classroom session reports, and the tenancy structure
the paper's activity actually runs in — institution → class → cohort,
addressed by slash paths like ``"usi/cs1/spring26"``.

Design commitments:

- **Plain SQL, no ORM.**  Every query is a literal statement over the
  schema :mod:`repro.store.migrations` owns; porting to Postgres means
  swapping the connection factory and placeholder style, nothing else.
- **Content addresses are the interchange key.**  A result persisted
  here under a digest is byte-for-byte the payload the on-disk
  :class:`~repro.sweep.cache.ResultCache` would hold under the same
  digest — the read-through tier (:mod:`repro.store.tier`) moves
  payloads between the two without transformation.
- **Tokens are stored hashed.**  :meth:`ResultStore.issue_token`
  returns the plaintext exactly once; the database keeps only its
  SHA-256, so a leaked database does not leak credentials.
- **Quotas fail loud.**  :exc:`QuotaExceeded` carries the tenant's
  ``retry_after_s`` hint so the serve layer can surface a 429 with a
  ``Retry-After`` header.

The store serializes access with one process-wide lock per instance
(SQLite connections are cheap to share, and the serve layer calls in
from an event loop plus executor threads).  The database runs in WAL
mode with ``synchronous = NORMAL``: every write commits before its call
returns, so a crashed or killed process loses nothing, but a power loss
or OS crash may roll back the last few commits (never corrupt the
file).  Token writes (:meth:`ResultStore.issue_token`,
:meth:`ResultStore.revoke_token`) commit with ``synchronous = FULL``,
so a revocation survives power loss too.  A hit's ``accessed_at`` /
``hits`` stamps are kept in memory and written by the next write
transaction, before any listing reads them, and on :meth:`close`.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..canonical import canonical_json
from .migrations import HEAD_VERSION, migrate as apply_migrations, \
    schema_version

#: The tenant hierarchy, outermost first; a tenant path's depth picks
#: its kind (``"usi"`` is an institution, ``"usi/cs1/spring26"`` a
#: cohort).
TENANT_KINDS = ("institution", "class", "cohort")

#: Tenant used when no one names one (anonymous CLI sweeps, serve
#: without token auth).
DEFAULT_TENANT = "public"


class StoreError(Exception):
    """Base error for store misuse (missing tenants, stale schema)."""


class AuthError(StoreError):
    """A token the store refuses.

    Attributes:
        reason: ``"unknown"`` (no such token), ``"revoked"``, or
            ``"expired"`` (its ``expires_at`` deadline passed).
    """

    def __init__(self, message: str, *, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


class UnknownCursor(StoreError):
    """A results-listing cursor that names no stored digest."""


class QuotaExceeded(StoreError):
    """A write the tenant's quota refuses.

    Attributes:
        tenant: the tenant path that is over budget.
        retry_after_s: the tenant's configured back-off hint.
    """

    def __init__(self, message: str, *, tenant: str,
                 retry_after_s: float) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class Tenant:
    """One node of the institution → class → cohort hierarchy."""

    id: int
    name: str
    kind: str
    parent_id: Optional[int]
    path: str


@dataclass(frozen=True)
class Quota:
    """Per-tenant result budgets; ``None`` limits are unlimited."""

    max_results: Optional[int]
    max_bytes: Optional[int]
    retry_after_s: float = 60.0


def token_hash(token: str) -> str:
    """SHA-256 hex digest of a plaintext token (what the DB stores)."""
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


class ResultStore:
    """A durable, multi-tenant store on one SQLite database file.

    Opening a store migrates it to the head schema by default; pass
    ``migrate=False`` to manage versions explicitly (the CLI's
    ``repro store migrate`` path, and the migration tests).

    All methods are safe to call from any thread; payload reads and
    writes serialize on an internal lock.
    """

    def __init__(self, path: Union[str, pathlib.Path], *,
                 migrate: bool = True,
                 clock: Callable[[], float] = time.time) -> None:
        self.path = pathlib.Path(path)
        if self.path.parent != pathlib.Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._lock = threading.RLock()
        # Memos, all guarded by ``_lock``.  The head check only ever
        # passes once (schemas migrate up, never down); tenants are
        # never renamed or deleted, so a resolved path <-> id pair
        # stays true (misses are not cached: another process may
        # create the tenant).  Token verdicts are never memoised.
        self._at_head = False
        self._tenant_ids: Dict[str, int] = {}
        self._tenant_paths: Dict[int, str] = {}
        # Hit stamps not yet written: (tenant_id, digest) ->
        # [accessed_at, hits].  One entry per stored digest at most.
        self._stamps: Dict[Tuple[int, str], List[Any]] = {}
        self._conn = sqlite3.connect(str(self.path),
                                     check_same_thread=False)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA synchronous = NORMAL")
        if migrate:
            self.migrate()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Write pending hit stamps and close the connection (further
        calls will fail)."""
        with self._lock:
            with self._conn:
                self._flush_stamps()
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # -- schema ----------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """The database's current migration version (0 when empty)."""
        with self._lock:
            return schema_version(self._conn)

    def migrate(self, *, target: Optional[int] = None) -> List[str]:
        """Apply pending migrations; returns the applied names."""
        with self._lock:
            applied = apply_migrations(self._conn, target=target,
                                       clock=self._clock)
        return [f"{m.version}:{m.name}" for m in applied]

    def _require_head(self) -> None:
        if self._at_head:
            return
        version = schema_version(self._conn)
        if version < HEAD_VERSION:
            raise StoreError(
                f"store schema is at version {version}, head is "
                f"{HEAD_VERSION}; run `repro store migrate` first")
        self._at_head = True

    # -- tenants ---------------------------------------------------------

    def _tenant_row(self, name: str,
                    parent_id: Optional[int]) -> Optional[sqlite3.Row]:
        if parent_id is None:
            return self._conn.execute(
                "SELECT id, name, kind, parent_id FROM tenants "
                "WHERE name = ? AND parent_id IS NULL",
                (name,)).fetchone()
        return self._conn.execute(
            "SELECT id, name, kind, parent_id FROM tenants "
            "WHERE name = ? AND parent_id = ?",
            (name, parent_id)).fetchone()

    def ensure_tenant(self, path: str) -> Tenant:
        """The tenant at a slash path, creating the chain as needed.

        ``"usi/cs1/spring26"`` names (and if absent creates) the
        institution ``usi``, its class ``cs1``, and that class's cohort
        ``spring26``, returning the leaf.

        Raises:
            StoreError: for empty paths or paths deeper than the
                three-level hierarchy.
        """
        parts = [p for p in path.split("/") if p]
        if not parts or len(parts) > len(TENANT_KINDS):
            raise StoreError(
                f"tenant path {path!r} must have 1-{len(TENANT_KINDS)} "
                f"segments ({' > '.join(TENANT_KINDS)})")
        with self._lock:
            self._require_head()
            parent_id: Optional[int] = None
            tenant_id = -1
            for depth, name in enumerate(parts):
                row = self._tenant_row(name, parent_id)
                if row is None:
                    with self._conn:
                        cursor = self._conn.execute(
                            "INSERT INTO tenants "
                            "(name, kind, parent_id, created_at) "
                            "VALUES (?, ?, ?, ?)",
                            (name, TENANT_KINDS[depth], parent_id,
                             self._clock()))
                    tenant_id = int(cursor.lastrowid)
                else:
                    tenant_id = int(row[0])
                parent_id = tenant_id
            leaf = parts[-1]
            return Tenant(id=tenant_id, name=leaf,
                          kind=TENANT_KINDS[len(parts) - 1],
                          parent_id=None if len(parts) == 1
                          else self._tenant_id("/".join(parts[:-1])),
                          path="/".join(parts))

    def _tenant_id(self, path: str) -> int:
        cached = self._tenant_ids.get(path)
        if cached is not None:
            return cached
        parent_id: Optional[int] = None
        tenant_id: Optional[int] = None
        for name in [p for p in path.split("/") if p]:
            row = self._tenant_row(name, parent_id)
            if row is None:
                raise StoreError(f"no tenant at path {path!r}; create it "
                                 f"with ensure_tenant() or "
                                 f"`repro store tenants --add`")
            tenant_id = int(row[0])
            parent_id = tenant_id
        if tenant_id is None:
            raise StoreError(f"empty tenant path {path!r}")
        self._tenant_ids[path] = tenant_id
        return tenant_id

    def _tenant_path(self, tenant_id: int) -> str:
        cached = self._tenant_paths.get(tenant_id)
        if cached is not None:
            return cached
        parts: List[str] = []
        current: Optional[int] = tenant_id
        while current is not None:
            row = self._conn.execute(
                "SELECT name, parent_id FROM tenants WHERE id = ?",
                (current,)).fetchone()
            if row is None:  # pragma: no cover - FK keeps this impossible
                break
            parts.append(str(row[0]))
            current = row[1] if row[1] is None else int(row[1])
        path = self._tenant_paths[tenant_id] = "/".join(reversed(parts))
        return path

    def tenants(self) -> List[Dict[str, Any]]:
        """Every tenant with its usage and quota, sorted by path.

        Each entry carries ``path``, ``kind``, ``n_results``,
        ``bytes``, ``n_sessions``, and a ``quota`` sub-dict (or
        ``None`` when the tenant is unlimited).
        """
        with self._lock:
            self._require_head()
            with self._conn:
                self._flush_stamps()
            out = []
            for row in self._conn.execute(
                    "SELECT id, kind FROM tenants").fetchall():
                tenant_id, kind = int(row[0]), str(row[1])
                n_results, n_bytes = self._usage(tenant_id)
                sessions = self._conn.execute(
                    "SELECT COUNT(*) FROM sessions WHERE tenant_id = ?",
                    (tenant_id,)).fetchone()
                quota = self._quota(tenant_id)
                out.append({
                    "path": self._tenant_path(tenant_id),
                    "kind": kind,
                    "n_results": n_results,
                    "bytes": n_bytes,
                    "n_sessions": int(sessions[0]),
                    "quota": None if quota is None else {
                        "max_results": quota.max_results,
                        "max_bytes": quota.max_bytes,
                        "retry_after_s": quota.retry_after_s,
                    },
                })
            out.sort(key=lambda t: t["path"])
            return out

    # -- tokens ----------------------------------------------------------

    def issue_token(self, tenant: str, *, label: Optional[str] = None,
                    token: Optional[str] = None,
                    expires_days: Optional[float] = None,
                    expires_at: Optional[float] = None) -> str:
        """Mint an auth token for a tenant; returns the plaintext once.

        The database stores only the token's SHA-256.  Pass ``token``
        to install a caller-chosen plaintext (tests, provisioning
        scripts); by default a 32-hex-char secret is generated.

        Tokens live forever by default; ``expires_days`` sets a
        deadline that many days out on the store's clock (the idiom
        for term-length classroom credentials), and ``expires_at``
        pins an absolute unix-seconds deadline instead.  Expired
        tokens authenticate as ``reason="expired"`` refusals — kept
        distinct from ``"unknown"`` so a student sees "renew your
        token", not "no such token".

        A plaintext the store already knows — live *or* revoked — is
        refused: re-issuing must never rebind a credential to another
        tenant or resurrect one that was revoked.

        Raises:
            StoreError: when the token hash is already on file, or
                both expiry forms are given.
        """
        if expires_days is not None and expires_at is not None:
            raise StoreError(
                "pass expires_days or expires_at, not both")
        if expires_days is not None:
            if expires_days <= 0:
                raise StoreError(
                    f"expires_days must be positive, got {expires_days}")
            expires_at = self._clock() + expires_days * 86400.0
        if token is None:
            import secrets
            token = secrets.token_hex(16)
        with self._lock:
            tenant_id = self._tenant_id(tenant)
            try:
                self._write_durably(
                    "INSERT INTO tokens "
                    "(token_hash, tenant_id, label, revoked, "
                    " created_at, expires_at) VALUES (?, ?, ?, 0, ?, ?)",
                    (token_hash(token), tenant_id, label,
                     self._clock(), expires_at))
            except sqlite3.IntegrityError:
                raise StoreError(
                    "refusing to re-issue an already-known token "
                    "(live or revoked); mint a fresh secret instead"
                ) from None
        return token

    def revoke_token(self, token: str) -> bool:
        """Revoke a token by plaintext; returns whether it existed."""
        with self._lock:
            cursor = self._write_durably(
                "UPDATE tokens SET revoked = 1 WHERE token_hash = ?",
                (token_hash(token),))
            return cursor.rowcount > 0

    def _write_durably(self, sql: str, params: Tuple[Any, ...]
                       ) -> sqlite3.Cursor:
        """One statement in its own transaction, committed under
        ``synchronous = FULL`` so it survives power loss, not only a
        crash (the pragma cannot change inside a transaction)."""
        self._conn.execute("PRAGMA synchronous = FULL")
        try:
            with self._conn:
                return self._conn.execute(sql, params)
        finally:
            self._conn.execute("PRAGMA synchronous = NORMAL")

    def authenticate(self, token: str) -> Tenant:
        """The tenant a plaintext token authenticates as.

        One ``tokens JOIN tenants`` lookup per call: the revoked and
        expired checks always read the current row, so a revocation
        made through any connection to the file refuses the token at
        once.

        Raises:
            AuthError: ``reason="unknown"`` for a token the store never
                issued, ``reason="revoked"`` for one that was revoked,
                ``reason="expired"`` for one past its ``expires_at``
                deadline.
        """
        with self._lock:
            self._require_head()
            row = self._conn.execute(
                "SELECT tokens.tenant_id, tokens.revoked, "
                "tokens.expires_at, tenants.name, tenants.kind, "
                "tenants.parent_id FROM tokens JOIN tenants "
                "ON tenants.id = tokens.tenant_id "
                "WHERE tokens.token_hash = ?",
                (token_hash(token),)).fetchone()
            if row is None:
                raise AuthError("unknown token", reason="unknown")
            if int(row[1]):
                raise AuthError("token has been revoked",
                                reason="revoked")
            if row[2] is not None and self._clock() >= float(row[2]):
                raise AuthError("token has expired", reason="expired")
            tenant_id = int(row[0])
            return Tenant(id=tenant_id, name=str(row[3]),
                          kind=str(row[4]),
                          parent_id=None if row[5] is None
                          else int(row[5]),
                          path=self._tenant_path(tenant_id))

    # -- quotas ----------------------------------------------------------

    def set_quota(self, tenant: str, *,
                  max_results: Optional[int] = None,
                  max_bytes: Optional[int] = None,
                  retry_after_s: float = 60.0) -> None:
        """Install (or replace) a tenant's result budgets."""
        with self._lock:
            tenant_id = self._tenant_id(tenant)
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO quotas "
                    "(tenant_id, max_results, max_bytes, retry_after_s) "
                    "VALUES (?, ?, ?, ?)",
                    (tenant_id, max_results, max_bytes, retry_after_s))

    def _quota(self, tenant_id: int) -> Optional[Quota]:
        row = self._conn.execute(
            "SELECT max_results, max_bytes, retry_after_s FROM quotas "
            "WHERE tenant_id = ?", (tenant_id,)).fetchone()
        if row is None:
            return None
        return Quota(
            max_results=None if row[0] is None else int(row[0]),
            max_bytes=None if row[1] is None else int(row[1]),
            retry_after_s=float(row[2]))

    def _usage(self, tenant_id: int) -> Tuple[int, int]:
        """A tenant's stored result count and payload bytes.

        The one spelling of the usage query: migration 5's
        ``(tenant_id, nbytes)`` index covers it, so it never reads a
        payload page and a quota check costs the same at any stored
        volume.
        """
        row = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) "
            "FROM results WHERE tenant_id = ?", (tenant_id,)).fetchone()
        return int(row[0]), int(row[1])

    def quota(self, tenant: str) -> Optional[Quota]:
        """The tenant's quota, or ``None`` when unlimited."""
        with self._lock:
            return self._quota(self._tenant_id(tenant))

    def check_quota(self, tenant: str, *, add_results: int = 0,
                    add_bytes: int = 0) -> None:
        """Refuse a prospective write that would bust the budget.

        Raises:
            QuotaExceeded: when current usage plus the addition exceeds
                ``max_results`` or ``max_bytes``; carries the tenant's
                ``retry_after_s`` hint.
        """
        with self._lock:
            self._check_quota_row(self._tenant_id(tenant), tenant,
                                  add_results=add_results,
                                  add_bytes=add_bytes)

    def _check_quota_row(self, tenant_id: int, tenant: str, *,
                         add_results: int, add_bytes: int) -> None:
        """The quota gate itself: no locking, no transaction management.

        ``put_result`` calls this inside its ``BEGIN IMMEDIATE``
        transaction so the usage read and the subsequent insert are one
        atomic unit even when another *process* shares the database.
        """
        quota = self._quota(tenant_id)
        if quota is None:
            return
        n_results, n_bytes = self._usage(tenant_id)
        if (quota.max_results is not None
                and n_results + add_results > quota.max_results):
            raise QuotaExceeded(
                f"tenant {tenant!r} is at {n_results} of "
                f"{quota.max_results} results",
                tenant=tenant, retry_after_s=quota.retry_after_s)
        if (quota.max_bytes is not None
                and n_bytes + add_bytes > quota.max_bytes):
            raise QuotaExceeded(
                f"tenant {tenant!r} is at {n_bytes} of "
                f"{quota.max_bytes} bytes",
                tenant=tenant, retry_after_s=quota.retry_after_s)

    # -- results ---------------------------------------------------------

    def put_result(self, digest: str,
                   payload: Union[Dict[str, Any], str], *,
                   tenant: str = DEFAULT_TENANT,
                   kind: str = "sweep_cell",
                   enforce_quota: bool = True) -> None:
        """Persist one content-addressed payload under a tenant.

        ``payload`` is the result dict, or its :func:`canonical_json`
        text when the caller has encoded it already (a
        :class:`~repro.store.StoreTier` writes one text to both levels).
        Re-putting an existing digest replaces its payload but keeps
        the row's ``created_at``/``accessed_at``/``hits`` — a re-put
        must not jump the queue in :meth:`gc`'s oldest-first eviction
        or erase its access history.  The quota check and the insert
        run in one ``BEGIN IMMEDIATE`` transaction, so concurrent
        writers — including other *processes* sharing the database
        file — cannot interleave past the gate.

        Raises:
            QuotaExceeded: when the write would bust the tenant's
                quota (replacements of an existing digest never do).
            StoreError: when the tenant does not exist.
        """
        text = payload if isinstance(payload, str) \
            else canonical_json(payload)
        with self._lock:
            self._require_head()
            tenant_id = self._tenant_id(tenant)
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                exists = self._conn.execute(
                    "SELECT 1 FROM results "
                    "WHERE tenant_id = ? AND digest = ?",
                    (tenant_id, digest)).fetchone()
                if exists is not None:
                    self._conn.execute(
                        "UPDATE results SET kind = ?, payload = ?, "
                        "nbytes = ? WHERE tenant_id = ? AND digest = ?",
                        (kind, text, len(text), tenant_id, digest))
                else:
                    if enforce_quota:
                        self._check_quota_row(tenant_id, tenant,
                                              add_results=1,
                                              add_bytes=len(text))
                    self._conn.execute(
                        "INSERT INTO results "
                        "(digest, tenant_id, kind, payload, nbytes, "
                        " created_at, accessed_at, hits) "
                        "VALUES (?, ?, ?, ?, ?, ?, NULL, 0)",
                        (digest, tenant_id, kind, text, len(text),
                         self._clock()))
                self._flush_stamps()
            except BaseException:
                self._conn.rollback()
                raise
            self._conn.commit()

    def get_result(self, digest: str, *,
                   tenant: str = DEFAULT_TENANT) -> Optional[Dict[str, Any]]:
        """The payload stored for a digest, or ``None`` on a miss.

        A hit stamps ``accessed_at`` and bumps ``hits`` so operators
        can see what is live.  The stamp is kept in memory, so a hit
        writes nothing; :meth:`_flush_stamps` persists it later.
        """
        with self._lock:
            self._require_head()
            try:
                tenant_id = self._tenant_id(tenant)
            except StoreError:
                return None  # no tenant, no results
            row = self._conn.execute(
                "SELECT payload FROM results "
                "WHERE tenant_id = ? AND digest = ?",
                (tenant_id, digest)).fetchone()
            if row is None:
                return None
            stamp = self._stamps.setdefault((tenant_id, digest), [0.0, 0])
            stamp[0] = self._clock()
            stamp[1] += 1
        return json.loads(row[0])

    def _flush_stamps(self) -> None:
        """Write the pending hit stamps inside the caller's transaction.

        Called under the lock by every writer of ``results`` before its
        commit, by :meth:`results` and :meth:`tenants` before they
        read, and by :meth:`close`.  A row deleted meanwhile (another
        process's ``gc``) just takes no update.
        """
        with self._lock:  # re-entered: every caller already holds it
            if not self._stamps:
                return
            self._conn.executemany(
                "UPDATE results SET accessed_at = ?, hits = hits + ? "
                "WHERE tenant_id = ? AND digest = ?",
                [(at, n, tenant_id, digest)
                 for (tenant_id, digest), (at, n) in self._stamps.items()])
            self._stamps.clear()

    def results(self, *, tenant: Optional[str] = None,
                limit: Optional[int] = None,
                after: Optional[str] = None) -> List[Dict[str, Any]]:
        """Result summaries (no payloads), newest first.

        Pagination is keyset-based on the listing order
        ``(created_at DESC, digest ASC)``: pass the last digest of the
        previous page as ``after`` and the next page starts strictly
        past that row.  Unlike OFFSET paging, the cursor is stable
        under concurrent inserts — new rows land on page one and never
        shift or duplicate later pages.

        Args:
            tenant: restrict to one tenant path (default: all tenants).
            limit: cap the listing length (page size when paginating).
            after: digest of the last row already seen; the listing
                resumes after it.

        Raises:
            UnknownCursor: when ``after`` names no stored digest in
                scope — a caller holding a stale cursor should restart
                from the first page.
        """
        with self._lock:
            self._require_head()
            with self._conn:
                self._flush_stamps()
            where: List[str] = []
            params: List[Any] = []
            if tenant is not None:
                where.append("tenant_id = ?")
                params.append(self._tenant_id(tenant))
            if after is not None:
                cursor_query = ("SELECT created_at, digest FROM results "
                                "WHERE digest = ?")
                cursor_params: List[Any] = [after]
                if tenant is not None:
                    cursor_query += " AND tenant_id = ?"
                    cursor_params.append(params[0])
                cursor_query += " ORDER BY created_at DESC, digest LIMIT 1"
                cursor = self._conn.execute(
                    cursor_query, cursor_params).fetchone()
                if cursor is None:
                    raise UnknownCursor(
                        f"cursor {after!r} names no stored result; "
                        f"restart the listing from its first page")
                where.append("(created_at < ? OR "
                             "(created_at = ? AND digest > ?))")
                params.extend([float(cursor[0]), float(cursor[0]),
                               str(cursor[1])])
            query = ("SELECT digest, tenant_id, kind, nbytes, created_at, "
                     "hits FROM results")
            if where:
                query += " WHERE " + " AND ".join(where)
            query += " ORDER BY created_at DESC, digest"
            if limit is not None:
                query += " LIMIT ?"
                params.append(limit)
            return [
                {"digest": str(r[0]),
                 "tenant": self._tenant_path(int(r[1])),
                 "kind": str(r[2]),
                 "nbytes": int(r[3]),
                 "created_at": float(r[4]),
                 "hits": int(r[5])}
                for r in self._conn.execute(query, params).fetchall()
            ]

    def gc(self, *, older_than_s: Optional[float] = None,
           tenant: Optional[str] = None) -> int:
        """Delete stale results; returns how many rows went.

        Two passes: results older than ``older_than_s`` (by creation
        stamp, against the store's clock) are dropped, then any tenant
        still over its quota loses oldest results until the budget
        holds, each tenant's trim in one transaction.  Sessions are
        never collected — they are the durable record of record.
        """
        deleted = 0
        with self._lock:
            self._require_head()
            with self._conn:
                self._flush_stamps()
            tenant_ids: List[int]
            if tenant is not None:
                tenant_ids = [self._tenant_id(tenant)]
            else:
                tenant_ids = [int(r[0]) for r in self._conn.execute(
                    "SELECT id FROM tenants").fetchall()]
            if older_than_s is not None:
                cutoff = self._clock() - older_than_s
                for tenant_id in tenant_ids:
                    with self._conn:
                        cursor = self._conn.execute(
                            "DELETE FROM results WHERE tenant_id = ? "
                            "AND created_at < ?", (tenant_id, cutoff))
                    deleted += cursor.rowcount
            for tenant_id in tenant_ids:
                quota = self._quota(tenant_id)
                if quota is None:
                    continue
                with self._conn:  # the tenant's whole trim, one commit
                    self._conn.execute("BEGIN IMMEDIATE")
                    n_results, n_bytes = self._usage(tenant_id)
                    while n_results and (
                            (quota.max_results is not None
                             and n_results > quota.max_results)
                            or (quota.max_bytes is not None
                                and n_bytes > quota.max_bytes)):
                        digest, nbytes = self._conn.execute(
                            "SELECT digest, nbytes FROM results "
                            "WHERE tenant_id = ? "
                            "ORDER BY created_at, digest LIMIT 1",
                            (tenant_id,)).fetchone()
                        self._conn.execute(
                            "DELETE FROM results "
                            "WHERE tenant_id = ? AND digest = ?",
                            (tenant_id, digest))
                        n_results -= 1
                        n_bytes -= int(nbytes)
                        deleted += 1
        return deleted

    # -- sessions --------------------------------------------------------

    def put_session(self, report: Any, *,
                    tenant: str = DEFAULT_TENANT) -> int:
        """Persist a classroom session report; returns its row id.

        ``report`` is anything with ``institution``/``flag`` attributes
        and a ``to_payload()`` method — in practice a
        :class:`repro.classroom.SessionReport` (duck-typed here so the
        store never imports the classroom layer).
        """
        payload = canonical_json(report.to_payload())
        with self._lock:
            self._require_head()
            tenant_id = self._tenant_id(tenant)
            with self._conn:
                cursor = self._conn.execute(
                    "INSERT INTO sessions "
                    "(tenant_id, institution, flag, payload, created_at) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (tenant_id, report.institution, report.flag,
                     payload, self._clock()))
            return int(cursor.lastrowid)

    def get_session(self, session_id: int) -> Optional[Dict[str, Any]]:
        """One stored session: metadata plus the report payload dict.

        Feed the ``"payload"`` value to
        :meth:`repro.classroom.SessionReport.from_payload` to get a
        whiteboard-complete report object back.
        """
        with self._lock:
            self._require_head()
            row = self._conn.execute(
                "SELECT id, tenant_id, institution, flag, payload, "
                "created_at FROM sessions WHERE id = ?",
                (session_id,)).fetchone()
            if row is None:
                return None
            return {"id": int(row[0]),
                    "tenant": self._tenant_path(int(row[1])),
                    "institution": str(row[2]),
                    "flag": str(row[3]),
                    "payload": json.loads(row[4]),
                    "created_at": float(row[5])}

    def sessions(self, *, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        """Session summaries (no payloads), newest first."""
        with self._lock:
            self._require_head()
            query = ("SELECT id, tenant_id, institution, flag, created_at "
                     "FROM sessions")
            params: List[Any] = []
            if tenant is not None:
                query += " WHERE tenant_id = ?"
                params.append(self._tenant_id(tenant))
            query += " ORDER BY created_at DESC, id DESC"
            return [
                {"id": int(r[0]),
                 "tenant": self._tenant_path(int(r[1])),
                 "institution": str(r[2]),
                 "flag": str(r[3]),
                 "created_at": float(r[4])}
                for r in self._conn.execute(query, params).fetchall()
            ]
