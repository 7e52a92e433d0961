"""Versioned schema migrations for the durable result store.

The store's schema is owned by plain SQL, not an ORM: every version is
a :class:`Migration` — an ordered list of DDL statements — and the
store database records which versions have been applied in a
``schema_migrations`` table.  :func:`migrate` applies whatever is
pending, in order, each version inside one transaction, so a database
at any historical version (or empty) converges on the head schema and
a re-run is a no-op.

The SQL sticks to the portable core both SQLite and Postgres accept —
``TEXT`` / ``INTEGER`` / ``DOUBLE PRECISION`` columns, ``CHECK`` and
``FOREIGN KEY`` constraints, ``ALTER TABLE ... ADD COLUMN`` — so the
same migration list ports to Postgres by swapping the connection and
the ``?`` placeholder style.  The one deliberate SQLite-ism is
``id INTEGER PRIMARY KEY`` (the rowid alias) where Postgres would
declare ``BIGSERIAL``; it is confined to this module.

Version history:

1. ``core`` — tenants (institution → class → cohort hierarchy) and
   content-addressed results.
2. ``auth_quotas`` — per-tenant auth tokens (hashes only, never the
   plaintext) and result-count/byte quotas.
3. ``sessions_access`` — durable classroom session reports, plus
   access stamps (``accessed_at``/``hits``) on results so ``gc`` can
   reason about recency.
4. ``token_expiry`` — an optional ``expires_at`` deadline on tokens,
   so classroom credentials can be issued for the term instead of
   forever (``NULL`` keeps the pre-4 never-expires behavior).
5. ``usage_index`` — a ``(tenant_id, nbytes)`` index on results, so a
   tenant's usage (``COUNT(*)``, ``SUM(nbytes)``) is answered from the
   index alone.  In the table ``nbytes`` sits after the large
   ``payload`` column, so without it every quota check walks every
   stored payload's overflow pages.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import List, Optional, Tuple


class MigrationError(Exception):
    """Raised for unknown targets or out-of-order version history."""


@dataclass(frozen=True)
class Migration:
    """One schema version: an ordinal, a name, and its DDL statements."""

    version: int
    name: str
    statements: Tuple[str, ...]


MIGRATIONS: Tuple[Migration, ...] = (
    Migration(
        version=1,
        name="core",
        statements=(
            """
            CREATE TABLE tenants (
                id INTEGER PRIMARY KEY,
                name TEXT NOT NULL,
                kind TEXT NOT NULL,
                parent_id INTEGER,
                created_at DOUBLE PRECISION NOT NULL,
                CHECK (kind IN ('institution', 'class', 'cohort')),
                FOREIGN KEY (parent_id) REFERENCES tenants (id),
                UNIQUE (parent_id, name)
            )
            """,
            """
            CREATE TABLE results (
                digest TEXT NOT NULL,
                tenant_id INTEGER NOT NULL,
                kind TEXT NOT NULL,
                payload TEXT NOT NULL,
                nbytes INTEGER NOT NULL,
                created_at DOUBLE PRECISION NOT NULL,
                PRIMARY KEY (tenant_id, digest),
                FOREIGN KEY (tenant_id) REFERENCES tenants (id)
            )
            """,
            """
            CREATE INDEX idx_results_tenant_created
                ON results (tenant_id, created_at)
            """,
        ),
    ),
    Migration(
        version=2,
        name="auth_quotas",
        statements=(
            """
            CREATE TABLE tokens (
                token_hash TEXT PRIMARY KEY,
                tenant_id INTEGER NOT NULL,
                label TEXT,
                revoked INTEGER NOT NULL DEFAULT 0,
                created_at DOUBLE PRECISION NOT NULL,
                FOREIGN KEY (tenant_id) REFERENCES tenants (id)
            )
            """,
            """
            CREATE TABLE quotas (
                tenant_id INTEGER PRIMARY KEY,
                max_results INTEGER,
                max_bytes INTEGER,
                retry_after_s DOUBLE PRECISION NOT NULL DEFAULT 60.0,
                FOREIGN KEY (tenant_id) REFERENCES tenants (id)
            )
            """,
        ),
    ),
    Migration(
        version=3,
        name="sessions_access",
        statements=(
            """
            CREATE TABLE sessions (
                id INTEGER PRIMARY KEY,
                tenant_id INTEGER NOT NULL,
                institution TEXT NOT NULL,
                flag TEXT NOT NULL,
                payload TEXT NOT NULL,
                created_at DOUBLE PRECISION NOT NULL,
                FOREIGN KEY (tenant_id) REFERENCES tenants (id)
            )
            """,
            "ALTER TABLE results ADD COLUMN accessed_at DOUBLE PRECISION",
            "ALTER TABLE results ADD COLUMN hits INTEGER NOT NULL DEFAULT 0",
        ),
    ),
    Migration(
        version=4,
        name="token_expiry",
        statements=(
            "ALTER TABLE tokens ADD COLUMN expires_at DOUBLE PRECISION",
        ),
    ),
    Migration(
        version=5,
        name="usage_index",
        statements=(
            """
            CREATE INDEX idx_results_tenant_nbytes
                ON results (tenant_id, nbytes)
            """,
        ),
    ),
)

#: The schema version a fully-migrated database reports.
HEAD_VERSION = MIGRATIONS[-1].version


def _ensure_ledger(conn: sqlite3.Connection) -> None:
    """Create the ``schema_migrations`` ledger if it does not exist."""
    conn.execute(
        """
        CREATE TABLE IF NOT EXISTS schema_migrations (
            version INTEGER PRIMARY KEY,
            name TEXT NOT NULL,
            applied_at DOUBLE PRECISION NOT NULL
        )
        """
    )


def schema_version(conn: sqlite3.Connection) -> int:
    """The highest applied migration version; 0 for an empty database."""
    _ensure_ledger(conn)
    row = conn.execute(
        "SELECT MAX(version) FROM schema_migrations").fetchone()
    return int(row[0]) if row and row[0] is not None else 0


def pending(conn: sqlite3.Connection,
            target: Optional[int] = None) -> List[Migration]:
    """The migrations :func:`migrate` would apply, in order.

    Raises:
        MigrationError: when ``target`` is not a known version, or is
            below the database's current version (downgrades are not
            supported — restore from backup instead).
    """
    current = schema_version(conn)
    goal = HEAD_VERSION if target is None else target
    known = {m.version for m in MIGRATIONS}
    if goal not in known and goal != 0:
        raise MigrationError(
            f"unknown target version {goal}; known: {sorted(known)}")
    if goal < current:
        raise MigrationError(
            f"database is at version {current}, cannot migrate down "
            f"to {goal}; downgrades are not supported")
    return [m for m in MIGRATIONS if current < m.version <= goal]


def migrate(conn: sqlite3.Connection, *, target: Optional[int] = None,
            clock=None) -> List[Migration]:
    """Apply every pending migration up to ``target`` (default: head).

    Each version runs inside one transaction: either all of its
    statements land and the ledger records it, or none do.  Applying
    to an already-migrated database is a no-op.

    Args:
        conn: an open SQLite connection to the store database.
        target: stop at this version (default: the head version).
        clock: a ``() -> float`` unix-seconds source for the ledger's
            ``applied_at`` stamp; defaults to the host clock.

    Returns:
        The migrations that were applied (empty when up to date).

    Raises:
        MigrationError: for unknown or backward targets.
    """
    if clock is None:
        import time
        clock = time.time
    todo = pending(conn, target)
    for migration in todo:
        with conn:  # one transaction per version
            for statement in migration.statements:
                conn.execute(statement)
            conn.execute(
                "INSERT INTO schema_migrations (version, name, applied_at) "
                "VALUES (?, ?, ?)",
                (migration.version, migration.name, clock()))
    return todo
