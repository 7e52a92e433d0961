"""Tests for repro.store — migrations, tenancy, tokens, quotas, tiering.

The acceptance pins live here too: migrations apply cleanly from an
empty database *and* from the historical v1 schema, and a sweep
persisted through the store survives a process restart plus deletion
of the cache directory byte-identically.
"""

import json
import shutil

import pytest

from repro.canonical import canonical_bytes
from repro.store import (
    HEAD_VERSION,
    MIGRATIONS,
    AuthError,
    MigrationError,
    QuotaExceeded,
    ResultStore,
    StoreError,
    StoreTier,
    canonical_json,
    pending,
    token_hash,
)
from repro.sweep import ResultCache, SweepSpec, run_sweep
from repro.sweep.executor import cell_address


def small_spec(**kw):
    base = dict(flags=("mauritius",), scenarios=(3,), n_trials=2, seed=11)
    base.update(kw)
    return SweepSpec(**base)


class TestMigrations:
    def test_fresh_database_migrates_to_head(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            assert store.schema_version == HEAD_VERSION

    def test_migrate_is_idempotent(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            assert store.migrate() == []  # already at head

    def test_migration_names_are_recorded(self, tmp_path):
        with ResultStore(tmp_path / "s.db", migrate=False) as store:
            applied = store.migrate()
        assert applied == [f"{m.version}:{m.name}" for m in MIGRATIONS]
        assert applied[-1] == "5:usage_index"

    def test_from_v1_schema_to_head(self, tmp_path):
        """A database stopped at the historical v1 schema upgrades
        cleanly — and its v1 data survives."""
        path = tmp_path / "s.db"
        with ResultStore(path, migrate=False) as store:
            store.migrate(target=1)
            assert store.schema_version == 1
            # v1 has tenants + results but no tokens/quotas/sessions.
            store._conn.execute(
                "INSERT INTO tenants (name, kind, parent_id, created_at) "
                "VALUES ('usi', 'institution', NULL, 0.0)")
            store._conn.execute(
                "INSERT INTO results (digest, tenant_id, kind, payload, "
                "nbytes, created_at) VALUES ('v1', 1, 'sweep_cell', "
                "'{\"v\":0}', 7, 0.0)")
            store._conn.commit()
        with ResultStore(path) as store:  # reopen: auto-migrate to head
            assert store.schema_version == HEAD_VERSION
            assert store._conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'index' "
                "AND name = 'idx_results_tenant_nbytes'").fetchone()
            assert [(t["path"], t["n_results"], t["bytes"])
                    for t in store.tenants()] == [("usi", 1, 7)]
            store.put_result("d", {"v": 1}, tenant="usi")
            assert store.get_result("d", tenant="usi") == {"v": 1}

    def test_downgrade_refused(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(MigrationError, match="downgrade"):
                store.migrate(target=1)

    def test_unknown_target_refused(self, tmp_path):
        with ResultStore(tmp_path / "s.db", migrate=False) as store:
            with pytest.raises(MigrationError, match="unknown target"):
                pending(store._conn, 99)

    def test_data_methods_refuse_stale_schema(self, tmp_path):
        with ResultStore(tmp_path / "s.db", migrate=False) as store:
            store.migrate(target=1)
            with pytest.raises(StoreError, match="repro store migrate"):
                store.ensure_tenant("usi")

    def test_usage_query_reads_only_the_covering_index(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            usi = store.ensure_tenant("usi")
            for i in range(3):
                store.put_result(f"d{i}", {"pad": "x" * 4000},
                                 tenant="usi")
            seen = []
            store._conn.set_trace_callback(seen.append)
            try:
                assert store._usage(usi.id) == (3, 3 * 4010)
            finally:
                store._conn.set_trace_callback(None)
            (query,) = seen
            plan = " ".join(str(row[-1]) for row in store._conn.execute(
                "EXPLAIN QUERY PLAN " + query))
            assert "COVERING INDEX idx_results_tenant_nbytes" in plan

    def test_v4_quota_boundaries_survive_the_usage_index(
            self, tmp_path, monkeypatch):
        """Usage, gate verdicts and the exact count and byte limits at
        which puts are refused read the same at v4 and at head."""
        import repro.store.core as store_core

        def probe(store):
            out = [(t["path"], t["n_results"], t["bytes"], t["quota"])
                   for t in store.tenants()]
            for add in ({"add_results": 2}, {"add_results": 3},
                        {"add_bytes": 200}, {"add_bytes": 201}):
                try:
                    store.check_quota("usi", **add)
                    out.append(("ok", add))
                except QuotaExceeded as exc:
                    out.append(("refused", add, str(exc)))
            # {"pad":""} is 10 bytes: 150 fits, 51 more busts the byte
            # limit, 50 more lands on it exactly, then the count is full.
            for digest, pad in (("p0", 140), ("p1", 41), ("p1", 40),
                                ("p2", 0)):
                try:
                    store.put_result(digest, {"pad": "x" * pad},
                                     tenant="usi")
                    out.append(("put", digest, pad))
                except QuotaExceeded as exc:
                    out.append(("refused", digest, pad, str(exc)))
            return out

        path, copy = tmp_path / "v4.db", tmp_path / "v4-copy.db"
        monkeypatch.setattr(store_core, "HEAD_VERSION", 4)
        with ResultStore(path, migrate=False) as store:
            store.migrate(target=4)
            store.ensure_tenant("usi")
            store.ensure_tenant("hpu")
            for i in range(30):
                store.put_result(f"d{i}", {"i": i, "pad": "x" * (i * 37)},
                                 tenant="usi")
                if i % 6 == 0:
                    store.put_result(f"h{i}", {"i": i}, tenant="hpu")
            (usi,) = [t for t in store.tenants() if t["path"] == "usi"]
            n_bytes = usi["bytes"]
            store.set_quota("usi", max_results=32, max_bytes=n_bytes + 200,
                            retry_after_s=5.0)
        shutil.copyfile(path, copy)
        with ResultStore(copy, migrate=False) as store:
            assert store.schema_version == 4
            at_v4 = probe(store)
        monkeypatch.undo()
        with ResultStore(path) as store:  # reopen: auto-migrate to head
            assert store.schema_version == HEAD_VERSION
            at_head = probe(store)
        assert at_head == at_v4
        outcomes = [entry[0] for entry in at_v4[2:]]
        assert outcomes == ["ok", "refused", "ok", "refused",
                            "put", "refused", "put", "refused"]
        assert "is at 30 of 32 results" in at_v4[3][2]
        assert f"is at {n_bytes} of {n_bytes + 200} bytes" in at_v4[5][2]
        assert f"is at {n_bytes + 150} of" in at_v4[7][3]
        assert "is at 32 of 32 results" in at_v4[9][3]

    def test_versions_are_ordered_and_unique(self):
        versions = [m.version for m in MIGRATIONS]
        assert versions == sorted(set(versions))
        assert versions[-1] == HEAD_VERSION


class TestTenants:
    def test_path_creates_hierarchy(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            leaf = store.ensure_tenant("usi/cs1/spring26")
            assert leaf.kind == "cohort"
            assert leaf.path == "usi/cs1/spring26"
            paths = {t["path"]: t["kind"] for t in store.tenants()}
            assert paths == {"usi": "institution", "usi/cs1": "class",
                             "usi/cs1/spring26": "cohort"}

    def test_ensure_is_idempotent(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            a = store.ensure_tenant("usi/cs1")
            b = store.ensure_tenant("usi/cs1")
            assert a.id == b.id
            assert len(store.tenants()) == 2

    def test_same_name_under_different_parents(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            a = store.ensure_tenant("usi/cs1")
            b = store.ensure_tenant("hpu/cs1")
            assert a.id != b.id

    def test_too_deep_path_refused(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(StoreError, match="1-3"):
                store.ensure_tenant("a/b/c/d")

    def test_empty_path_refused(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(StoreError):
                store.ensure_tenant("")


class TestTokens:
    def test_issue_then_authenticate(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi/cs1")
            token = store.issue_token("usi/cs1", label="ta-laptop")
            tenant = store.authenticate(token)
            assert tenant.path == "usi/cs1"

    def test_plaintext_never_stored(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            token = store.issue_token("usi", token="super-secret")
            rows = store._conn.execute(
                "SELECT token_hash FROM tokens").fetchall()
            assert rows == [(token_hash("super-secret"),)]
            assert token == "super-secret"

    def test_unknown_token(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(AuthError) as err:
                store.authenticate("never-issued")
            assert err.value.reason == "unknown"

    def test_revoked_token(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            token = store.issue_token("usi")
            assert store.revoke_token(token)
            with pytest.raises(AuthError) as err:
                store.authenticate(token)
            assert err.value.reason == "revoked"

    def test_revoking_unknown_token_reports_false(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            assert not store.revoke_token("never-issued")

    def test_reissuing_a_known_token_is_refused(self, tmp_path):
        """A known plaintext can never be rebound to another tenant."""
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.ensure_tenant("hpu")
            store.issue_token("usi", token="shared-secret")
            with pytest.raises(StoreError, match="re-issue"):
                store.issue_token("hpu", token="shared-secret")
            assert store.authenticate("shared-secret").path == "usi"

    def test_revoked_token_cannot_be_resurrected(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.issue_token("usi", token="dead-secret")
            store.revoke_token("dead-secret")
            with pytest.raises(StoreError, match="re-issue"):
                store.issue_token("usi", token="dead-secret")
            with pytest.raises(AuthError) as err:
                store.authenticate("dead-secret")
            assert err.value.reason == "revoked"


class TestQuotas:
    def test_result_count_quota(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.set_quota("usi", max_results=2, retry_after_s=7.5)
            store.put_result("a", {"v": 1}, tenant="usi")
            store.put_result("b", {"v": 2}, tenant="usi")
            with pytest.raises(QuotaExceeded) as err:
                store.put_result("c", {"v": 3}, tenant="usi")
            assert err.value.retry_after_s == 7.5
            assert err.value.tenant == "usi"

    def test_replacing_a_digest_never_busts_the_quota(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.set_quota("usi", max_results=1)
            store.put_result("a", {"v": 1}, tenant="usi")
            store.put_result("a", {"v": 2}, tenant="usi")  # replace: fine
            assert store.get_result("a", tenant="usi") == {"v": 2}

    def test_byte_quota(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.set_quota("usi", max_bytes=50)
            store.put_result("a", {"v": 1}, tenant="usi")
            with pytest.raises(QuotaExceeded):
                store.put_result("b", {"pad": "x" * 100}, tenant="usi")

    def test_quota_gate_is_atomic_across_connections(self, tmp_path):
        """Two handles on one database file (the `repro serve --store`
        plus `repro sweep --store` shape) cannot interleave past the
        check-then-insert gate: the final count respects the quota."""
        import threading
        db = tmp_path / "s.db"
        with ResultStore(db) as a, ResultStore(db) as b:
            a.ensure_tenant("usi")
            a.set_quota("usi", max_results=5)

            def hammer(store, worker):
                for i in range(15):
                    try:
                        store.put_result(f"d{worker}-{i}", {"i": i},
                                         tenant="usi")
                    except QuotaExceeded:
                        pass

            threads = [threading.Thread(target=hammer,
                                        args=(store, worker))
                       for worker, store in enumerate([a, b, a, b])]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(a.results(tenant="usi")) <= 5

    def test_quotas_are_per_tenant(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.ensure_tenant("hpu")
            store.set_quota("usi", max_results=1)
            store.put_result("a", {"v": 1}, tenant="usi")
            store.put_result("b", {"v": 2}, tenant="hpu")  # unlimited
            with pytest.raises(QuotaExceeded):
                store.put_result("c", {"v": 3}, tenant="usi")


class TestResults:
    def test_round_trip_is_canonical(self, tmp_path):
        payload = {"b": [1, 2], "a": {"nested": True}}
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.put_result("d", payload, tenant="usi")
            loaded = store.get_result("d", tenant="usi")
            assert loaded == payload
            assert canonical_json(loaded) == canonical_json(payload)

    def test_results_are_tenant_scoped(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.ensure_tenant("hpu")
            store.put_result("d", {"v": 1}, tenant="usi")
            assert store.get_result("d", tenant="hpu") is None
            assert store.get_result("d", tenant="usi") == {"v": 1}

    def test_hits_and_listing(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.put_result("d", {"v": 1}, tenant="usi")
            store.get_result("d", tenant="usi")
            store.get_result("d", tenant="usi")
            rows = store.results()
            assert len(rows) == 1
            assert rows[0]["digest"] == "d"
            assert rows[0]["hits"] == 2
            assert rows[0]["tenant"] == "usi"

    def test_unknown_tenant_put_refused(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            with pytest.raises(StoreError, match="no tenant"):
                store.put_result("d", {"v": 1}, tenant="ghost")

    def test_gc_by_age(self, tmp_path):
        clock = {"now": 1000.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            store.put_result("old", {"v": 1}, tenant="usi")
            clock["now"] = 2000.0
            store.put_result("new", {"v": 2}, tenant="usi")
            assert store.gc(older_than_s=500.0) == 1
            assert store.get_result("old", tenant="usi") is None
            assert store.get_result("new", tenant="usi") == {"v": 2}

    def test_replacement_keeps_age_and_access_history(self, tmp_path):
        """A re-put digest keeps created_at/hits, so it cannot dodge
        gc's oldest-first eviction or erase its recency stats."""
        clock = {"now": 1.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            store.put_result("old", {"v": 1}, tenant="usi")
            store.get_result("old", tenant="usi")
            store.get_result("old", tenant="usi")
            clock["now"] = 50.0
            store.put_result("young", {"v": 2}, tenant="usi")
            clock["now"] = 100.0
            store.put_result("old", {"v": 3}, tenant="usi")  # replace
            rows = {r["digest"]: r for r in store.results(tenant="usi")}
            assert rows["old"]["created_at"] == 1.0
            assert rows["old"]["hits"] == 2
            # Quota-trimming still evicts the re-put digest first.
            store.set_quota("usi", max_results=1)
            store.gc()
            kept = [r["digest"] for r in store.results(tenant="usi")]
            assert kept == ["young"]
            assert store.get_result("old", tenant="usi") is None

    def test_gc_trims_over_quota_oldest_first(self, tmp_path):
        clock = {"now": 0.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            for i in range(5):
                clock["now"] += 1.0
                store.put_result(f"d{i}", {"i": i}, tenant="usi",
                                 enforce_quota=False)
            store.set_quota("usi", max_results=2)
            assert store.gc() == 3
            kept = [r["digest"] for r in store.results()]
            assert sorted(kept) == ["d3", "d4"]

    def test_gc_trims_many_rows_in_age_then_digest_order(self, tmp_path):
        # 24 rows over 12 timestamps, each shared by two digests, so the
        # digest tie-break decides which of a pair goes first.
        clock = {"now": 0.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            store.ensure_tenant("hpu")
            for i in range(24):
                if i % 2 == 0:
                    clock["now"] += 1.0
                digest = f"{'b' if i % 2 == 0 else 'a'}{i // 2:02d}"
                store.put_result(digest, {"i": i}, tenant="usi",
                                 enforce_quota=False)
                store.put_result(f"h{i}", {"i": i}, tenant="hpu")
            store.set_quota("usi", max_results=3)
            assert store.gc() == 21
            kept = sorted(r["digest"] for r in store.results(tenant="usi"))
            assert kept == ["a11", "b10", "b11"]
            assert len(store.results(tenant="hpu")) == 24


class TestTokenExpiry:
    def test_expired_token_is_refused_with_reason(self, tmp_path):
        clock = {"now": 1000.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            token = store.issue_token("usi", expires_days=2)
            assert store.authenticate(token).path == "usi"
            clock["now"] = 1000.0 + 2 * 86400.0 - 1.0
            assert store.authenticate(token).path == "usi"
            clock["now"] = 1000.0 + 2 * 86400.0  # the deadline itself
            with pytest.raises(AuthError) as err:
                store.authenticate(token)
            assert err.value.reason == "expired"

    def test_tokens_without_expiry_never_expire(self, tmp_path):
        clock = {"now": 0.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            token = store.issue_token("usi")
            clock["now"] = 1e12
            assert store.authenticate(token).path == "usi"

    def test_explicit_expires_at(self, tmp_path):
        clock = {"now": 10.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            token = store.issue_token("usi", expires_at=20.0)
            assert store.authenticate(token).path == "usi"
            clock["now"] = 25.0
            with pytest.raises(AuthError) as err:
                store.authenticate(token)
            assert err.value.reason == "expired"

    def test_expiry_param_misuse_is_refused(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            with pytest.raises(StoreError):
                store.issue_token("usi", expires_days=1,
                                  expires_at=99.0)
            with pytest.raises(StoreError):
                store.issue_token("usi", expires_days=0)
            with pytest.raises(StoreError):
                store.issue_token("usi", expires_days=-3)

    def test_expiry_beats_revocation_check_order_is_stable(self,
                                                           tmp_path):
        # A token both revoked and expired reports "revoked" — the
        # stronger, permanent condition.
        clock = {"now": 0.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            token = store.issue_token("usi", expires_days=1)
            store.revoke_token(token)
            clock["now"] = 2 * 86400.0
            with pytest.raises(AuthError) as err:
                store.authenticate(token)
            assert err.value.reason == "revoked"


class TestDurabilityAndStatements:
    """WAL with ``synchronous = NORMAL``, token writes under ``FULL``,
    hits that write nothing, and memos that never cache a verdict.
    Counted through the connection's trace callback, never timed."""

    def test_file_store_runs_in_wal_mode(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
            (sync,) = store._conn.execute("PRAGMA synchronous").fetchone()
        assert mode == "wal"
        assert sync == 1  # NORMAL

    def test_revocation_through_one_store_refuses_at_once_in_another(
            self, tmp_path):
        db = tmp_path / "s.db"
        with ResultStore(db) as a, ResultStore(db) as b:
            a.ensure_tenant("usi")
            token = a.issue_token("usi")
            assert b.authenticate(token).path == "usi"
            assert a.revoke_token(token)
            with pytest.raises(AuthError) as err:
                b.authenticate(token)
            assert err.value.reason == "revoked"

    def test_token_writes_commit_under_full_sync(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            statements = []
            store._conn.set_trace_callback(statements.append)
            token = store.issue_token("usi")
            store.revoke_token(token)
            store._conn.set_trace_callback(None)
            (sync,) = store._conn.execute("PRAGMA synchronous").fetchone()
        assert sync == 1  # back to NORMAL for everything else
        writes = [i for i, sql in enumerate(statements)
                  if sql.startswith(("INSERT INTO tokens", "UPDATE tokens"))]
        assert len(writes) == 2
        for i in writes:
            before = [sql for sql in statements[:i] if "synchronous" in sql]
            commit = statements.index("COMMIT", i)
            after = [sql for sql in statements[i:commit]
                     if "synchronous" in sql]
            assert before[-1] == "PRAGMA synchronous = FULL"
            assert after == []

    def test_a_hit_writes_nothing_until_the_next_write(self, tmp_path):
        db = tmp_path / "s.db"
        with ResultStore(db) as store, ResultStore(db) as other:
            store.ensure_tenant("usi")
            store.put_result("d", {"v": 1}, tenant="usi")
            statements = []
            store._conn.set_trace_callback(statements.append)
            assert store.get_result("d", tenant="usi") == {"v": 1}
            assert store.get_result("d", tenant="usi") == {"v": 1}
            assert all(sql.startswith("SELECT") for sql in statements)
            assert len(statements) == 2
            assert other.results()[0]["hits"] == 0   # still in memory
            store.put_result("e", {"v": 2}, tenant="usi")
            hits = {r["digest"]: r["hits"] for r in other.results()}
            assert hits == {"d": 2, "e": 0}

    def test_close_flushes_pending_hits(self, tmp_path):
        db = tmp_path / "s.db"
        with ResultStore(db) as store:
            store.ensure_tenant("usi")
            store.put_result("d", {"v": 1}, tenant="usi")
            store.get_result("d", tenant="usi")
        with ResultStore(db) as store:
            assert store.results()[0]["hits"] == 1

    def test_failed_put_keeps_pending_hits(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.put_result("d", {"v": 1}, tenant="usi")
            store.get_result("d", tenant="usi")
            store.set_quota("usi", max_results=1)
            with pytest.raises(QuotaExceeded):
                store.put_result("e", {"v": 2}, tenant="usi")
            assert store.results()[0]["hits"] == 1

    def test_warm_store_statements(self, tmp_path):
        # After the first lookups fill the head and tenant memos, an
        # authenticated miss-then-put costs one SELECT to authenticate,
        # one to miss, and a five-statement write transaction.
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi/cs1")
            token = store.issue_token("usi/cs1")
            store.authenticate(token)
            store.put_result("warm", {"v": 0}, tenant="usi/cs1")
            statements = []
            store._conn.set_trace_callback(statements.append)
            assert store.authenticate(token).path == "usi/cs1"
            assert store.get_result("d", tenant="usi/cs1") is None
            store.put_result("d", {"v": 1}, tenant="usi/cs1")
        assert len(statements) == 7, statements
        assert "JOIN tenants" in statements[0]
        assert statements[2] == "BEGIN IMMEDIATE"
        assert statements[-1] == "COMMIT"

    def test_tenant_misses_are_not_memoised(self, tmp_path):
        # Another connection may create the tenant after a miss.
        db = tmp_path / "s.db"
        with ResultStore(db) as a, ResultStore(db) as b:
            assert a.get_result("d", tenant="late") is None
            b.ensure_tenant("late")
            b.put_result("d", {"v": 1}, tenant="late")
            assert a.get_result("d", tenant="late") == {"v": 1}


class TestResultsPagination:
    def seed_results(self, store, clock, n=7):
        store.ensure_tenant("usi")
        for i in range(n):
            clock["now"] += 1.0
            store.put_result(f"d{i}", {"i": i}, tenant="usi")

    def test_cursor_walk_covers_everything_once(self, tmp_path):
        clock = {"now": 0.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            self.seed_results(store, clock)
            full = [r["digest"] for r in store.results()]
            assert full == [f"d{i}" for i in reversed(range(7))]
            paged, cursor = [], None
            while True:
                page = store.results(limit=3, after=cursor)
                if not page:
                    break
                paged.extend(r["digest"] for r in page)
                cursor = page[-1]["digest"]
            assert paged == full

    def test_cursor_is_stable_under_inserts(self, tmp_path):
        # Keyset cursors never skip or repeat rows when newer results
        # arrive between pages — the failure mode OFFSET paging has.
        clock = {"now": 0.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            self.seed_results(store, clock, n=4)
            first = store.results(limit=2)
            clock["now"] += 1.0
            store.put_result("newer", {"v": 9}, tenant="usi")
            rest = store.results(after=first[-1]["digest"])
            assert [r["digest"] for r in first + rest] == [
                "d3", "d2", "d1", "d0"]

    def test_ties_on_created_at_break_by_digest(self, tmp_path):
        clock = {"now": 5.0}
        with ResultStore(tmp_path / "s.db",
                         clock=lambda: clock["now"]) as store:
            store.ensure_tenant("usi")
            for digest in ("b", "a", "c"):
                store.put_result(digest, {}, tenant="usi")
            page1 = store.results(limit=2)
            page2 = store.results(after=page1[-1]["digest"])
            assert [r["digest"] for r in page1 + page2] == [
                "a", "b", "c"]

    def test_unknown_cursor_is_refused(self, tmp_path):
        from repro.store import UnknownCursor
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.put_result("d", {}, tenant="usi")
            with pytest.raises(UnknownCursor):
                store.results(after="no-such-digest")

    def test_cursor_is_tenant_scoped(self, tmp_path):
        # A digest another tenant owns is not a valid cursor for a
        # scoped listing (it would leak ordering information).
        from repro.store import UnknownCursor
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.ensure_tenant("hpu")
            store.put_result("mine", {}, tenant="usi")
            store.put_result("theirs", {}, tenant="hpu")
            with pytest.raises(UnknownCursor):
                store.results(tenant="usi", after="theirs")


class TestSessions:
    def test_session_round_trip(self, tmp_path):
        from repro.classroom import SessionReport, get_institution
        from repro.classroom.session import run_session
        report = run_session(get_institution("HPU"), seed=5, n_teams=2)
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("hpu/cs1")
            sid = store.put_session(report, tenant="hpu/cs1")
            stored = store.get_session(sid)
            assert stored["institution"] == "HPU"
            assert stored["tenant"] == "hpu/cs1"
            loaded = SessionReport.from_payload(stored["payload"])
            assert loaded.board == report.board
            assert loaded.median_speedups() == report.median_speedups()
            listing = store.sessions(tenant="hpu/cs1")
            assert [s["id"] for s in listing] == [sid]

    def test_missing_session_is_none(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            assert store.get_session(999) is None


class TestStoreTier:
    def test_put_lands_in_both_levels(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            cache = ResultCache(tmp_path / "cache")
            tier = StoreTier(store, cache=cache)
            tier.put("d", {"v": 1})
            assert cache.get("d") == {"v": 1}
            assert store.get_result("d") == {"v": 1}

    def test_store_hit_warms_the_cache(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            StoreTier(store).put("d", {"v": 1})  # cache-less write
            cache = ResultCache(tmp_path / "cold")
            tier = StoreTier(store, cache=cache)
            assert tier.get("d") == {"v": 1}
            assert tier.store_hits == 1
            assert cache.get("d") == {"v": 1}  # warmed on the way out

    def test_cache_hit_skips_the_store(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            cache = ResultCache(tmp_path / "cache")
            tier = StoreTier(store, cache=cache)
            tier.put("d", {"v": 1})
            assert tier.get("d") == {"v": 1}
            assert tier.store_hits == 0  # answered by the cache level

    def test_put_encodes_once_for_both_levels(self, tmp_path,
                                              monkeypatch):
        payload = {"cell": {"flag": "poland"},
                   "trials": [{"t": 0.1, "name": "caf\u00e9"}]}
        encodes = []
        dumps = json.dumps

        def counting_dumps(obj, *args, **kwargs):
            if obj is payload:
                encodes.append(kwargs)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        with ResultStore(tmp_path / "s.db") as store:
            cache = ResultCache(tmp_path / "cache")
            StoreTier(store, cache=cache).put("d", payload)
            (row,) = store._conn.execute(
                "SELECT payload FROM results WHERE digest = 'd'").fetchone()
        assert len(encodes) == 1
        assert (cache.root / "d.json").read_bytes() == row.encode("utf-8")
        assert row.encode("utf-8") == canonical_bytes(payload)

    def test_quota_refusal_blocks_both_levels(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi")
            store.set_quota("usi", max_results=0)
            cache = ResultCache(tmp_path / "cache")
            tier = StoreTier(store, cache=cache, tenant="usi")
            with pytest.raises(QuotaExceeded):
                tier.put("d", {"v": 1})
            assert cache.get("d") is None  # the cache was not written


class TestTierCacheFailures:
    """A missing or unwritable cache never blocks the store: the store
    row is the durable copy, so the cache write is best-effort."""

    class BrokenCache(ResultCache):
        """A cache whose every write fails (a full or read-only disk)."""

        def put(self, digest, payload):
            raise OSError(28, "No space left on device")

    def test_deleted_cache_root_on_store_hit(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            StoreTier(store).put("d", {"v": 1})
            cache = ResultCache(tmp_path / "cache")
            shutil.rmtree(cache.root)
            tier = StoreTier(store, cache=cache)
            assert tier.get("d") == {"v": 1}
            assert tier.store_hits == 1
            assert cache.get("d") == {"v": 1}  # the root came back

    def test_deleted_cache_root_on_put(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            cache = ResultCache(tmp_path / "cache")
            tier = StoreTier(store, cache=cache)
            shutil.rmtree(cache.root)
            tier.put("d", {"v": 1})
            assert store.get_result("d") == {"v": 1}
            assert cache.get("d") == {"v": 1}

    def test_failing_cache_write_on_store_hit(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            StoreTier(store).put("d", {"v": 1})
            tier = StoreTier(store, cache=self.BrokenCache(tmp_path / "c"))
            assert tier.get("d") == {"v": 1}
            assert tier.store_hits == 1

    def test_failing_cache_write_on_put(self, tmp_path):
        with ResultStore(tmp_path / "s.db") as store:
            tier = StoreTier(store, cache=self.BrokenCache(tmp_path / "c"))
            tier.put("d", {"v": 1})
            assert tier.store_puts == 1
            assert store.get_result("d") == {"v": 1}


class TestSweepInterop:
    def test_warm_store_recomputes_zero_trials(self, tmp_path):
        spec = small_spec()
        with ResultStore(tmp_path / "s.db") as store:
            cold = run_sweep(spec, store=store)
            warm = run_sweep(spec, store=store)
        assert cold.computed_trials == spec.total_trials
        assert warm.computed_trials == 0
        assert warm.cached_trials == spec.total_trials
        assert cold.cells[0].trials == warm.cells[0].trials

    def test_warm_store_backfills_cold_cache(self, tmp_path):
        spec = small_spec()
        with ResultStore(tmp_path / "s.db") as store:
            run_sweep(spec, store=store)
            cache = ResultCache(tmp_path / "cold-cache")
            assert len(cache) == 0
            warm = run_sweep(spec, store=store, cache=cache)
        assert warm.computed_trials == 0
        assert len(cache) == 1  # the store hit warmed the directory

    def test_restart_and_cache_deletion_survive_byte_identically(
            self, tmp_path):
        """The tentpole acceptance pin: persist a sweep through the
        store, close it, delete the cache directory, reopen the store
        in a 'new process' — the sweep is served from the store and the
        payload bytes are identical."""
        spec = small_spec(scenarios=(3, 4))
        cache_dir = tmp_path / "cache"
        db = tmp_path / "s.db"
        with ResultStore(db) as store:
            cold = run_sweep(spec, store=store,
                             cache=ResultCache(cache_dir))
            address = cell_address(spec.cells()[0], seed=spec.seed,
                                   n_trials=spec.n_trials)
            before = canonical_json(store.get_result(address))
        cache_bytes = {p.name: p.read_bytes()
                       for p in sorted(cache_dir.glob("*.json"))}
        shutil.rmtree(cache_dir)  # the disk cache is gone

        with ResultStore(db) as store:  # fresh handle = restarted process
            fresh_cache = ResultCache(cache_dir)
            warm = run_sweep(spec, store=store, cache=fresh_cache)
            after = canonical_json(store.get_result(address))
        assert warm.computed_trials == 0
        assert warm.cached_trials == spec.total_trials
        assert before == after
        for cc, cw in zip(cold.cells, warm.cells):
            assert cc.trials == cw.trials
        # The back-filled cache directory holds byte-identical files.
        rebuilt = {p.name: p.read_bytes()
                   for p in sorted(cache_dir.glob("*.json"))}
        assert rebuilt == cache_bytes

    def test_store_payload_matches_cache_payload(self, tmp_path):
        """One addressing scheme: the store's payload for a digest is
        exactly what the disk cache holds for the same digest."""
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        with ResultStore(tmp_path / "s.db") as store:
            run_sweep(spec, store=store, cache=cache)
            address = cell_address(spec.cells()[0], seed=spec.seed,
                                   n_trials=spec.n_trials)
            from_store = store.get_result(address)
            from_cache = cache.get(address)
        assert from_store == from_cache
        assert json.dumps(from_store, sort_keys=True) \
            == json.dumps(from_cache, sort_keys=True)


    def test_cache_files_hold_the_store_rows_bytes(self, tmp_path):
        """Cache entries and store rows are the same canonical bytes."""
        spec = small_spec(scenarios=(3, 4))
        cache = ResultCache(tmp_path / "cache")
        with ResultStore(tmp_path / "s.db") as store:
            run_sweep(spec, cache=StoreTier(store, cache=cache))
            rows = dict(store._conn.execute(
                "SELECT digest, payload FROM results").fetchall())
            stored = {d: store.get_result(d) for d in rows}
        files = {p.stem: p.read_bytes()
                 for p in sorted(cache.root.glob("*.json"))}
        assert sorted(files) == sorted(rows)
        assert len(files) == len(spec.cells())
        for digest, raw in files.items():
            assert raw == canonical_bytes(stored[digest])
            assert raw == rows[digest].encode("utf-8")


class TestFabricInterop:
    def test_fabric_persists_through_store(self, tmp_path):
        from repro.fabric import FabricConfig, run_fabric_sweep
        spec = small_spec()
        config = FabricConfig(workers=2)
        with ResultStore(tmp_path / "s.db") as store:
            cold = run_fabric_sweep(spec, config, store=store)
            serial = run_sweep(spec)
            assert cold.cells[0].trials == serial.cells[0].trials
        # Restart: a plain serial sweep against the same store database
        # reuses the fabric's persisted cells.
        with ResultStore(tmp_path / "s.db") as store:
            warm = run_sweep(spec, store=store)
        assert warm.computed_trials == 0
        assert warm.cells[0].trials == cold.cells[0].trials
