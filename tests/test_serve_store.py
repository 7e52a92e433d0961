"""End-to-end tests for serve + store: token auth, quotas, durability.

A live ``require_token`` server backed by a provisioned
:class:`~repro.store.ResultStore` exercises the whole matrix — 401
missing/unknown, 403 revoked, 429 quota with ``Retry-After``, tenant
scoping of ``/results``, and the restart-survival acceptance pin.
"""

import json
import shutil

import pytest

from repro.serve import BackgroundServer, ServeConfig, ServeError
from repro.store import ResultStore


def canon(obj):
    """Canonical JSON for byte-identity comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


TOKENS = {
    "usi": "tok-usi-cs1-0001",
    "tiny": "tok-tiny-0001",
    "revoked": "tok-dead-0001",
    "expired": "tok-stale-0001",
}


@pytest.fixture(scope="module")
def store_server(tmp_path_factory):
    """One live ``require_token`` server over a provisioned store."""
    root = tmp_path_factory.mktemp("serve-store")
    db = root / "store.db"
    with ResultStore(db) as store:
        store.ensure_tenant("usi/cs1")
        store.issue_token("usi/cs1", token=TOKENS["usi"], label="ta")
        store.ensure_tenant("tiny")
        store.set_quota("tiny", max_results=0, retry_after_s=9.0)
        store.issue_token("tiny", token=TOKENS["tiny"])
        store.issue_token("usi/cs1", token=TOKENS["revoked"])
        store.revoke_token(TOKENS["revoked"])
        store.issue_token("usi/cs1", token=TOKENS["expired"],
                          expires_at=1.0)  # long past, on any clock
    config = ServeConfig(cache_dir=str(root / "cache"),
                         store_path=str(db),
                         require_token=True)
    with BackgroundServer(config) as bg:
        yield bg


class TestTokenAuth:
    def test_unprotected_paths_stay_open(self, store_server):
        client = store_server.client()  # no token
        assert client.healthz()["status"] == "ok"
        assert "mauritius" in client.flags()["flags"]

    def test_missing_token_is_401(self, store_server):
        client = store_server.client()
        with pytest.raises(ServeError) as err:
            client.run(flag="poland", scenario=3, seed=1)
        assert err.value.status == 401
        assert err.value.code == "token_missing"

    def test_401_carries_www_authenticate(self, store_server):
        status, headers, _ = store_server.client().request(
            "POST", "/run", {"flag": "poland", "scenario": 3, "seed": 1})
        assert status == 401
        assert headers.get("www-authenticate") == "Bearer"

    def test_unknown_token_is_401(self, store_server):
        client = store_server.client(token="never-issued")
        with pytest.raises(ServeError) as err:
            client.run(flag="poland", scenario=3, seed=1)
        assert err.value.status == 401
        assert err.value.code == "token_unknown"

    def test_expired_token_is_401_token_expired(self, store_server):
        # Distinct from token_unknown: the caller learns their
        # credential *was* real and just needs reissuing.
        client = store_server.client(token=TOKENS["expired"])
        with pytest.raises(ServeError) as err:
            client.run(flag="poland", scenario=3, seed=1)
        assert err.value.status == 401
        assert err.value.code == "token_expired"

    def test_revoked_token_is_403(self, store_server):
        client = store_server.client(token=TOKENS["revoked"])
        with pytest.raises(ServeError) as err:
            client.run(flag="poland", scenario=3, seed=1)
        assert err.value.status == 403
        assert err.value.code == "token_revoked"

    def test_every_protected_endpoint_is_gated(self, store_server):
        client = store_server.client()
        for method, path in [("POST", "/run"), ("POST", "/sweep"),
                             ("POST", "/task"), ("GET", "/results"),
                             ("GET", "/tenants")]:
            status, _, raw = client.request(method, path, {})
            body = json.loads(raw)
            assert status == 401, path
            assert body["error"]["code"] == "token_missing", path


class TestAuthorizedRequests:
    def test_run_persists_and_caches(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        cold = client.run(flag="poland", scenario=3, seed=7)
        warm = client.run(flag="poland", scenario=3, seed=7)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert canon(cold["trial"]) == canon(warm["trial"])

    def test_tenants_listing_is_scoped_to_the_token(self, store_server):
        reply = store_server.client(token=TOKENS["usi"]).tenants()
        paths = {t["path"] for t in reply["tenants"]}
        assert paths == {"usi/cs1"}  # not the parent, not "tiny"

    def test_results_default_to_token_tenant(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        client.run(flag="poland", scenario=3, seed=8)
        reply = client.results()
        assert reply["count"] >= 1
        assert all(r["tenant"] == "usi/cs1" for r in reply["results"])

    def test_digest_fetch_round_trips_the_payload(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        reply = client.run(flag="poland", scenario=3, seed=9)
        digest = client.results()["results"][0]["digest"]
        listing = client.results(digest=digest)
        assert listing["tenant"] == "usi/cs1"
        assert "trials" in listing["payload"]
        # The first row is the newest — the seed=9 run just stored.
        assert canon(listing["payload"]["trials"][0]) \
            == canon(reply["trial"])

    def test_limit_caps_the_listing(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        client.run(flag="poland", scenario=3, seed=10)
        client.run(flag="poland", scenario=3, seed=11)
        assert client.results(limit=1)["count"] == 1

    def test_bad_limit_is_400(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        with pytest.raises(ServeError) as err:
            client.results(limit=0)
        assert err.value.status == 400
        assert err.value.code == "bad_request"

    def test_unknown_tenant_inside_scope_is_404(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        with pytest.raises(ServeError) as err:
            client.results(tenant="usi/cs1/ghost")
        assert err.value.status == 404
        assert err.value.code == "tenant_not_found"

    def test_foreign_tenant_listing_is_403(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        for outside in ("tiny", "usi", "ghost"):
            with pytest.raises(ServeError) as err:
                client.results(tenant=outside)
            assert err.value.status == 403, outside
            assert err.value.code == "tenant_forbidden", outside

    def test_foreign_digest_fetch_is_403(self, store_server):
        """A ?tenant= override cannot reach another tenant's payloads,
        not even with a known digest."""
        usi = store_server.client(token=TOKENS["usi"])
        usi.run(flag="poland", scenario=3, seed=14)
        digest = usi.results()["results"][0]["digest"]
        tiny = store_server.client(token=TOKENS["tiny"])
        with pytest.raises(ServeError) as err:
            tiny.results(tenant="usi/cs1", digest=digest)
        assert err.value.status == 403
        assert err.value.code == "tenant_forbidden"

    def test_missing_digest_is_404(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        with pytest.raises(ServeError) as err:
            client.results(digest="0" * 64)
        assert err.value.status == 404
        assert err.value.code == "result_not_found"


class TestResultsPaging:
    def test_cursor_walk_covers_the_listing(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        for seed in (41, 42, 43, 44, 45):
            client.run(flag="poland", scenario=3, seed=seed)
        full = [r["digest"] for r in client.results()["results"]]
        assert len(full) >= 5
        paged, cursor = [], None
        while True:
            reply = client.results(limit=2, after=cursor)
            paged.extend(r["digest"] for r in reply["results"])
            cursor = reply.get("next")
            if cursor is None:
                break
        assert paged == full

    def test_final_page_has_no_next_cursor(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        client.run(flag="poland", scenario=3, seed=46)
        big = client.results(limit=10_000)
        assert "next" not in big

    def test_unknown_cursor_is_400_bad_cursor(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        with pytest.raises(ServeError) as err:
            client.results(after="f" * 64)
        assert err.value.status == 400
        assert err.value.code == "bad_cursor"

    def test_foreign_digest_is_not_a_valid_cursor(self, store_server):
        # tiny's listing cannot use a usi digest as its cursor.
        usi = store_server.client(token=TOKENS["usi"])
        usi.run(flag="poland", scenario=3, seed=47)
        digest = usi.results()["results"][0]["digest"]
        tiny = store_server.client(token=TOKENS["tiny"])
        with pytest.raises(ServeError) as err:
            tiny.results(after=digest)
        assert err.value.status == 400
        assert err.value.code == "bad_cursor"


class TestQuotas:
    def test_exhausted_quota_is_429_with_retry_after(self, store_server):
        client = store_server.client(token=TOKENS["tiny"])
        with pytest.raises(ServeError) as err:
            client.run(flag="poland", scenario=3, seed=12)
        assert err.value.status == 429
        assert err.value.code == "quota_exceeded"
        assert err.value.retry_after == 9.0

    def test_other_tenants_are_unaffected(self, store_server):
        client = store_server.client(token=TOKENS["usi"])
        reply = client.run(flag="poland", scenario=3, seed=13)
        assert reply["trial"]["runs"]


class TestAnonymousScoping:
    """A store-enabled server *without* --require-token still refuses
    cross-tenant reads: tokenless callers see the default tenant only."""

    @pytest.fixture(scope="class")
    def open_server(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve-open")
        db = root / "store.db"
        with ResultStore(db) as store:
            store.ensure_tenant("usi/cs1")
            store.put_result("secret", {"v": 1}, tenant="usi/cs1")
        config = ServeConfig(cache_dir=str(root / "cache"),
                             store_path=str(db))
        with BackgroundServer(config) as bg:
            yield bg

    def test_anonymous_results_stay_in_default_tenant(self, open_server):
        client = open_server.client()
        client.run(flag="poland", scenario=3, seed=31)
        reply = client.results()
        assert reply["count"] >= 1
        assert all(r["tenant"] == "public" for r in reply["results"])

    def test_anonymous_tenant_override_is_403(self, open_server):
        client = open_server.client()
        with pytest.raises(ServeError) as err:
            client.results(tenant="usi/cs1")
        assert err.value.status == 403
        assert err.value.code == "tenant_forbidden"
        with pytest.raises(ServeError) as err:
            client.results(tenant="usi/cs1", digest="secret")
        assert err.value.status == 403

    def test_anonymous_tenants_listing_shows_default_only(
            self, open_server):
        reply = open_server.client().tenants()
        assert {t["path"] for t in reply["tenants"]} <= {"public"}


class TestStoreDisabled:
    def test_store_endpoints_404_without_a_store(self, tmp_path):
        config = ServeConfig(cache_dir=str(tmp_path / "cache"))
        with BackgroundServer(config) as bg:
            for call in (bg.client().tenants, bg.client().results):
                with pytest.raises(ServeError) as err:
                    call()
                assert err.value.status == 404
                assert err.value.code == "store_disabled"


class TestDurability:
    def test_served_results_survive_restart_and_cache_loss(self, tmp_path):
        """The acceptance pin at the HTTP layer: a result computed by
        one server is served ``cached`` by a fresh server over the same
        store even after the cache directory is deleted — and the
        payload bytes are identical."""
        db = tmp_path / "store.db"
        cache_dir = tmp_path / "cache"
        fields = dict(flag="mauritius", scenario=3, seed=21)

        config = ServeConfig(cache_dir=str(cache_dir),
                             store_path=str(db))
        with BackgroundServer(config) as bg:
            first = bg.client().run(**fields)
        assert first["cached"] is False
        shutil.rmtree(cache_dir)  # the disk cache is gone

        config = ServeConfig(cache_dir=str(tmp_path / "cache2"),
                             store_path=str(db))
        with BackgroundServer(config) as bg:
            again = bg.client().run(**fields)
        assert again["cached"] is True
        assert canon(again["trial"]) == canon(first["trial"])


class TestStatementCounts:
    """What one authenticated ``/run`` asks of SQLite, counted through
    the connection's trace callback (counts, not clocks)."""

    def test_cold_and_cache_hit_runs(self, tmp_path):
        db = tmp_path / "store.db"
        with ResultStore(db) as store:
            store.ensure_tenant("usi/cs1")
            store.issue_token("usi/cs1", token=TOKENS["usi"])
        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             store_path=str(db), require_token=True)
        with BackgroundServer(config) as bg:
            client = bg.client(token=TOKENS["usi"])
            # The tenant's first request builds its tier and fills the
            # store's head and tenant memos.
            client.run(flag="poland", scenario=3, seed=80)
            conn = bg.server.handlers.store._conn
            statements = []
            conn.set_trace_callback(statements.append)
            try:
                cold = client.run(flag="poland", scenario=3, seed=81)
                cold_statements = list(statements)
                statements.clear()
                hit = client.run(flag="poland", scenario=3, seed=81)
                hit_statements = list(statements)
            finally:
                conn.set_trace_callback(None)
        assert cold["cached"] is False and hit["cached"] is True
        assert len(cold_statements) <= 8, cold_statements
        assert sum("INSERT INTO results" in sql
                   for sql in cold_statements) == 1
        # A cache hit never reaches the store beyond the token check.
        (auth,) = hit_statements
        assert auth.startswith("SELECT") and "FROM tokens" in auth

    def test_only_a_tenants_first_run_builds_its_tier(self, tmp_path,
                                                      monkeypatch):
        db = tmp_path / "store.db"
        with ResultStore(db) as store:
            store.ensure_tenant("usi/cs1")
            store.issue_token("usi/cs1", token=TOKENS["usi"])
        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             store_path=str(db), require_token=True)
        with BackgroundServer(config) as bg:
            handlers = bg.server.handlers
            builds = []
            tier = handlers._tier
            monkeypatch.setattr(handlers, "_tier",
                                lambda tenant: builds.append(tenant)
                                or tier(tenant))
            client = bg.client(token=TOKENS["usi"])
            client.run(flag="poland", scenario=3, seed=82)
            client.run(flag="poland", scenario=3, seed=83)
            reply = client.run(flag="poland", scenario=3, seed=84,
                               stream=True)
            assert list(client.stream(reply["stream"]))[-1].kind == "end"
        assert builds == ["usi/cs1"]
