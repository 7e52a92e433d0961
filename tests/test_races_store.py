"""Concurrent StoreTier tests (the ISSUE's third satellite).

Two threads hammering one tier, and two tiers on two ``ResultStore``
connections sharing one database file: payloads must come back
byte-identical and the tier's hit/put counters must be exact — the
counters are now guarded by ``StoreTier._stats_lock``, and an
always-sanitized audit proves that lock actually orders the updates.
Each scenario also runs under :func:`repro.races.maybe_sanitized`, so
the CI ``race`` job replays it on happens-before shims.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs import MetricsRegistry
from repro.races import RaceSanitizer, maybe_sanitized
from repro.serve import BackgroundServer, ServeConfig
from repro.serve.admission import AdmissionQueue
from repro.serve.handlers import ServeHandlers
from repro.store import ResultStore, StoreTier

N_DIGESTS = 24


def payload(i):
    return {"cell": f"c{i}", "speedup": 1.0 + i / 8, "trials": [i, i + 1]}


def canonical(obj):
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def in_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestSharedTier:
    def test_two_threads_one_tier_counters_exact(self, tmp_path):
        # cache=None pins the arithmetic: every get is a store hit, so
        # the guarded counters must land on exact totals — a lost
        # update (the pre-lock bug) would undercount.
        with maybe_sanitized():
            with ResultStore(tmp_path / "s.db") as store:
                tier = StoreTier(store)
                for i in range(N_DIGESTS):
                    tier.put(f"d{i}", payload(i))
                got = {}

                def reader(lo, hi):
                    for i in range(lo, hi):
                        got[i] = tier.get(f"d{i}")

                half = N_DIGESTS // 2
                in_threads(lambda: reader(0, half),
                           lambda: reader(half, N_DIGESTS))
                assert tier.store_puts == N_DIGESTS
                assert tier.store_hits == N_DIGESTS
                for i in range(N_DIGESTS):
                    assert canonical(got[i]) == canonical(payload(i))

    def test_two_threads_interleaved_puts_then_gets(self, tmp_path):
        with maybe_sanitized():
            with ResultStore(tmp_path / "s.db") as store:
                tier = StoreTier(store)

                def writer(lo, hi):
                    for i in range(lo, hi):
                        tier.put(f"d{i}", payload(i))

                half = N_DIGESTS // 2
                in_threads(lambda: writer(0, half),
                           lambda: writer(half, N_DIGESTS))
                assert tier.store_puts == N_DIGESTS
                for i in range(N_DIGESTS):
                    assert canonical(tier.get(f"d{i}")) == canonical(
                        payload(i))


class TestSharedDatabaseFile:
    def test_two_connections_one_file(self, tmp_path):
        # Two ResultStore connections (sqlite allows it: each has its
        # own connection with a busy timeout) on one file, each behind
        # its own tier on its own thread; disjoint writes, then both
        # read everything — byte-identical through either connection.
        db = tmp_path / "shared.db"
        with maybe_sanitized():
            with ResultStore(db) as a, ResultStore(db) as b:
                tier_a, tier_b = StoreTier(a), StoreTier(b)
                half = N_DIGESTS // 2

                def writer(tier, lo, hi):
                    for i in range(lo, hi):
                        tier.put(f"d{i}", payload(i))

                in_threads(lambda: writer(tier_a, 0, half),
                           lambda: writer(tier_b, half, N_DIGESTS))

                seen = {"a": {}, "b": {}}

                def reader(key, tier):
                    for i in range(N_DIGESTS):
                        seen[key][i] = canonical(tier.get(f"d{i}"))

                in_threads(lambda: reader("a", tier_a),
                           lambda: reader("b", tier_b))
                for i in range(N_DIGESTS):
                    want = canonical(payload(i))
                    assert seen["a"][i] == want
                    assert seen["b"][i] == want
                assert tier_a.store_hits == N_DIGESTS
                assert tier_b.store_hits == N_DIGESTS


class TestAuditedCounters:
    def test_stats_lock_orders_counter_updates(self, tmp_path):
        # Always-on sanitizer audit (no REPRO_SAN needed): the tier's
        # counters are registered shared state, two reader threads hit
        # the store concurrently, and the report must be clean — the
        # regression the _stats_lock fix exists for.
        san = RaceSanitizer()
        with san.patched():
            with ResultStore(tmp_path / "s.db") as store:
                audited = san.audited_class(
                    StoreTier, "store_hits", "store_puts")
                tier = audited(store)
                for i in range(8):
                    tier.put(f"d{i}", payload(i))

                def reader(lo, hi):
                    for i in range(lo, hi):
                        tier.get(f"d{i}")

                in_threads(lambda: reader(0, 4), lambda: reader(4, 8))
                assert tier.store_hits == 8
        report = san.report()
        assert report.ok, report.format()


class TestServeTenantTiers:
    def test_concurrent_first_builds_share_one_tier(self, tmp_path):
        # The barrier holds both threads inside StoreTier construction,
        # so neither has published its tier when the other looks: the
        # memo must still hand both callers the same tier, or the
        # loser's hit/put counts land on a tier nobody reads again.
        with ResultStore(tmp_path / "s.db") as store, \
                ThreadPoolExecutor(1) as executor:
            handlers = ServeHandlers(executor=executor,
                                     admission=AdmissionQueue(1),
                                     registry=MetricsRegistry(),
                                     store=store)
            barrier = threading.Barrier(2, timeout=10)
            ensure_tenant = store.ensure_tenant

            def ensure_together(*args, **kwargs):
                barrier.wait()
                return ensure_tenant(*args, **kwargs)

            store.ensure_tenant = ensure_together
            got = []
            in_threads(lambda: got.append(handlers._tier("public")),
                       lambda: got.append(handlers._tier("public")))
            store.ensure_tenant = ensure_tenant
            assert len(got) == 2
            assert got[0] is got[1]
            for i, tier in enumerate(got):
                tier.put(f"d{i}", payload(i))
            assert handlers._tier("public").store_puts == 2


class TestServeAuthOffLoop:
    def test_token_lookup_waits_off_the_event_loop(self, tmp_path):
        # Another thread holds the store lock (as a /sweep bulk persist
        # does) while a Bearer request is in flight.  The token lookup
        # must wait on an executor thread, not on the event loop: a
        # tokenless /healthz on the same server still answers, and the
        # authed request completes once the lock frees.
        with ResultStore(tmp_path / "s.db") as store:
            store.ensure_tenant("usi/cs1")
            token = store.issue_token("usi/cs1")
            looking_up = threading.Event()
            authenticate = store.authenticate

            def announced(plaintext):
                looking_up.set()
                return authenticate(plaintext)

            store.authenticate = announced
            config = ServeConfig(cache_dir=str(tmp_path / "cache"))
            with BackgroundServer(config, store=store) as bg:
                held, release = threading.Event(), threading.Event()

                def hold_store_lock():
                    with store._lock:
                        held.set()
                        release.wait(timeout=30)

                got = {}
                holder = threading.Thread(target=hold_store_lock)
                authed = threading.Thread(target=lambda: got.update(
                    bg.client(token=token, timeout_s=30).tenants()))
                holder.start()
                try:
                    assert held.wait(timeout=10)
                    authed.start()
                    assert looking_up.wait(timeout=10)
                    health = bg.client(timeout_s=5).healthz()
                    assert health["status"] == "ok"
                    assert authed.is_alive()  # still behind the lock
                finally:
                    release.set()
                    holder.join(timeout=10)
                authed.join(timeout=30)
                assert not holder.is_alive()
                assert not authed.is_alive()
                assert [t["path"] for t in got["tenants"]] == ["usi/cs1"]
