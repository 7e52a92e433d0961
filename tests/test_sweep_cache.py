"""Tests for repro.sweep.cache — the content-addressed result store."""

import json
import os
import shutil

import pytest

from repro.canonical import canonical_bytes
from repro.sweep import CacheError, ResultCache, content_address


class TestContentAddress:
    def test_stable(self):
        key = {"cell": {"flag": "mauritius"}, "seed": 0}
        assert content_address(key) == content_address(key)

    def test_order_insensitive(self):
        assert (content_address({"a": 1, "b": 2})
                == content_address({"b": 2, "a": 1}))

    def test_value_sensitive(self):
        assert content_address({"seed": 0}) != content_address({"seed": 1})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        digest = content_address({"x": 1})
        assert cache.get(digest) is None
        cache.put(digest, {"trials": [1, 2]})
        assert cache.get(digest) == {"trials": [1, 2]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_creates_root(self, tmp_path):
        root = tmp_path / "deep" / "nested"
        ResultCache(root)
        assert root.is_dir()

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = content_address({"x": 1})
        (tmp_path / f"{digest}.json").write_text("{truncated")
        assert cache.get(digest) is None
        assert cache.corruptions == 1
        assert cache.misses == 1
        # The bad file was moved aside, so later reads miss cleanly.
        assert not (tmp_path / f"{digest}.json").exists()
        assert (tmp_path / f"{digest}.corrupt").exists()
        assert cache.get(digest) is None
        assert cache.corruptions == 1  # quarantine happens once

    def test_truncated_entry_recomputes_and_heals(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = content_address({"x": "heal"})
        cache.put(digest, {"trials": [1, 2, 3]})
        full = (tmp_path / f"{digest}.json").read_text()
        (tmp_path / f"{digest}.json").write_text(full[: len(full) // 2])
        payload = cache.get_or_compute({"x": "heal"},
                                       lambda: {"trials": [1, 2, 3]})
        assert payload == {"trials": [1, 2, 3]}
        assert cache.corruptions == 1
        # Healed: the fresh entry reads back fine.
        assert cache.get(digest) == {"trials": [1, 2, 3]}

    def test_non_object_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = content_address({"x": 2})
        (tmp_path / f"{digest}.json").write_text("[1, 2, 3]")
        assert cache.get(digest) is None
        assert cache.corruptions == 1

    def test_quarantined_files_do_not_count_as_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = content_address({"x": 3})
        (tmp_path / f"{digest}.json").write_text("not json")
        cache.get(digest)
        assert len(cache) == 0  # sidecars are not entries...
        # ...but their bytes still occupy the disk budget.
        assert cache.total_bytes() == len("not json")

    def test_entry_vanishing_mid_read_is_plain_miss(self, tmp_path):
        """A concurrent prune between lookup and read is a miss, not
        corruption: nothing is quarantined, ``corruptions`` stays 0."""
        cache = ResultCache(tmp_path)
        digest = content_address({"x": "race"})
        cache.put(digest, {"v": 1})
        real = cache._path(digest)

        class RacingPath:
            """Loses the race: the file is pruned just before the read."""

            def read_text(self):
                os.unlink(real)
                return real.read_text()  # raises FileNotFoundError

        cache._path = lambda d: RacingPath()  # type: ignore[assignment]
        assert cache.get(digest) is None
        assert cache.corruptions == 0
        assert cache.misses == 1
        assert list(tmp_path.glob("*.corrupt")) == []

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(content_address({"a": 1}), {})
        cache.put(content_address({"a": 2}), {})
        assert len(cache) == 2

    def test_no_stray_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(content_address({"a": 1}), {"k": "v"})
        assert list(tmp_path.glob("*.tmp")) == []


def _age(cache, digest, seconds_ago):
    """Backdate one entry's mtime so LRU ordering is deterministic."""
    path = cache._path(digest)
    stamp = os.stat(path).st_mtime - seconds_ago
    os.utime(path, (stamp, stamp))


class TestLRUPrune:
    def test_no_limits_means_no_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(20):
            cache.put(content_address({"i": i}), {"i": i})
        assert len(cache) == 20
        assert cache.prune() == 0
        assert cache.evictions == 0

    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        old, mid = content_address({"i": 0}), content_address({"i": 1})
        cache.put(old, {"i": 0})
        _age(cache, old, 60)
        cache.put(mid, {"i": 1})
        _age(cache, mid, 30)
        cache.put(content_address({"i": 2}), {"i": 2})
        assert len(cache) == 2
        assert cache.get(old) is None  # the LRU entry went
        assert cache.get(mid) == {"i": 1}

    def test_read_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        a, b = content_address({"i": "a"}), content_address({"i": "b"})
        cache.put(a, {"v": "a"})
        _age(cache, a, 60)
        cache.put(b, {"v": "b"})
        _age(cache, b, 30)
        assert cache.get(a) == {"v": "a"}  # touch: a is now newest
        cache.put(content_address({"i": "c"}), {"v": "c"})
        assert cache.get(a) == {"v": "a"}
        assert cache.get(b) is None  # b was the stale one

    def test_max_bytes_evicts_until_under_budget(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=250)
        digests = []
        for i in range(4):
            d = content_address({"i": i})
            cache.put(d, {"pad": "x" * 80})  # ~95 bytes per entry
            _age(cache, d, 40 - 10 * i)
            digests.append(d)
        cache.put(content_address({"i": 99}), {"pad": "x" * 80})
        assert cache.total_bytes() <= 250
        assert cache.get(digests[0]) is None
        assert cache.evictions >= 2

    def test_newest_entry_survives_even_when_oversized(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=10)
        digest = content_address({"big": 1})
        cache.put(digest, {"pad": "x" * 100})
        assert cache.get(digest) == {"pad": "x" * 100}

    def test_bad_limits_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            ResultCache(tmp_path, max_entries=0)
        with pytest.raises(CacheError):
            ResultCache(tmp_path, max_bytes=0)

    def test_sidecars_are_swept_by_prune(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        bad = content_address({"bad": 1})
        (tmp_path / f"{bad}.json").write_text("not json")
        cache.get(bad)  # -> quarantined sidecar
        sidecar = tmp_path / f"{bad}.corrupt"
        assert sidecar.exists()
        stamp = os.stat(sidecar).st_mtime - 120
        os.utime(sidecar, (stamp, stamp))
        cache.put(content_address({"i": 1}), {"v": 1})
        cache.put(content_address({"i": 2}), {"v": 2})
        # The sidecar was the oldest of three files against a
        # two-entry budget: pruned, both real entries kept.
        assert not sidecar.exists()
        assert len(cache) == 2

    def test_sidecar_bytes_count_against_max_bytes(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=300)
        sidecar = tmp_path / (content_address({"c": 1}) + ".corrupt")
        sidecar.write_text("x" * 280)
        stamp = os.stat(sidecar).st_mtime - 120
        os.utime(sidecar, (stamp, stamp))
        cache.put(content_address({"i": 1}), {"pad": "y" * 80})
        # Entry (~95 B) + sidecar (280 B) bust the 300-byte budget;
        # the oldest file — the sidecar — is evicted.
        assert not sidecar.exists()
        assert cache.total_bytes() <= 300

    def test_recurring_corruption_stays_bounded(self, tmp_path):
        """The bug this pins: sidecars invisible to prune() meant a
        bounded cache grew without bound under recurring corruption."""
        cache = ResultCache(tmp_path, max_entries=3)
        for i in range(20):
            digest = content_address({"corrupt": i})
            (tmp_path / f"{digest}.json").write_text("not json")
            cache.get(digest)  # quarantine
            cache.put(content_address({"ok": i}), {"i": i})  # prunes
        assert cache.corruptions == 20
        files = list(tmp_path.glob("*.json")) + list(tmp_path.glob("*.corrupt"))
        assert len(files) <= 3


class TestGetOrCompute:
    def test_computes_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"value": 42}

        first = cache.get_or_compute({"k": "v"}, compute)
        second = cache.get_or_compute({"k": "v"}, compute)
        assert first == second == {"value": 42}
        assert len(calls) == 1

    def test_different_keys_different_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = cache.get_or_compute({"k": 1}, lambda: {"v": 1})
        b = cache.get_or_compute({"k": 2}, lambda: {"v": 2})
        assert a != b


class TestDeletedRoot:
    """Deleting the cache directory under a live process is allowed:
    the next write recreates it instead of failing."""

    def test_put_recreates_a_deleted_root(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        shutil.rmtree(cache.root)
        digest = content_address({"x": "gone"})
        assert cache.get(digest) is None  # a plain miss, not an error
        cache.put(digest, {"v": 1})
        assert cache.get(digest) == {"v": 1}
        assert list(cache.root.glob("*.tmp")) == []

    def test_nested_root_is_recreated_too(self, tmp_path):
        cache = ResultCache(tmp_path / "a" / "b")
        shutil.rmtree(tmp_path / "a")
        cache.put(content_address({"x": 1}), {"v": 1})
        assert len(cache) == 1


class TestEntryFormat:
    """Entries hold the canonical bytes; older spaced entries still read."""

    PAYLOAD = {"trials": [{"makespan": 12.5, "note": "café"}],
               "cell": {"flag": "mauritius", "rows": None}}

    def test_entry_bytes_are_canonical(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = content_address({"fmt": 1})
        cache.put(digest, self.PAYLOAD)
        assert (cache._path(digest).read_bytes()
                == canonical_bytes(self.PAYLOAD))

    def test_old_spaced_entry_is_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = content_address({"fmt": 2})
        with open(cache._path(digest), "w") as fp:
            json.dump(self.PAYLOAD, fp, sort_keys=True)
        assert cache.get(digest) == self.PAYLOAD
        assert (cache.hits, cache.corruptions) == (1, 0)

    def test_undecodable_entry_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = content_address({"fmt": 3})
        # Not UTF-8, and not JSON under any single-byte locale either.
        cache._path(digest).write_bytes(b'\xff{"v": 1}')
        assert cache.get(digest) is None
        assert cache.corruptions == 1
