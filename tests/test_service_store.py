"""Artifact-store tests: corruption tolerance, LRU eviction, concurrency."""

import hashlib
import json
import os
import threading

import pytest

from repro.service.store import ArtifactStore, default_store_root

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62
KEY_D = "dd" + "0" * 62


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"), max_bytes=1 << 20)


def _artifact_path(store, key):
    return os.path.join(store.root, "objects", key[:2], f"{key}.json")


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(KEY_A, b'{"ok":true}')
        assert store.get(KEY_A) == b'{"ok":true}'

    def test_absent_key_is_a_miss(self, store):
        assert store.get(KEY_A) is None
        assert store.corrupt_dropped == 0

    def test_overwrite_replaces(self, store):
        store.put(KEY_A, b"v1")
        store.put(KEY_A, b"v2")
        assert store.get(KEY_A) == b"v2"
        assert store.stats()["entries"] == 1

    def test_stats_and_clear(self, store):
        store.put(KEY_A, b"x")
        store.put(KEY_B, b"y")
        stats = store.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert stats["hot_entries"] == 2
        assert store.clear() == 2
        assert store.stats() == {**stats, "entries": 0, "bytes": 0,
                                 "hot_entries": 0}

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(str(tmp_path / "s"), max_bytes=0)

    def test_default_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SERVICE_STORE", str(tmp_path / "env"))
        assert default_store_root() == str(tmp_path / "env")
        monkeypatch.delenv("REPRO_SERVICE_STORE")
        assert default_store_root().endswith(os.path.join(
            ".cache", "repro", "service"))


class TestCorruption:
    """ISSUE: truncated or garbage artifacts are treated as misses,
    recomputed and rewritten, never crash the server.

    These tests target the disk validation path, so the in-memory hot
    tier (which would otherwise keep serving the pre-corruption bytes —
    artifacts are content-addressed and immutable, so that is correct
    behaviour, tested separately in :class:`TestHotTier`) is disabled.
    """

    @pytest.fixture
    def store(self, tmp_path):
        return ArtifactStore(str(tmp_path / "store"), max_bytes=1 << 20,
                             hot_entries=0)

    def _corrupt(self, store, key, raw):
        path = _artifact_path(store, key)
        with open(path, "wb") as fh:
            fh.write(raw)

    @pytest.mark.parametrize("raw", [
        b"",                                     # zero-length
        b'{"store":1,"key":',                    # truncated JSON
        b"\x00\x01garbage\xff",                  # binary garbage
        b"[1,2,3]",                              # not a wrapper object
        b'{"store":99,"key":"x","body":"y"}',    # future store version
    ])
    def test_unreadable_artifact_is_dropped_miss(self, store, raw):
        store.put(KEY_A, b"good")
        self._corrupt(store, KEY_A, raw)
        assert store.get(KEY_A) is None
        assert store.corrupt_dropped == 1
        assert not os.path.exists(_artifact_path(store, KEY_A))
        # recompute path: the rewrite repairs the store
        store.put(KEY_A, b"good")
        assert store.get(KEY_A) == b"good"

    def test_key_mismatch_dropped(self, store):
        store.put(KEY_A, b"body")
        with open(_artifact_path(store, KEY_A)) as fh:
            wrapper = json.load(fh)
        wrapper["key"] = KEY_B
        self._corrupt(store, KEY_A, json.dumps(wrapper).encode())
        assert store.get(KEY_A) is None
        assert store.corrupt_dropped == 1

    def test_checksum_mismatch_dropped(self, store):
        store.put(KEY_A, b"body")
        with open(_artifact_path(store, KEY_A)) as fh:
            wrapper = json.load(fh)
        wrapper["body"] = "tampered"
        assert hashlib.sha256(b"tampered").hexdigest() != wrapper["sha256"]
        self._corrupt(store, KEY_A, json.dumps(wrapper).encode())
        assert store.get(KEY_A) is None
        assert store.corrupt_dropped == 1


class TestEviction:
    def test_lru_by_access_time(self, tmp_path):
        # cap fits roughly two wrappers of this body size; hot tier off
        # so every get consults (and mtime-refreshes) the disk artifact
        body = b"x" * 200
        store = ArtifactStore(str(tmp_path / "s"), max_bytes=900,
                              hot_entries=0)
        store.put(KEY_A, body)
        store.put(KEY_B, body)
        # pin explicit mtimes so recency is deterministic, then read A to
        # refresh it: B becomes the LRU victim
        os.utime(_artifact_path(store, KEY_A), (1000, 1000))
        os.utime(_artifact_path(store, KEY_B), (2000, 2000))
        assert store.get(KEY_A) == body  # utime-refreshes A past B
        assert os.path.getmtime(_artifact_path(store, KEY_A)) > 2000
        store.put(KEY_C, body)
        assert store.get(KEY_B) is None
        assert store.get(KEY_A) == body
        assert store.get(KEY_C) == body

    def test_newest_survives_even_if_oversized(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), max_bytes=10)
        store.put(KEY_A, b"y" * 500)
        assert store.get(KEY_A) == b"y" * 500
        assert store.stats()["entries"] == 1

    def test_cap_respected_under_concurrent_writers(self, tmp_path):
        """ISSUE: the byte cap holds when many threads write at once."""
        body = b"z" * 300
        cap = 4000
        store = ArtifactStore(str(tmp_path / "s"), max_bytes=cap)
        errors = []

        def writer(worker):
            try:
                for i in range(20):
                    key = hashlib.sha256(
                        f"{worker}/{i}".encode()).hexdigest()
                    store.put(key, body)
                    store.get(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # after the last put's eviction pass the total is within the cap
        assert store.stats()["bytes"] <= cap
        assert store.stats()["entries"] >= 1


class TestHotTier:
    """ISSUE: a small in-memory LRU in front of the disk serves repeat
    traffic without the open/parse/checksum, with hit/miss counters."""

    def test_put_backfills_and_get_hits_memory(self, store):
        store.put(KEY_A, b"body")
        # the artifact can vanish from disk entirely; content-addressed
        # bodies are immutable, so the hot entry is still authoritative
        os.unlink(_artifact_path(store, KEY_A))
        assert store.get(KEY_A) == b"body"
        stats = store.stats()
        assert stats["hot_hits"] == 1
        assert stats["hot_misses"] == 0
        assert stats["corrupt_dropped"] == 0

    def test_disk_hit_backfills_hot_tier(self, tmp_path):
        root = str(tmp_path / "store")
        ArtifactStore(root).put(KEY_A, b"body")
        store = ArtifactStore(root)  # fresh process: cold hot tier
        assert store.get(KEY_A) == b"body"   # disk read, back-fills
        assert store.get(KEY_A) == b"body"   # served from memory
        stats = store.stats()
        assert stats["hot_misses"] == 1
        assert stats["hot_hits"] == 1

    def test_lru_eviction_at_entry_cap(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), hot_entries=2)
        store.put(KEY_A, b"a")
        store.put(KEY_B, b"b")
        assert store.get(KEY_A) == b"a"  # refresh A: B is now LRU
        store.put(KEY_C, b"c")           # evicts B from the hot tier
        assert store.stats()["hot_entries"] == 2
        assert store.get(KEY_B) == b"b"  # still on disk
        stats = store.stats()
        assert stats["hot_misses"] == 1
        assert stats["hot_entries"] == 2  # B back-filled, A evicted

    def test_zero_entries_disables_tier(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "s"), hot_entries=0)
        store.put(KEY_A, b"body")
        assert store.get(KEY_A) == b"body"
        stats = store.stats()
        assert stats["hot_entries"] == 0
        assert stats["hot_max_entries"] == 0
        assert stats["hot_hits"] == 0
        assert stats["hot_misses"] == 1  # the get probed, found nothing

    def test_rejects_negative_entry_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(str(tmp_path / "s"), hot_entries=-1)

    def test_fresh_store_sees_disk_corruption(self, tmp_path):
        """A new process (cold tier) over a corrupted root still takes
        the validate-drop-recompute path."""
        root = str(tmp_path / "store")
        warm = ArtifactStore(root)
        warm.put(KEY_A, b"body")
        with open(_artifact_path(warm, KEY_A), "wb") as fh:
            fh.write(b"\x00garbage")
        assert warm.get(KEY_A) == b"body"  # hot tier masks the damage
        cold = ArtifactStore(root)
        assert cold.get(KEY_A) is None
        assert cold.corrupt_dropped == 1

