"""Content-addressed on-disk artifact store.

Allocation is the expensive, deterministic step (the combinatorial-
allocation survey's argument for memoization), so the service caches the
*response bytes* of every successful compile under a key derived from the
function's structural fingerprint plus everything else that affects the
output (:func:`repro.service.protocol.cache_key`).  Identical requests
across process lifetimes — or across the wire and in-process — are then
served without touching the allocator.

Robustness rules:

* **Corruption is a miss, never a crash.**  Every artifact is a JSON
  wrapper carrying its own key and a SHA-256 of the body; anything that
  fails to read, parse or verify is deleted and recomputed.
* **Writes are atomic.**  Artifacts land via ``os.replace`` from a
  uniquely named temp file, so concurrent writers (server threads, or
  several server processes sharing one root) can never interleave bytes.
* **Bounded.**  A byte-size cap enforced by least-recently-used eviction;
  a hit refreshes the artifact's mtime, which is the recency clock.
* **Hot tier.**  A small in-memory LRU dict (``hot_entries`` response
  bodies) sits in front of the disk: artifacts are content-addressed and
  immutable, so a hot entry can never go stale, and repeat traffic for
  the same key skips the open/parse/checksum entirely.  ``hot_hits`` /
  ``hot_misses`` counters surface in :meth:`ArtifactStore.stats` (and
  through the server's ``/statsz``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["ArtifactStore", "default_store_root", "DEFAULT_MAX_BYTES",
           "DEFAULT_HOT_ENTRIES"]

#: Format of the on-disk wrapper, independent of the protocol schema.
STORE_VERSION = 1

DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Hot-tier entry cap.  Responses are a few KB, so the default keeps the
#: tier well under a megabyte; 0 disables the tier.
DEFAULT_HOT_ENTRIES = 128

_tmp_counter = itertools.count()


def default_store_root() -> str:
    """``$REPRO_SERVICE_STORE``, else ``~/.cache/repro/service``."""
    env = os.environ.get("REPRO_SERVICE_STORE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "service")


class ArtifactStore:
    """A directory of response artifacts addressed by content key."""

    def __init__(self, root: str,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 hot_entries: int = DEFAULT_HOT_ENTRIES) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if hot_entries < 0:
            raise ValueError(
                f"hot_entries must be >= 0, got {hot_entries}")
        self.root = root
        self.max_bytes = max_bytes
        self.hot_entries = hot_entries
        self._objects = os.path.join(root, "objects")
        self._lock = threading.Lock()
        self._hot: "OrderedDict[str, bytes]" = OrderedDict()
        self._hot_lock = threading.Lock()
        self.hot_hits = 0    # gets served from the in-memory tier
        self.hot_misses = 0  # gets that had to consult the disk
        self.corrupt_dropped = 0  # artifacts discarded by validation
        os.makedirs(self._objects, exist_ok=True)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], f"{key}.json")

    def _entries(self) -> Iterator[Tuple[str, int, float]]:
        """Yield ``(path, size, mtime)`` for every artifact, tolerating
        files that vanish mid-walk (a concurrent evictor or ``clear``)."""
        try:
            shards = os.listdir(self._objects)
        except FileNotFoundError:
            return
        for shard in shards:
            shard_dir = os.path.join(self._objects, shard)
            try:
                names = os.listdir(shard_dir)
            except (FileNotFoundError, NotADirectoryError):
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except FileNotFoundError:
                    continue
                yield path, st.st_size, st.st_mtime

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------

    def _hot_get(self, key: str) -> Optional[bytes]:
        with self._hot_lock:
            data = self._hot.get(key)
            if data is not None:
                self._hot.move_to_end(key)
                self.hot_hits += 1
            else:
                self.hot_misses += 1
            return data

    def _hot_put(self, key: str, data: bytes) -> None:
        if not self.hot_entries:
            return
        with self._hot_lock:
            self._hot[key] = data
            self._hot.move_to_end(key)
            while len(self._hot) > self.hot_entries:
                self._hot.popitem(last=False)

    def get(self, key: str) -> Optional[bytes]:
        """The cached response bytes for ``key``, or ``None``.

        The in-memory hot tier answers first; a disk hit back-fills it.
        Truncated, garbage, mis-keyed or checksum-failing artifacts are
        unlinked and reported as misses — the caller recomputes and the
        rewrite repairs the store.
        """
        hot = self._hot_get(key)
        if hot is not None:
            return hot
        path = self._path(key)
        try:
            with open(path, "r", encoding="ascii") as fh:
                wrapper = json.load(fh)
            if not isinstance(wrapper, dict):
                raise ValueError("wrapper is not an object")
            if wrapper.get("store") != STORE_VERSION:
                raise ValueError("wrong store version")
            if wrapper.get("key") != key:
                raise ValueError("key mismatch")
            body = wrapper.get("body")
            if not isinstance(body, str):
                raise ValueError("missing body")
            data = body.encode("ascii")
            if hashlib.sha256(data).hexdigest() != wrapper.get("sha256"):
                raise ValueError("checksum mismatch")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, UnicodeError):
            self.corrupt_dropped += 1
            self._unlink(path)
            return None
        self._touch(path)
        self._hot_put(key, data)
        return data

    def put(self, key: str, body: bytes) -> None:
        """Store ``body`` (canonical ASCII response bytes) under ``key``."""
        wrapper = {
            "store": STORE_VERSION,
            "key": key,
            "sha256": hashlib.sha256(body).hexdigest(),
            "body": body.decode("ascii"),
        }
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}." \
              f"{next(_tmp_counter)}.tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(wrapper, fh)
        os.replace(tmp, path)
        self._hot_put(key, body)
        self._evict()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def _evict(self) -> None:
        """Drop least-recently-used artifacts until under the byte cap.

        The most recent artifact always survives, even if it alone
        exceeds the cap.  Races with other evictors are benign: a
        missing file is simply skipped.
        """
        with self._lock:
            entries: List[Tuple[str, int, float]] = list(self._entries())
            total = sum(size for _, size, _ in entries)
            if total <= self.max_bytes:
                return
            entries.sort(key=lambda e: (e[2], e[0]))  # oldest mtime first
            for path, size, _mtime in entries[:-1]:
                if total <= self.max_bytes:
                    break
                if self._unlink(path):
                    total -= size

    def stats(self) -> Dict[str, object]:
        """Store stats: disk entry count, byte total, cap, root, plus the
        hot tier's size and hit/miss counters."""
        entries = list(self._entries())
        with self._hot_lock:
            hot_entries = len(self._hot)
            hot_hits, hot_misses = self.hot_hits, self.hot_misses
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "corrupt_dropped": self.corrupt_dropped,
            "hot_entries": hot_entries,
            "hot_max_entries": self.hot_entries,
            "hot_hits": hot_hits,
            "hot_misses": hot_misses,
        }

    def clear(self) -> int:
        """Delete every artifact (and empty the hot tier); returns how
        many disk artifacts were removed."""
        with self._hot_lock:
            self._hot.clear()
        removed = 0
        for path, _size, _mtime in list(self._entries()):
            if self._unlink(path):
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _unlink(path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

