"""Bounded LRU byte cache for the service's read path.

Everything the read endpoints serve is derived from immutable,
content-addressed blobs, so a cache entry can never go stale: the key
embeds the blob digest, and a digest never changes meaning.  That makes
caching trivial — no invalidation, just a byte-budgeted LRU — and makes
the warm read path skip disk I/O and SHA-256 verification (and, for a
run stored without views, the unpickle-and-render of its result).

The cache can be disabled at runtime (admin endpoint) so the load
benchmark can measure the cold path honestly at any request count.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

#: ("blob", sha); ("result", run id, result sha) for an assembled
#: ``/result`` body; (view name, result sha) for a view rendered at read
#: time.
CacheKey = Tuple[str, ...]


class ReadCache:
    """Byte-budgeted LRU over derived read products."""

    def __init__(self, max_bytes: int = 32 * 1024 * 1024) -> None:
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[CacheKey, bytes]" = OrderedDict()
        self._bytes = 0
        self.enabled = True
        self.hits = 0
        self.misses = 0

    def get(self, key: CacheKey) -> Optional[bytes]:
        if not self.enabled:
            self.misses += 1
            return None
        data = self._entries.get(key)
        if data is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return data

    def put(self, key: CacheKey, data: bytes) -> None:
        if not self.enabled or len(data) > self.max_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old)
        self._entries[key] = data
        self._bytes += len(data)
        while self._bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted)

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def set_enabled(self, enabled: bool) -> None:
        """Toggle the cache; disabling also drops every entry."""
        self.enabled = enabled
        if not enabled:
            self.clear()

    @property
    def hit_ratio(self) -> Optional[float]:
        total = self.hits + self.misses
        return (self.hits / total) if total else None

    def stats(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
        }
