"""Bounded LRU cache for the service's read path.

It holds two kinds of entry, and neither can go stale while the
service runs:

* read products derived from content-addressed blobs — the key embeds
  the blob digest, and a digest never changes meaning;
* the parsed manifest of a *complete* run.  No route rewrites a complete
  manifest, and re-running a complete run hands it back without writing
  anything.  A job's end drops its runs' manifests all the same, with
  any outcome, so a job that ever does rewrite one leaves no old copy.

That makes caching trivial — no per-entry invalidation, just a
byte-budgeted LRU — and makes the warm read path a memory hit on the
event loop: no manifest load, no disk I/O, no SHA-256 verification (and,
for a run stored without views, no unpickle-and-render of its result).
Rewriting a complete run from another process while a service is live
(``repro campaign --force``) is unsupported, as an external gc is.

The cache belongs to the event loop: every method that reads or moves
entries is loop-owned.  It can be disabled at runtime (admin endpoint)
so the load benchmark can measure the cold path honestly at any request
count; a disabled cache walks the store on every request.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

from ..store.manifest import STATUS_COMPLETE, RunManifest

#: ("blob", sha); ("result", run id, result sha) for an assembled
#: ``/result`` body; (view name, result sha) for a view rendered at read
#: time; ("manifest", run id) for a complete run's parsed manifest.
CacheKey = Tuple[str, ...]


class ReadCache:
    """Byte-budgeted LRU over derived read products and complete
    runs' manifests (a manifest is charged at its JSON size)."""

    def __init__(self, max_bytes: int = 32 * 1024 * 1024) -> None:
        self.max_bytes = max_bytes
        #: key -> (value, bytes charged against ``max_bytes``).
        self._entries: "OrderedDict[CacheKey, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self.enabled = True
        self.hits = 0
        self.misses = 0

    def _get(self, key: CacheKey) -> Any:
        entry = self._entries.get(key) if self.enabled else None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def _put(self, key: CacheKey, value: Any, size: int) -> None:
        if not self.enabled or size > self.max_bytes:
            return
        self._discard(key)
        self._entries[key] = (value, size)
        self._bytes += size
        while self._bytes > self.max_bytes:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._bytes -= evicted

    def _discard(self, key: CacheKey) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]

    # repro-lint: loop-owned
    def get(self, key: CacheKey) -> Optional[bytes]:
        return self._get(key)

    # repro-lint: loop-owned
    def put(self, key: CacheKey, data: bytes) -> None:
        self._put(key, data, len(data))

    # repro-lint: loop-owned
    def manifest(self, run_id: str) -> Optional[RunManifest]:
        """The cached manifest of complete run ``run_id``, if any: one
        object shared by every read, which must not mutate it."""
        return self._get(("manifest", run_id))

    # repro-lint: loop-owned
    def put_manifest(self, manifest: RunManifest) -> None:
        """Cache ``manifest`` if its run is complete; a running run's
        manifest changes with every unit, so it is never kept."""
        if self.enabled and manifest.status == STATUS_COMPLETE:
            self._put(
                ("manifest", manifest.run_id),
                manifest,
                len(manifest.to_json()),
            )

    # repro-lint: loop-owned
    def drop_manifests(self, run_ids: Iterable[str]) -> None:
        for run_id in run_ids:
            self._discard(("manifest", run_id))

    # repro-lint: loop-owned
    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    # repro-lint: loop-owned
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
