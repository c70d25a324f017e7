"""Request metrics: per-route latency quantiles + service counters.

Cheap, always-on aggregate counters (no per-request storage beyond a
bounded latency ring), read out as one structured snapshot by
``GET /v1/metrics``.  Latency is recorded in milliseconds against the
*route template* ("GET /v1/runs/{run_id}"), not the concrete path, so
quantiles aggregate usefully across runs.

This module measures host wall time by design (request latency); it is
covered by the repro-lint clock allowlist for ``repro.serve``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

#: Latency samples kept per route (ring buffer; quantiles are over the
#: most recent window, which is what an operator actually wants).
LATENCY_WINDOW = 2048


def percentile(samples: List[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0..1) by nearest-rank over a copy; None if empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


class RouteStats:
    """Counters + bounded latency ring for one route template."""

    __slots__ = ("count", "errors", "bytes_out", "latencies_ms")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.bytes_out = 0
        self.latencies_ms: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    def observe(self, status: int, ms: float, bytes_out: int) -> None:
        self.count += 1
        if status >= 500:
            self.errors += 1
        self.bytes_out += bytes_out
        self.latencies_ms.append(ms)

    def snapshot(self) -> Dict[str, object]:
        samples = list(self.latencies_ms)
        return {
            "count": self.count,
            "errors": self.errors,
            "bytes_out": self.bytes_out,
            "p50_ms": percentile(samples, 0.50),
            "p99_ms": percentile(samples, 0.99),
        }


class ServiceMetrics:
    """Aggregate view over every route plus service-level counters."""

    def __init__(self) -> None:
        self.routes: Dict[str, RouteStats] = {}
        #: Submissions answered entirely from the store (no simulation).
        self.submit_cache_hits = 0
        #: Submissions that enqueued at least one fresh run.
        self.submit_misses = 0
        #: Submissions refused with 429 (backpressure).
        self.rejected_busy = 0
        #: Requests that hit an unexpected handler exception (500s).
        self.internal_errors = 0

    def observe(self, route: str, status: int, ms: float, bytes_out: int) -> None:
        stats = self.routes.get(route)
        if stats is None:
            stats = self.routes[route] = RouteStats()
        stats.observe(status, ms, bytes_out)

    @property
    def submit_hit_ratio(self) -> Optional[float]:
        total = self.submit_cache_hits + self.submit_misses
        return (self.submit_cache_hits / total) if total else None

    def snapshot(
        self,
        queue_depth: int,
        running: int,
        cache_stats: Dict[str, object],
    ) -> Dict[str, object]:
        return {
            "routes": {
                route: stats.snapshot()
                for route, stats in sorted(self.routes.items())
            },
            "submissions": {
                "cache_hits": self.submit_cache_hits,
                "misses": self.submit_misses,
                "hit_ratio": self.submit_hit_ratio,
                "rejected_busy": self.rejected_busy,
            },
            "queue": {"depth": queue_depth, "running": running},
            "read_cache": cache_stats,
            "internal_errors": self.internal_errors,
        }
