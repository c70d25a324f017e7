"""The engine perf recorder.

When a recorder is attached, the scheduler's dispatch loop hands every
callback to :meth:`PerfRecorder.dispatch`, which wraps the invocation
with a ``perf_counter`` pair and aggregates the wall time by callback
*type* (the function's qualified name), so a report can say "handler
passes cost 40% of the run" without per-event storage.

Scheduling and cancellation volumes come from the scheduler's always-on
counters (``scheduled_total``, ``cancelled_total``, ``compactions``);
the recorder only adds what requires per-event work: timing and heap
depth tracking.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Optional


def perf_enabled_by_env() -> bool:
    """True when ``REPRO_PERF=1`` asks for instrumentation globally."""
    return os.environ.get("REPRO_PERF", "0") == "1"


def _callback_label(callback: Callable[..., Any]) -> str:
    """Stable per-type label: qualified name, falling back to repr."""
    name = getattr(callback, "__qualname__", None)
    if name is not None:
        return name
    # Bound methods and functools.partial objects expose the wrapped
    # function one level down.
    inner = getattr(callback, "func", None)
    if inner is not None:
        return _callback_label(inner)
    return type(callback).__name__


class PerfRecorder:
    """Aggregated engine metrics for one instrumented run."""

    __slots__ = (
        "events",
        "busy_time",
        "max_heap_depth",
        "by_callback",
        "_started_at",
        "wall_time",
    )

    def __init__(self) -> None:
        self.events = 0
        #: Wall seconds spent inside event callbacks.
        self.busy_time = 0.0
        #: Deepest raw heap (live + dead entries) seen at dispatch time.
        self.max_heap_depth = 0
        #: label -> [count, cumulative wall seconds]
        self.by_callback: Dict[str, list] = {}
        self._started_at: Optional[float] = None
        #: Wall seconds between :meth:`start` and :meth:`stop`.
        self.wall_time = 0.0

    # ------------------------------------------------------------------
    # Hot path (called once per dispatched event by the scheduler)
    # ------------------------------------------------------------------
    def dispatch(
        self, callback: Callable[..., Any], args: tuple, heap_depth: int
    ) -> None:
        """Invoke ``callback(*args)``, timing it and noting heap depth."""
        self.events += 1
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth
        t0 = time.perf_counter()
        callback(*args)
        dt = time.perf_counter() - t0
        self.busy_time += dt
        label = _callback_label(callback)
        cell = self.by_callback.get(label)
        if cell is None:
            self.by_callback[label] = [1, dt]
        else:
            cell[0] += 1
            cell[1] += dt

    # ------------------------------------------------------------------
    # Wall-clock bracketing
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Mark the start of the measured region (idempotent resume)."""
        if self._started_at is None:
            self._started_at = time.perf_counter()

    def stop(self) -> None:
        """Close the measured region, accumulating wall time."""
        if self._started_at is not None:
            self.wall_time += time.perf_counter() - self._started_at
            self._started_at = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, scheduler=None) -> Dict[str, Any]:
        """Metrics as a plain dict (JSON-friendly)."""
        wall = self.wall_time
        if self._started_at is not None:
            wall += time.perf_counter() - self._started_at
        out: Dict[str, Any] = {
            "events": self.events,
            "wall_time_s": wall,
            "busy_time_s": self.busy_time,
            "events_per_sec": self.events / wall if wall > 0 else 0.0,
            "max_heap_depth": self.max_heap_depth,
            "callbacks": {
                label: {"count": cell[0], "wall_s": cell[1]}
                for label, cell in sorted(
                    self.by_callback.items(),
                    key=lambda item: item[1][1],
                    reverse=True,
                )
            },
        }
        if scheduler is not None:
            scheduled = scheduler.scheduled_total
            cancelled = scheduler.cancelled_total
            out["scheduled"] = scheduled
            out["cancelled"] = cancelled
            out["cancel_ratio"] = cancelled / scheduled if scheduled else 0.0
            out["compactions"] = scheduler.compactions
            out["pending"] = scheduler.pending
            out["pending_raw"] = scheduler.pending_raw
        return out

    def format_report(self, scheduler=None, top: int = 12) -> str:
        """Human-readable rendering of :meth:`report`."""
        data = self.report(scheduler)
        lines = [
            "engine perf:",
            f"  events           {data['events']:>12,}",
            f"  wall time        {data['wall_time_s']:>12.3f} s",
            f"  events/sec       {data['events_per_sec']:>12,.0f}",
            f"  callback time    {data['busy_time_s']:>12.3f} s",
            f"  max heap depth   {data['max_heap_depth']:>12,}",
        ]
        if scheduler is not None:
            lines += [
                f"  scheduled        {data['scheduled']:>12,}",
                f"  cancelled        {data['cancelled']:>12,}"
                f"  (ratio {data['cancel_ratio']:.2f})",
                f"  compactions      {data['compactions']:>12,}",
                f"  pending live/raw {data['pending']:>12,}"
                f" / {data['pending_raw']:,}",
            ]
        if data["callbacks"]:
            lines.append("  per-callback wall time:")
            for label, cell in list(data["callbacks"].items())[:top]:
                lines.append(
                    f"    {label:<48} {cell['count']:>10,}  {cell['wall_s']:8.3f} s"
                )
        return "\n".join(lines)
