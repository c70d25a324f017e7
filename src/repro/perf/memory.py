"""Process-memory probes for paper-scale runs.

Scale experiments live or die on resident memory.  This module gives
the engine a cheap way to measure it — current and peak RSS read
from ``/proc/self/status`` (with a ``resource.getrusage`` fallback off
Linux) and a live-object census from the garbage collector.

The probes read *measurement* state, not simulation state: nothing in
a snapshot refers to them and they never influence event order.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Optional

__all__ = ["MemorySample", "live_object_count", "read_memory"]

_PROC_STATUS = "/proc/self/status"


def _trim_heap() -> None:
    """Ask glibc to return freed heap pages to the kernel.

    ``gc.collect()`` alone does not move ``VmRSS``: the allocator keeps
    the freed pages, so an end-of-run reading still sits at the
    high-water mark.  ``malloc_trim`` releases them, making ``VmRSS``
    reflect what the live object graph actually retains.  Best-effort:
    silently a no-op off glibc.
    """
    try:
        import ctypes

        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


@dataclass(frozen=True, slots=True)
class MemorySample:
    """One reading of the process's memory state."""

    #: Resident set size in bytes right now (None when unreadable).
    rss_bytes: Optional[int]
    #: Peak resident set size in bytes over the process lifetime.
    peak_rss_bytes: Optional[int]
    #: Objects tracked by the garbage collector (container objects; a
    #: good relative gauge of simulation-object growth between runs).
    live_objects: int


def _read_proc_status() -> tuple:
    """(VmRSS, VmHWM) in bytes from /proc, or (None, None)."""
    rss = peak = None
    try:
        with open(_PROC_STATUS, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1]) * 1024
                elif line.startswith("VmHWM:"):
                    peak = int(line.split()[1]) * 1024
                if rss is not None and peak is not None:
                    break
    except OSError:
        return None, None
    return rss, peak


def _rusage_peak() -> Optional[int]:
    """Peak RSS from getrusage (kB on Linux, bytes on macOS)."""
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    return peak if sys.platform == "darwin" else peak * 1024


def live_object_count() -> int:
    """Number of gc-tracked objects currently alive."""
    return len(gc.get_objects())


def read_memory(collect: bool = False) -> MemorySample:
    """Sample the process's memory state.

    ``collect=True`` runs ``gc.collect()`` and a heap trim before
    reading, so ``rss_bytes`` measures *retained* memory — what the
    run's object graph actually holds — rather than whatever garbage
    happened to be pending.  Without this an end-of-run reading lands
    exactly at the high-water mark and ``rss_bytes`` just duplicates
    ``peak_rss_bytes``; with it the two answer different questions
    (steady-state footprint vs transient peak).  The collection only
    affects measurement state, never event order.
    """
    if collect:
        gc.collect()
        _trim_heap()
    rss, peak = _read_proc_status()
    if peak is None:
        peak = _rusage_peak()
    return MemorySample(
        rss_bytes=rss,
        peak_rss_bytes=peak,
        live_objects=live_object_count(),
    )
