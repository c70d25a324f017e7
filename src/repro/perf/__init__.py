"""Measurement helpers that sit outside simulation state.

:mod:`repro.perf.memory` reads process RSS and counts live GC-tracked
objects; :mod:`repro.perf.profiler` backs the CLI's ``--profile`` flag
with a cProfile dump and a hotspot table.  Neither touches the event
loop, so a measured run and a bare one dispatch the same events.
"""

from .memory import MemorySample, live_object_count, read_memory
from .profiler import hotspot_rows, profile_to

__all__ = [
    "MemorySample",
    "hotspot_rows",
    "live_object_count",
    "profile_to",
    "read_memory",
]
