"""Time and size units used throughout the library.

Simulated time is a ``float`` number of seconds since the start of the
simulation.  These constants keep magic numbers out of the protocol and
scenario code and make durations self-describing at call sites, e.g.
``sim.schedule(2 * MINUTES, node.try_feeler)``.
"""

from __future__ import annotations

#: One second of simulated time (the base unit).
SECONDS: float = 1.0

#: Seconds in one minute.
MINUTES: float = 60.0

#: Seconds in one hour.
HOURS: float = 3600.0

#: Seconds in one day.
DAYS: float = 86400.0

#: Bytes in one megabyte (binary, as used for link bandwidth).
MiB: int = 1024 * 1024


def format_duration(seconds: float) -> str:
    """Render a duration in seconds as a compact human-readable string.

    >>> format_duration(674)
    '11m 14s'
    >>> format_duration(17)
    '17s'
    >>> format_duration(3 * DAYS + 4 * HOURS)
    '3d 4h'
    """
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    seconds = int(round(seconds))
    if seconds < MINUTES:
        return f"{seconds}s"
    if seconds < HOURS:
        minutes, secs = divmod(seconds, 60)
        return f"{minutes}m {secs}s" if secs else f"{minutes}m"
    if seconds < DAYS:
        hours, rem = divmod(seconds, 3600)
        minutes = rem // 60
        return f"{hours}h {minutes}m" if minutes else f"{hours}h"
    days, rem = divmod(seconds, int(DAYS))
    hours = rem // 3600
    return f"{days}d {hours}h" if hours else f"{days}d"
