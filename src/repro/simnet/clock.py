"""Simulated wall clock.

The clock is advanced only by the event scheduler; user code reads it via
:attr:`SimClock.now`.  Keeping the clock separate from the scheduler lets
protocol code depend on "what time is it" without being able to advance
time on its own.
"""

from __future__ import annotations

from ..errors import ClockError


class SimClock:
    """Monotonically non-decreasing simulated time, in seconds."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises :class:`ClockError` if ``when`` lies in the past; the
        discrete-event loop must never re-order time.
        """
        if when < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now} to {when}"
            )
        self._now = when

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f})"
