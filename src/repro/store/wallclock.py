"""The store's injectable wall clock.

Run manifests carry ``created_at`` / ``updated_at`` host timestamps as
*provenance metadata* — when did a human run this — never as simulation
input: nothing downstream reads them back into a run, and the run key,
snapshot digests, and result digests deliberately exclude them.  This
module is the single place the store reads the host clock, so tests can
freeze it (:func:`set_wall_clock`) and the lint pass can verify by
inspection that no other store or simulation module touches real time.
"""

from __future__ import annotations

import time as _time
from typing import Callable

# The one sanctioned wall-clock read in the store layer; everything
# else goes through now().
# repro-lint: disable-file=DET002  (provenance boundary: manifests stamp
# human-facing timestamps here, outside all simulation state)
_wall_clock: Callable[[], float] = _time.time


def now() -> float:
    """Host time in seconds, through the injectable clock."""
    return _wall_clock()


def set_wall_clock(clock: Callable[[], float]) -> Callable[[], float]:
    """Replace the clock (tests freeze it); returns the previous one."""
    global _wall_clock
    previous = _wall_clock
    _wall_clock = clock
    return previous
