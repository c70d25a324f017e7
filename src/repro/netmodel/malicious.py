"""Malicious ADDR-flooding peers (§IV-B).

The paper detected 73 reachable nodes whose every ADDR response contained
*only unreachable* addresses — no self-advertisement, no reachable peers —
with per-node flood volumes up to >400K addresses, 8 nodes above 100K, and
59% of the flooders clustered in AS3320.

:class:`MaliciousAddrServer` is the longitudinal-mode flooder — a
GETADDR responder backed by a finite pool of fabricated unreachable
addresses, planted by :func:`plant_flooders`.  Its protocol-mode
counterpart, a full node that also pushes unsolicited ADDR floods, is
:class:`repro.adversary.behaviors.AddrFlooderNode`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..simnet.addresses import NetAddr, TimestampedAddr, stamp
from ..simnet.rand import sample
from ..simnet.simulator import Simulator
from . import calibration as cal
from .addr_server import AddrServer
from .population import Population


@dataclass
class FloodVolumeModel:
    """Log-normal *unique* fabricated-pool sizes per flooder.

    The Fig. 8 volumes (up to >400K "sent") count ADDR records across
    repeated requests and snapshots; the unique pools behind them are far
    smaller — they must be, since the campaign's whole unique unreachable
    set is 694K.  These defaults put the 73 pools' total at roughly a
    quarter of the cumulative unreachable population, with a heavy tail.
    """

    median: float = 1_500.0
    sigma: float = 1.0
    floor: int = 200

    def sample(self, rng: random.Random, scale: float = 1.0) -> int:
        draw = rng.lognormvariate(math.log(self.median), self.sigma)
        # The absolute floor of 30 keeps tiny-scale flooders detectable
        # (a pool must at least exceed one ADDR response's worth of
        # scaled detection threshold).
        return max(30, int(self.floor * scale), int(draw * scale))


class MaliciousAddrServer(AddrServer):
    """A flooder for crawl campaigns: serves only fabricated addresses.

    Violates both halves of the detection heuristic: it never includes its
    own (reachable) address, and its table holds no reachable address at
    all.  The pool is finite — once a crawler has harvested it, responses
    repeat, which is what terminates Algorithm 1.
    """

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        rng: random.Random,
        population: Population,
        flood_volume: int,
        **kwargs,
    ) -> None:
        super().__init__(sim, addr, rng, table=None, **kwargs)
        self.population = population
        self.flood_volume = flood_volume

    def set_table(self, table) -> None:  # noqa: D102 - keep the flood pool
        # Neither a snapshot refresh nor a stop may replace a flooder's pool.
        return

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            # setattr interns names as pickle's BUILD does; __dict__.update
            # would not (see simulator.canonical_sets).
            setattr(self, name, value)
        # A campaign checkpointed when pools held bare addresses resumes
        # under the same run key (CHECKPOINT_FORMAT did not move): give
        # its pool records.  The mint times are gone; nothing reads them.
        if self.table and not isinstance(self.table[0], TimestampedAddr):
            self.table = stamp(self.table, 0.0)

    def _sample_response(self) -> List[TimestampedAddr]:
        # The paper's flooders kept producing *fresh* unreachable
        # addresses (one sent >400K); mint lazily up to the flood volume,
        # serving the freshly minted batch first, then random repeats.
        # An address is stamped once, when minted, and relayed as stored.
        table = self.table
        shortfall = max(
            0, min(self.response_max, self.flood_volume - len(table))
        )
        fresh = stamp(
            (self.population.mint_fake_address().addr for _ in range(shortfall)),
            self.sim.now,
        )
        # The filler comes from the pool as it stood before this batch.
        filler = sample(
            self._rng, table, min(self.response_max - shortfall, len(table))
        )
        table.extend(fresh)
        # No self-advertisement — the tell the detector keys on.
        return fresh + filler


def plant_flooders(
    sim: Simulator,
    rng: random.Random,
    population: Population,
    scale: float,
    volume_model: Optional[FloodVolumeModel] = None,
    count: Optional[int] = None,
) -> List[MaliciousAddrServer]:
    """Create the scaled Fig. 8 flooder cohort as crawl-mode servers.

    59% are placed in AS3320 (the paper's observed clustering); the rest
    follow the reachable hosting distribution.
    """
    volume_model = volume_model or FloodVolumeModel()
    n_flooders = count if count is not None else max(
        1, round(cal.MALICIOUS_NODE_COUNT * scale)
    )
    flooders: List[MaliciousAddrServer] = []
    for index in range(n_flooders):
        if rng.random() < cal.MALICIOUS_AS3320_SHARE:
            asn = cal.MALICIOUS_AS3320
        else:
            asn = population.universe.sample_asn("reachable", rng)
        addr = population.universe.allocate_address(asn)
        volume = volume_model.sample(rng, scale=scale)
        flooders.append(
            MaliciousAddrServer(
                sim, addr, rng, population=population, flood_volume=volume
            )
        )
    return flooders
