"""Malicious ADDR-flooding peers (§IV-B).

The paper detected 73 reachable nodes whose every ADDR response contained
*only unreachable* addresses — no self-advertisement, no reachable peers —
with per-node flood volumes up to >400K addresses, 8 nodes above 100K, and
59% of the flooders clustered in AS3320.

That cohort is a value, :func:`paper_flooders`: an
:class:`~repro.adversary.plan.AttackPlan` of reachable ``addr_flooder``
specs, rescaled to any size.  A crawl campaign plants it (or any other
flooder plan) as :class:`MaliciousAddrServer` GETADDR responders backed
by a finite pool of fabricated unreachable addresses, each pool drawn
from the one :class:`FloodVolumeModel` unless the spec fixes it.  The
protocol-mode flooders, full nodes that also push unsolicited ADDR
floods, live in :mod:`repro.adversary.behaviors`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from ..adversary.plan import KIND_ADDR_FLOODER, AttackerSpec, AttackPlan
from ..faults.plan import FaultScope
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


def paper_flooders(count: int) -> AttackPlan:
    """The paper's Fig. 8 cohort rescaled to ``count`` reachable flooders.

    Of the 73, ``round(0.59 * 73)`` = 43 sit in AS3320 (the paper's
    observed clustering) and 30 follow the reachable hosting
    distribution; :meth:`AttackPlan.with_total` keeps that split at any
    ``count`` (1 -> one AS3320 flooder, 0 -> the empty plan).  Every pool
    is a :class:`FloodVolumeModel` draw.
    """
    clustered = round(cal.MALICIOUS_AS3320_SHARE * cal.MALICIOUS_NODE_COUNT)
    return AttackPlan(
        attackers=(
            AttackerSpec(
                kind=KIND_ADDR_FLOODER,
                count=clustered,
                scope=FaultScope(asns=(cal.MALICIOUS_AS3320,)),
                tier="reachable",
            ),
            AttackerSpec(
                kind=KIND_ADDR_FLOODER,
                count=cal.MALICIOUS_NODE_COUNT - clustered,
                tier="reachable",
            ),
        )
    ).with_total(count)
