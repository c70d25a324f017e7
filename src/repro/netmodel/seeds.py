"""Address oracles: the simulated Bitnodes monitor and DNS seeder database.

The paper's address crawler (§III-A, Fig. 2) merges two sources:

* **Bitnodes** — a public crawler whose per-snapshot view averaged 10,114
  addresses (of which the measurement node could connect to ~7,900);
* **Luke Dashjr's DNS seeder database** — 6,637 addresses per snapshot,
  6,078 shared with Bitnodes, and crucially ~404 *reachable nodes Bitnodes
  missed* (Fig. 3d), which is why the paper uses both.

Both views are imperfect: they contain recently-departed (stale) addresses
and miss some alive nodes.  The coverage constants below are that model,
calibrated so the Fig. 3 counts come out at scale 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set

from ..simnet.addresses import NetAddr
from ..simnet.rand import sample
from ..simnet.simulator import canonical_sets
from ..units import DAYS
from .churn import PresenceTimeline


#: Probability an alive reachable node appears in the Bitnodes view.
BITNODES_ALIVE_COVERAGE = 0.78
#: Probability a recently-departed node lingers in the Bitnodes view.
BITNODES_STALE_COVERAGE = 0.50
#: How long a departed address can linger in a view (seconds).
STALE_WINDOW = 7 * DAYS
#: Probability a Bitnodes-listed address is also in the DNS database.
DNS_GIVEN_BITNODES = 0.58
#: Probability an alive node *missed* by Bitnodes is in the DNS
#: database (the Fig. 3d "skipped by Bitnodes" population).
DNS_ALIVE_EXTRA = 0.20
#: Probability a departed address missed by Bitnodes is in DNS.
DNS_STALE_EXTRA = 0.10


@dataclass
class AddressViews:
    """One snapshot's worth of source views (inputs to the crawler)."""

    when: float
    bitnodes: Set[NetAddr]
    dns: Set[NetAddr]
    #: Ground truth: which reachable addresses are actually online now.
    alive: Set[NetAddr]

    @property
    def common(self) -> Set[NetAddr]:
        return self.bitnodes & self.dns

    @property
    def union(self) -> Set[NetAddr]:
        return self.bitnodes | self.dns


class AddressOracles:
    """Generates Bitnodes/DNS views of the reachable population over time.

    The views cover the addresses ``timeline`` schedules, in its order:
    an address it never schedules is neither alive nor stale at any
    time, so it could never enter a view.  The oracles keep no list of
    their own, so a state blob carries no second copy of the reachable
    addresses.
    """

    def __init__(self, rng: random.Random, timeline: PresenceTimeline) -> None:
        self._rng = rng
        self._timeline = timeline
        #: Per-node sticky (bitnodes, dns) membership draws.
        self._propensity: dict = {}

    def _node_propensity(self, addr: NetAddr) -> tuple:
        """Sticky per-node source membership.

        Whether a node is tracked by Bitnodes (and listed by the DNS
        seeder) is a property of the *node* — stable nodes are reliably
        listed snapshot after snapshot — not an independent per-snapshot
        coin flip.  Without stickiness the always-on statistic (paper:
        3,034 nodes present in every one of ~60 experiments) is
        unreproducible: independent 95% coverage would keep only
        ``0.95**60 ≈ 5%`` of genuinely always-on nodes.
        """
        draws = self._propensity.get(addr)
        if draws is None:
            draws = (self._rng.random(), self._rng.random())
            self._propensity[addr] = draws
        return draws

    def _alive_and_stale(self, when: float) -> tuple:
        alive: List[NetAddr] = []
        stale: List[NetAddr] = []
        for addr in self._timeline.addresses():
            if self._timeline.alive_at(addr, when):
                alive.append(addr)
                continue
            # Departed within the stale window?
            for start, end in self._timeline.intervals(addr):
                if end <= when and when - end <= STALE_WINDOW:
                    stale.append(addr)
                    break
        return alive, stale

    def snapshot(self, when: float) -> AddressViews:
        """The Bitnodes and DNS views at campaign time ``when``.

        Source membership is sticky per node (see
        :meth:`_node_propensity`); only the *lingering* of departed
        addresses is re-drawn per snapshot, since stale entries age out of
        the real sources over time.
        """
        rng = self._rng
        alive, stale = self._alive_and_stale(when)
        bitnodes: Set[NetAddr] = set()
        dns: Set[NetAddr] = set()
        for addr in alive:
            u_bitnodes, u_dns = self._node_propensity(addr)
            if u_bitnodes < BITNODES_ALIVE_COVERAGE:
                bitnodes.add(addr)
                if u_dns < DNS_GIVEN_BITNODES:
                    dns.add(addr)
            elif u_dns < DNS_ALIVE_EXTRA:
                dns.add(addr)
        for addr in stale:
            u_bitnodes, u_dns = self._node_propensity(addr)
            lingers = rng.random() < BITNODES_STALE_COVERAGE
            if u_bitnodes < BITNODES_ALIVE_COVERAGE and lingers:
                bitnodes.add(addr)
                if u_dns < DNS_GIVEN_BITNODES:
                    dns.add(addr)
            elif u_dns < DNS_STALE_EXTRA and lingers:
                dns.add(addr)
        return AddressViews(
            when=when, bitnodes=bitnodes, dns=dns, alive=set(alive)
        )


@canonical_sets("_known_set")
class DnsSeeder:
    """The bootstrap oracle a joining node queries (chainparams seeds).

    In protocol-fidelity scenarios this wraps the live node registry; a
    joining node receives a random sample of currently reachable
    addresses, as the nine hard-coded seeders provide in reality.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._known: List[NetAddr] = []
        self._known_set: Set[NetAddr] = set()

    def register(self, addr: NetAddr) -> None:
        """A reachable node became known to the seeder."""
        if addr not in self._known_set:
            self._known_set.add(addr)
            self._known.append(addr)

    def query(self, count: int = 256) -> List[NetAddr]:
        """A DNS response: up to ``count`` known reachable addresses."""
        count = min(count, len(self._known))
        return sample(self._rng, self._known, count)

    def __len__(self) -> int:
        return len(self._known)
