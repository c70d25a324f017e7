"""NAT / firewall behaviour of unreachable addresses: the light cloud.

The paper's prober (§III-C) distinguishes unreachable nodes by how they
answer an unsolicited, hand-crafted VER packet:

* **responsive** — the host runs Bitcoin behind NAT; the TCP stack accepts
  and Bitcoin immediately closes, so the probe sees a FIN.  The paper
  validated this with three in-house unreachable nodes.
* **silent** — the host is gone, or a firewall drops unsolicited traffic;
  the probe times out.  (The paper notes this makes the responsive count a
  lower bound.)
* A third behaviour matters for connection *attempts* even though the
  paper does not probe for it: stale addresses whose host is up but no
  longer listens answer with an **RST**, failing attempts quickly rather
  than at the TCP timeout.  The mix of RST vs. silent failures sets the
  pace of the outbound-connection loop (Fig. 7).

That surface — a probe answer, plus the addresses a host gossips — is
all the paper knows of the unreachable population, so the cloud is one
:class:`~repro.bitcoin.light.LightNode` per answering address,
registered with the transport.  An address with no endpoint answers
SILENT, so a plain cloud node that turns silent is stopped and
forgotten; only listening assist nodes (``unreachable-relay``) are kept
through their silent spells.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional

from ..bitcoin.light import DEFAULT_LIGHT_PROFILE, LightNode
from ..bitcoin.policy.base import LightTierPolicy
from ..simnet.addresses import NetAddr
from ..simnet.simulator import Simulator
from ..simnet.transport import ProbeBehavior


class LightCloud:
    """The unreachable cloud: light-tier endpoints and their NAT draws.

    ``mark_*`` install (or retarget) one light node per address.  The
    only RNG draws are in :meth:`mark_silent`, one per silent-class
    address in the order given.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        rst_fraction: float = 0.45,
        light_policy: Optional[LightTierPolicy] = None,
    ) -> None:
        self.sim = sim
        self._rng = rng
        #: Share of *silent-class* addresses that actually answer RST
        #: (host up, port closed) rather than dropping silently.
        self.rst_fraction = rst_fraction
        self.nodes: Dict[NetAddr, LightNode] = {}
        #: Per-address profile override (``unreachable-relay`` assists);
        #: ``None`` — every endpoint runs the shared default profile.
        self.light_policy = light_policy

    def _install(self, addr: NetAddr, behavior: ProbeBehavior) -> None:
        node = self.nodes.get(addr)
        if node is not None:
            if behavior is ProbeBehavior.SILENT and not node.profile.listen:
                node.stop()
                del self.nodes[addr]
            else:
                node.apply_behavior(behavior)
            return
        profile = DEFAULT_LIGHT_PROFILE
        if self.light_policy is not None:
            profile = self.light_policy.profile_for(addr) or profile
        if behavior is ProbeBehavior.SILENT and not profile.listen:
            return
        node = LightNode(self.sim, addr, behavior=behavior, profile=profile)
        node.start()
        self.nodes[addr] = node
        if profile.listen:
            # Sync the transport's listen state with the initial churn
            # class (start() listens unconditionally).
            node.apply_behavior(behavior)

    def mark_responsive(self, addrs: Iterable[NetAddr]) -> None:
        """Register addresses as responsive unreachable nodes (FIN)."""
        for addr in addrs:
            self._install(addr, ProbeBehavior.FIN)

    def mark_silent(self, addrs: Iterable[NetAddr]) -> None:
        """Register non-responsive addresses (RST or silent drop)."""
        for addr in addrs:
            if self._rng.random() < self.rst_fraction:
                self._install(addr, ProbeBehavior.RST)
            else:
                self._install(addr, ProbeBehavior.SILENT)

    def mark_offline(self, addr: NetAddr) -> None:
        """An address whose host departed entirely: silent from now on."""
        self._install(addr, ProbeBehavior.SILENT)

    def __len__(self) -> int:
        return len(self.nodes)
