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
from typing import Dict, Iterable

from ..bitcoin.addrman import _mix64
from ..bitcoin.light import DEFAULT_LIGHT_PROFILE, LightNode, LightNodeProfile
from ..simnet.addresses import NetAddr
from ..simnet.simulator import Simulator
from ..simnet.transport import ProbeBehavior

#: The ``unreachable-relay`` assist profile, shared by every assist
#: endpoint (frozen, one instance — pickling dedupes it across the cloud).
ASSIST_LIGHT_PROFILE = LightNodeProfile(listen=True, relay_txs=True)

#: Salt keeping assist membership independent of the /16-netgroup and
#: addrman bucket hashes that also mix the raw IP.
_ASSIST_SALT = 0x9E3779B97F4A7C15


class LightCloud:
    """The unreachable cloud: light-tier endpoints and their NAT draws.

    ``mark_*`` install (or retarget) one light node per address.  The
    only RNG draws are in :meth:`mark_silent`, one per silent-class
    address in the order given.

    ``assist_fraction`` (Franzoni & Daza's ``unreachable-relay``) turns
    a slice of the cloud into transaction-relay assists: the endpoint
    listens, completes the handshake and relays transactions between
    its sessions, still a light-tier object.  Membership hashes the
    address (no RNG draws), so it is stable across lazy
    materialization, churn and snapshot/restore.  Real assists relay
    over their own *outbound* links; the light tier has none, so assists
    accept the dials full nodes make to gossiped unreachable addresses —
    the same extra edge, with the SYN the other way.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        rst_fraction: float = 0.45,
        assist_fraction: float = 0.0,
    ) -> None:
        self.sim = sim
        self._rng = rng
        #: Share of *silent-class* addresses that actually answer RST
        #: (host up, port closed) rather than dropping silently.
        self.rst_fraction = rst_fraction
        self.nodes: Dict[NetAddr, LightNode] = {}
        #: ``_mix64`` spreads uniformly over 64 bits, so a salted address
        #: hash below ``fraction * 2**64`` selects the assist slice.
        self._assist_below = int(assist_fraction * 2**64)

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
        below = self._assist_below
        if below and _mix64(addr.ip ^ _ASSIST_SALT) < below:
            profile = ASSIST_LIGHT_PROFILE
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
