"""Algorithm 2: detecting responsive unreachable nodes with VER probes.

The paper crafted raw Bitcoin VER packets in Scapy and fired 250 in
parallel at every harvested unreachable address; hosts that answered with
FIN are *responsive* — unreachable, but verifiably running Bitcoin.  The
paper validated the heuristic against three in-house unreachable nodes
and notes it yields a lower bound (firewalled nodes stay silent).

Here the probe uses the transport's raw-probe facility; the NAT model
answers per the ground-truth class, including the firewalled silent case.
The pass itself is :class:`~repro.core.bounded_pass.BoundedPass`; this
module classifies outcomes, and ignores one that lands after an abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Set

from ..errors import ScenarioError
from ..simnet.addresses import NetAddr
from ..simnet.simulator import canonical_sets
from ..simnet.transport import ProbeResult
from .bounded_pass import BoundedPass


@dataclass
class ProbeConfig:
    """Prober parameters (the paper used 250 parallel requests)."""

    concurrency: int = 250
    timeout: float = 5.0

    def validate(self) -> None:
        if self.concurrency < 1:
            raise ScenarioError("concurrency must be >= 1")
        if self.timeout <= 0:
            raise ScenarioError("timeout must be positive")


@canonical_sets("responsive", "silent", "rst", "bitcoin")
@dataclass
class ProbeCampaignResult:
    """Classification of every probed address."""

    responsive: Set[NetAddr] = field(default_factory=set)
    silent: Set[NetAddr] = field(default_factory=set)
    rst: Set[NetAddr] = field(default_factory=set)
    #: Addresses that answered like full Bitcoin listeners (reachable
    #: nodes that slipped through the filtering).
    bitcoin: Set[NetAddr] = field(default_factory=set)

    @property
    def probed(self) -> int:
        return (
            len(self.responsive)
            + len(self.silent)
            + len(self.rst)
            + len(self.bitcoin)
        )

    @property
    def responsive_share(self) -> float:
        return len(self.responsive) / self.probed if self.probed else 0.0


#: The result set each probe outcome lands in.
OUTCOME_SET: Dict[ProbeResult, str] = {
    ProbeResult.FIN: "responsive",
    ProbeResult.SILENT: "silent",
    ProbeResult.RST: "rst",
    ProbeResult.BITCOIN: "bitcoin",
}


class VerProber(BoundedPass):
    """Fires VER probes at a target list with bounded concurrency."""

    config_type = ProbeConfig

    def probe_all(self, targets: Iterable[NetAddr]) -> ProbeCampaignResult:
        """Start the campaign; the result fills in as the sim runs."""
        return self._start(targets, ProbeCampaignResult())

    def run_to_completion(
        self, targets: Iterable[NetAddr], max_seconds: float = 7200.0
    ) -> ProbeCampaignResult:
        """Probe ``targets``, driving the simulator until finished."""
        self.probe_all(targets)
        return self._drive(max_seconds)

    def _launch(self, target: NetAddr) -> None:
        self.sim.network.probe(
            self.addr,
            target,
            # partial, not a lambda: pending probes must survive
            # checkpoint pickling (Simulator.snapshot()).
            on_result=partial(self._probed, target),
            timeout=self.config.timeout,
        )

    def _probed(self, target: NetAddr, outcome: ProbeResult) -> None:
        if not self.aborted:
            getattr(self._result, OUTCOME_SET[outcome]).add(target)
        self._finished()
