"""Algorithm 2: detecting responsive unreachable nodes with VER probes.

The paper crafted raw Bitcoin VER packets in Scapy and fired 250 in
parallel at every harvested unreachable address; hosts that answered with
FIN are *responsive* — unreachable, but verifiably running Bitcoin.  The
paper validated the heuristic against three in-house unreachable nodes
and notes it yields a lower bound (firewalled nodes stay silent).

Here the probe uses the transport's raw-probe facility; the NAT model
answers per the ground-truth class, including the firewalled silent case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set

from ..errors import ScenarioError
from ..simnet.addresses import NetAddr
from ..simnet.simulator import Simulator, canonical_sets
from ..simnet.transport import ProbeResult


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


class VerProber:
    """Fires VER probes at a target list with bounded concurrency."""

    def __init__(
        self,
        sim: Simulator,
        addr: NetAddr,
        config: Optional[ProbeConfig] = None,
    ) -> None:
        self.sim = sim
        self.addr = addr
        self.config = config if config is not None else ProbeConfig()
        self.config.validate()
        self._pending: List[NetAddr] = []
        self._in_flight = 0
        self._result: Optional[ProbeCampaignResult] = None
        self._buckets: Dict[ProbeResult, set] = {}
        self._on_done: Optional[Callable[[ProbeCampaignResult], None]] = None
        self.done = False
        #: True when the last :meth:`run_to_completion` hit its deadline
        #: with probes still outstanding (the classification is partial).
        self.aborted = False

    def probe_all(
        self,
        targets: Iterable[NetAddr],
        on_done: Optional[Callable[[ProbeCampaignResult], None]] = None,
    ) -> ProbeCampaignResult:
        """Start the campaign; the result fills in as the sim runs."""
        if self._result is not None and not self.done:
            raise ScenarioError("a probe campaign is already in progress")
        self.done = False
        self.aborted = False
        self._result = ProbeCampaignResult()
        self._bind_buckets()
        self._on_done = on_done
        self._pending = list(targets)
        self._in_flight = 0
        self._fill()
        self._check_done()
        return self._result

    def _bind_buckets(self) -> None:
        """Outcome -> result bucket, built once per campaign; _probed runs
        once per probe and must not rebuild this mapping every time."""
        result = self._result
        self._buckets = {
            ProbeResult.FIN: result.responsive,
            ProbeResult.SILENT: result.silent,
            ProbeResult.RST: result.rst,
            ProbeResult.BITCOIN: result.bitcoin,
        }

    def __getstate__(self) -> dict:
        # _buckets aliases the result's sets, which pickle as tuples and
        # come back as new sets: re-derive it rather than persist it.
        state = dict(self.__dict__)
        del state["_buckets"]
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)  # interns names: see canonical_sets
        self._buckets = {}
        if self._result is not None:
            self._bind_buckets()

    def run_to_completion(
        self, targets: Iterable[NetAddr], max_seconds: float = 7200.0
    ) -> ProbeCampaignResult:
        """Probe ``targets``, driving the simulator until finished."""
        result = self.probe_all(targets)
        deadline = self.sim.now + max_seconds
        while not self.done and self.sim.now < deadline:
            if not self.sim.step():
                break
        self.aborted = not self.done
        self.done = True
        return result

    def _fill(self) -> None:
        while self._pending and self._in_flight < self.config.concurrency:
            target = self._pending.pop()
            self._in_flight += 1
            self.sim.network.probe(
                self.addr,
                target,
                # partial, not a lambda: pending probes must survive
                # checkpoint pickling (Simulator.snapshot()).
                on_result=partial(self._probed, target),
                timeout=self.config.timeout,
            )

    def _probed(self, target: NetAddr, outcome: ProbeResult) -> None:
        self._buckets[outcome].add(target)
        self._in_flight -= 1
        self._fill()
        self._check_done()

    def _check_done(self) -> None:
        if not self.done and self._in_flight == 0 and not self._pending:
            self.done = True
            if self._on_done is not None:
                self._on_done(self._result)
