"""The §IV-B connection experiments (Figs. 6-7) and the §IV-D resync test.

Three experiments, each dropping a freshly configured observer node into
a warmed-up protocol world (:func:`warm_world`) whose address plane
carries the measured 15/85 reachable/unreachable mixture:

* **Stability** (Fig. 6) — poll the observer's outgoing-connection count
  (feelers included, as the RPC the paper used reports them) once per
  second for 260 seconds.  Paper: oscillates 2-10, mean 6.67, below 8 for
  ~60% of the time.
* **Success rate** (Fig. 7) — five fresh 300-second runs counting outbound
  attempts vs successes.  Paper: 11.2% average, worst run 8/137.
* **Resync** (§IV-D) — stop a synchronized node, restart it, and measure
  the time until it relays a block to a connection again.  Paper: 11 min
  14 s.

The node each one measures joins the world's ``measurement_nodes``,
which churn never picks: the paper's measurement nodes did not depart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional

from ..analysis.timeseries import Sampler, Series
from ..errors import ScenarioError
from ..bitcoin.config import NodeConfig
from ..bitcoin.node import BitcoinNode
from ..netmodel.scenario import ProtocolConfig, ProtocolScenario


def warm_world(seed: int, n_reachable: int = 60) -> ProtocolScenario:
    """A warmed live network for one experiment.  Figs. 6 and 7 and the
    resync measurement each build their own, so none measures the world
    another one advanced."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            n_reachable=n_reachable,
            seed=seed,
            block_interval=600.0,
            # Light live churn: standing nodes occasionally depart, so an
            # observer's connections drop and refill as in Fig. 6.
            churn_per_10min=3.0,
        )
    )
    scenario.start(warmup=1200.0)
    return scenario


def _observer_config(base: Optional[NodeConfig] = None) -> NodeConfig:
    config = base if base is not None else NodeConfig()
    config.track_connection_attempts = True
    return config


@dataclass
class StabilityResult:
    """Fig. 6: the outgoing-connection time series of one observer."""

    series: Series
    mean_connections: float
    fraction_below_8: float
    min_connections: int
    max_connections: int


def run_connection_stability(
    scenario: ProtocolScenario,
    duration: float = 260.0,
    poll_period: float = 1.0,
    observer_config: Optional[NodeConfig] = None,
    observer_warmup: float = 600.0,
) -> StabilityResult:
    """Run the Fig. 6 experiment inside a warmed-up scenario.

    ``observer_warmup`` lets the observer reach its operating point before
    polling starts — the paper's node was a standing node with populated
    tables, not a first boot; its Fig. 6 trace *oscillates* around 6-7
    rather than ramping from zero.
    """
    observer = scenario.make_observer_node(_observer_config(observer_config))
    observer.start()
    if observer_warmup > 0:
        scenario.sim.run_for(observer_warmup)
    sampler = Sampler(
        scenario.sim,
        # partial over getattr, not a lambda: the probe lands on the
        # periodic task in the event queue and must stay picklable.
        functools.partial(getattr, observer, "outbound_count_with_feelers"),
        period=poll_period,
        start_delay=poll_period,
    )
    scenario.sim.run_for(duration)
    sampler.stop()
    observer.stop()
    series = sampler.series
    if not series.values:
        raise ScenarioError("stability experiment produced no samples")
    return StabilityResult(
        series=series,
        mean_connections=series.mean(),
        fraction_below_8=series.fraction_where(lambda v: v < 8),
        min_connections=int(min(series.values)),
        max_connections=int(max(series.values)),
    )


@dataclass
class SuccessRun:
    """One Fig. 7 run: totals for a fresh observer."""

    attempts: int
    successes: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0


@dataclass
class SuccessResult:
    """Fig. 7: five (by default) restart runs."""

    runs: List[SuccessRun]

    @property
    def overall_rate(self) -> float:
        attempts = sum(run.attempts for run in self.runs)
        successes = sum(run.successes for run in self.runs)
        return successes / attempts if attempts else 0.0

    @property
    def worst_run(self) -> SuccessRun:
        return min(self.runs, key=lambda run: run.success_rate)


def run_connection_success(
    scenario: ProtocolScenario,
    runs: int = 5,
    duration: float = 300.0,
    observer_config: Optional[NodeConfig] = None,
) -> SuccessResult:
    """Run the Fig. 7 experiment: fresh observer per run, count outcomes."""
    results: List[SuccessRun] = []
    for _ in range(runs):
        observer = scenario.make_observer_node(_observer_config(observer_config))
        observer.start()
        scenario.sim.run_for(duration)
        observer.stop()
        attempts = [
            a for a in observer.attempt_log if not a.outcome.startswith("feeler")
        ]
        results.append(
            SuccessRun(
                attempts=len(attempts),
                successes=sum(1 for a in attempts if a.succeeded),
            )
        )
    return SuccessResult(runs=results)


@dataclass
class ResyncResult:
    """§IV-D: restart-to-relay time of a synchronized node."""

    restart_at: float
    first_relay_at: Optional[float]

    @property
    def resync_seconds(self) -> Optional[float]:
        if self.first_relay_at is None:
            return None
        return self.first_relay_at - self.restart_at


def run_resync_experiment(
    scenario: ProtocolScenario,
    node: Optional[BitcoinNode] = None,
    max_wait: float = 3600.0,
) -> ResyncResult:
    """Restart a synchronized node; time until it relays a block again.

    The paper measured 11 min 14 s, dominated by connection
    re-establishment (slow, because of the polluted tables) and catching
    up on the latest block before having anything to relay.
    """
    if node is None:
        candidates = [
            n
            for n in scenario.running_nodes()
            if n.chain.height >= scenario.best_height
        ]
        if not candidates:
            raise ScenarioError("no synchronized node available to restart")
        node = candidates[0]
    scenario.measurement_nodes.append(node)
    node.restart()
    restart_at = scenario.sim.now
    deadline = restart_at + max_wait
    while scenario.sim.now < deadline:
        if (
            node.first_relay_at is not None
            and node.first_relay_at >= restart_at
        ):
            break
        if not scenario.sim.step():
            break
    first = node.first_relay_at
    if first is not None and first < restart_at:
        first = None
    return ResyncResult(restart_at=restart_at, first_relay_at=first)
