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
from math import inf
from typing import List, Optional

from ..analysis.timeseries import Sampler, Series
from ..errors import ScenarioError
from ..bitcoin.config import NodeConfig
from ..netmodel import calibration as cal
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


#: Fig. 6 polls the observer once a second, after a warm-up that lets it
#: reach its operating point: the paper's node was a standing node with
#: populated tables, not a first boot, so its trace *oscillates* around
#: 6-7 rather than ramping from zero.
POLL_PERIOD = 1.0
OBSERVER_WARMUP = 600.0
#: Mean lifetime (seconds) of the Fig. 6 observer's outbound links: it
#: sees real-world connection instability, its links dropping on their
#: own (peer evictions, NAT timeouts) and refilling slowly through
#: polluted tables.
OBSERVER_CONNECTION_LIFETIME = 150.0
#: Length of one Fig. 7 restart run (seconds).
SUCCESS_RUN_DURATION = 300.0
#: How long (seconds) §IV-D waits for the restarted node to relay.
RESYNC_MAX_WAIT = 3600.0


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


def run_connection_stability(scenario: ProtocolScenario) -> StabilityResult:
    """Run the Fig. 6 experiment inside a warmed-up scenario."""
    observer = scenario.make_observer_node(
        NodeConfig(
            track_connection_attempts=True,
            connection_lifetime_mean=OBSERVER_CONNECTION_LIFETIME,
        )
    )
    observer.start()
    scenario.sim.run_for(OBSERVER_WARMUP)
    sampler = Sampler(
        scenario.sim,
        # partial over getattr, not a lambda: the probe lands on the
        # periodic task in the event queue and must stay picklable.
        functools.partial(getattr, observer, "outbound_count_with_feelers"),
        period=POLL_PERIOD,
    )
    scenario.sim.run_for(cal.CONN_STABILITY_DURATION)
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
    observer_config: Optional[NodeConfig] = None,
) -> SuccessResult:
    """Run the Fig. 7 experiment: fresh observer per run, count outcomes."""
    results: List[SuccessRun] = []
    for _ in range(runs):
        observer = scenario.make_observer_node(_observer_config(observer_config))
        observer.start()
        scenario.sim.run_for(SUCCESS_RUN_DURATION)
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


def run_resync_experiment(scenario: ProtocolScenario) -> ResyncResult:
    """Restart a synchronized node; time until it relays a block again.

    The paper measured 11 min 14 s, dominated by connection
    re-establishment (slow, because of the polluted tables) and catching
    up on the latest block before having anything to relay.
    """
    candidates = [
        n for n in scenario.running_nodes() if n.chain.height >= scenario.best_height
    ]
    if not candidates:
        raise ScenarioError("no synchronized node available to restart")
    node = candidates[0]
    scenario.measurement_nodes.append(node)
    node.restart()
    clock = scenario.sim.clock
    restart_at = clock.now
    deadline = restart_at + RESYNC_MAX_WAIT

    def relayed_or_late() -> bool:
        first = node.first_relay_at
        return (
            first is not None and first >= restart_at
        ) or clock._now >= deadline

    scenario.sim.scheduler.run_until(inf, until=relayed_or_late)
    first = node.first_relay_at
    if first is not None and first < restart_at:
        first = None
    return ResyncResult(restart_at=restart_at, first_relay_at=first)
