"""Block-propagation measurement across the reachable network.

Decker & Wattenhofer (the paper's [5]) measured how long a block takes to
reach a given share of reachable nodes (90% within 12 s in 2013); the
paper's Fig. 1 variance and its §IV-B outdegree argument are both about
this curve stretching.  :class:`PropagationTracker` hooks every node's
tip-advance callback and records, per block, the arrival time at each
node — yielding percentile curves and per-block coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from ..bitcoin.blockchain import Block
from ..bitcoin.node import BitcoinNode
from ..netmodel.scenario import ProtocolScenario
from ..simnet.simulator import canonical_sets

#: A block's delay is its time to reach this percent of the running
#: nodes, counted over the blocks that reached at least
#: ``MIN_COVERAGE`` of them.
DELAY_PERCENTILE = 90.0
MIN_COVERAGE = 0.85


@dataclass
class BlockPropagation:
    """Arrival times of one block across the network."""

    block_id: int
    created_at: float
    #: node address → arrival (tip-advance) time.
    arrivals: Dict = field(default_factory=dict)

    def delay_percentile(self, population: int, percentile: float) -> Optional[float]:
        """Time until ``percentile`` of ``population`` nodes had the block."""
        if not self.arrivals or population <= 0:
            return None
        needed = math.ceil(population * percentile / 100.0)
        if len(self.arrivals) < needed:
            return None  # the block never reached that share
        delays = sorted(t - self.created_at for t in self.arrivals.values())
        return delays[needed - 1]

    def coverage(self, population: int) -> float:
        """Share of the population that ever received the block."""
        return len(self.arrivals) / population if population else 0.0


@canonical_sets("_attached")
class PropagationTracker:
    """Records per-block arrival times across a protocol scenario.

    Chains onto each node's ``on_tip_advanced`` hook (preserving any
    existing callback) and keeps following nodes added later (churn
    replacements) via :meth:`attach_new_nodes`.
    """

    def __init__(self, scenario: ProtocolScenario) -> None:
        self.scenario = scenario
        self.blocks: Dict[int, BlockPropagation] = {}
        self._attached: set = set()
        self.attach_new_nodes()

    def attach_new_nodes(self) -> int:
        """Hook any nodes not yet instrumented.  Returns # attached."""
        count = 0
        for node in self.scenario.nodes:
            if node.addr in self._attached:
                continue
            self._attached.add(node.addr)
            self._hook(node)
            count += 1
        return count

    def _hook(self, node: BitcoinNode) -> None:
        # partial, not a closure: a tracked world must survive
        # checkpoint pickling (Simulator.snapshot()).
        node.on_tip_advanced = partial(self._on_advance, node.on_tip_advanced)

    def _on_advance(
        self, previous: Optional[Callable], node: BitcoinNode, block: Block
    ) -> None:
        self._record(node, block)
        if previous is not None:
            previous(node, block)

    def _record(self, node: BitcoinNode, block: Block) -> None:
        record = self.blocks.get(block.block_id)
        if record is None:
            record = BlockPropagation(
                block_id=block.block_id, created_at=self.scenario.sim.now
            )
            self.blocks[block.block_id] = record
        record.arrivals.setdefault(node.addr, self.scenario.sim.now)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def completed_blocks(self) -> List[BlockPropagation]:
        """Blocks that reached at least :data:`MIN_COVERAGE` of the network."""
        population = len(self.scenario.running_nodes())
        return [
            record
            for record in self.blocks.values()
            if record.coverage(population) >= MIN_COVERAGE
        ]

    def percentile_delays(self) -> List[float]:
        """Per-block time-to-:data:`DELAY_PERCENTILE` delays (Decker-style)."""
        population = len(self.scenario.running_nodes())
        out: List[float] = []
        for record in self.completed_blocks():
            value = record.delay_percentile(population, DELAY_PERCENTILE)
            if value is not None:
                out.append(value)
        return out
