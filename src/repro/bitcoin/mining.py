"""Block production and transaction generation processes.

Mining is modelled as a single network-wide Poisson process with the
Bitcoin target rate (one block per 600 s): at each firing, a random
*synchronized* node wins the block and extends its own tip.  This matches
how the paper treats mining — an exogenous arrival process whose product
must then propagate — without simulating proof-of-work.

:class:`TransactionGenerator` injects transactions at random nodes so the
compact-block path (mempool reconstruction, GETBLOCKTXN round trips) has
something to chew on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..errors import ScenarioError
from ..simnet.simulator import Simulator
from .blockchain import Block
from .config import BLOCK_INTERVAL
from .mempool import Transaction
from .node import BitcoinNode

#: Size of a confirmed transaction the miner's mempool no longer holds,
#: and the mean of a generated transaction's size (bytes).
TX_SIZE = 350
#: Serialized block size model.  Only a sample of each block's
#: transactions is simulated individually; the rest of a realistic ~1 MB
#: 2020 block is accounted as filler bytes so full-block transmission
#: times (the §IV-C relay tail) are right.
BLOCK_SIZE_MEAN = 1.0 * 1024 * 1024
BLOCK_SIZE_STD = 0.25 * 1024 * 1024


@dataclass
class MinedBlock:
    """A block the mining process issued, with its origin."""

    block: Block
    miner: BitcoinNode
    mined_at: float


class MiningProcess:
    """Poisson block production over a dynamic candidate set."""

    def __init__(
        self,
        sim: Simulator,
        candidates: Callable[[], Sequence[BitcoinNode]],
        block_interval: float = BLOCK_INTERVAL,
        txs_per_block: int = 0,
    ) -> None:
        if block_interval <= 0:
            raise ScenarioError("block_interval must be positive")
        self.sim = sim
        self._candidates = candidates
        self.block_interval = block_interval
        self.txs_per_block = txs_per_block
        self._rng = sim.random.stream("mining")
        self._next_block_id = 1
        self._base_height = 0
        self.history: List[MinedBlock] = []
        self._running = False
        self._event = None

    @property
    def best_height(self) -> int:
        """Height of the latest mined block (the global tip)."""
        if self.history:
            return self.history[-1].block.height
        return self._base_height

    def premine(self, count: int) -> List[Block]:
        """Build a historical chain of ``count`` blocks (pre-campaign).

        Models the years of blockchain that exist before the experiment
        starts: standing nodes are born with it, while replacement nodes
        must download it — the days-long initial block download that makes
        churn corrosive to synchronization (§IV-D).  Must be called before
        any block is mined live.
        """
        if self.history:
            raise ScenarioError("premine() must precede live mining")
        blocks: List[Block] = []
        prev_id = 0  # genesis
        for height in range(1, count + 1):
            size = int(max(80, self._rng.gauss(BLOCK_SIZE_MEAN, BLOCK_SIZE_STD)))
            block = Block(
                block_id=self._next_block_id,
                prev_id=prev_id,
                height=height,
                created_at=0.0,
                size=size,
            )
            prev_id = block.block_id
            self._next_block_id += 1
            blocks.append(block)
        self._base_height = count
        return blocks

    @property
    def blocks_mined(self) -> int:
        return len(self.history)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        delay = self._rng.expovariate(1.0 / self.block_interval)
        self._event = self.sim.schedule(delay, self._mine)

    def _mine(self) -> None:
        if not self._running:
            return
        miner = self._pick_miner()
        if miner is not None:
            block = self._make_block(miner)
            self.history.append(
                MinedBlock(block=block, miner=miner, mined_at=self.sim.now)
            )
            miner.submit_block(block)
        self._schedule_next()

    def _pick_miner(self) -> Optional[BitcoinNode]:
        """Choose a running node with the current best chain.

        Miners are, by definition, synchronized — an out-of-date miner
        would orphan itself — so candidates behind the tip are skipped.
        """
        candidates = [
            node
            for node in self._candidates()
            if node.running and node.chain.height >= self.best_height
        ]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _make_block(self, miner: BitcoinNode) -> Block:
        parent = miner.chain.tip
        # Confirm a slice of the miner's mempool (newest-agnostic sample).
        pool_txids = []
        if self.txs_per_block > 0 and len(miner.mempool) > 0:
            all_ids = [
                txid
                for txid in list(miner.mempool._txs)  # noqa: SLF001 - sim-internal
            ]
            take = min(self.txs_per_block, len(all_ids))
            pool_txids = self._rng.sample(all_ids, take)
        tx_bytes = sum(
            (miner.mempool.get(txid).size if miner.mempool.get(txid) else TX_SIZE)
            for txid in pool_txids
        )
        filler = max(0.0, self._rng.gauss(BLOCK_SIZE_MEAN, BLOCK_SIZE_STD))
        size = int(max(80 + tx_bytes, filler))
        block = Block(
            block_id=self._next_block_id,
            prev_id=parent.block_id,
            height=parent.height + 1,
            created_at=self.sim.now,
            txids=tuple(pool_txids),
            size=size,
        )
        self._next_block_id += 1
        return block


class TransactionGenerator:
    """Poisson transaction arrivals injected at random running nodes."""

    def __init__(
        self,
        sim: Simulator,
        candidates: Callable[[], Sequence[BitcoinNode]],
        tx_rate: float = 0.1,
    ) -> None:
        if tx_rate <= 0:
            raise ScenarioError("tx_rate must be positive")
        self.sim = sim
        self._candidates = candidates
        self.tx_rate = tx_rate
        self._rng = sim.random.stream("txgen")
        self._next_txid = 1_000_000_000  # disjoint from block ids
        self.generated = 0
        self._running = False
        self._event = None

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule_next(self) -> None:
        delay = self._rng.expovariate(self.tx_rate)
        self._event = self.sim.schedule(delay, self._emit)

    def _emit(self) -> None:
        if not self._running:
            return
        candidates = [node for node in self._candidates() if node.running]
        if candidates:
            origin = self._rng.choice(candidates)
            size = max(120, int(self._rng.gauss(TX_SIZE, 80)))
            tx = Transaction(
                txid=self._next_txid, size=size, created_at=self.sim.now
            )
            self._next_txid += 1
            self.generated += 1
            origin.submit_tx(tx)
        self._schedule_next()
