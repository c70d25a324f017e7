"""The transaction memory pool.

The mempool matters to synchronization because of BIP152 compact blocks
(paper §IV-C): a node reconstructs a new block from transactions it already
holds, and every transaction *missing* from its mempool costs an extra
GETBLOCKTXN round trip.  Transactions are opaque ``(txid, size)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Transaction:
    """An opaque transaction: identity and serialized size."""

    txid: int
    size: int = 350
    created_at: float = 0.0


class Mempool:
    """A node's pending-transaction pool."""

    def __init__(self, max_size: int = 300_000) -> None:
        self._txs: Dict[int, Transaction] = {}
        self.max_size = max_size

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, txid: int) -> bool:
        return txid in self._txs

    def add(self, tx: Transaction) -> bool:
        """Insert ``tx``.  Returns True if it was new."""
        if tx.txid in self._txs:
            return False
        if len(self._txs) >= self.max_size:
            # Evict the oldest entry (FIFO approximation of feerate
            # eviction; ordering does not matter to the study).
            oldest = next(iter(self._txs))
            del self._txs[oldest]
        self._txs[tx.txid] = tx
        return True

    def get(self, txid: int) -> Optional[Transaction]:
        return self._txs.get(txid)

    def remove_all(self, txids: Iterable[int]) -> int:
        """Remove the given txids (block confirmation).  Returns count removed."""
        removed = 0
        for txid in txids:
            if self._txs.pop(txid, None) is not None:
                removed += 1
        return removed

    def missing_from(self, txids: Iterable[int]) -> List[int]:
        """The subset of ``txids`` not in the pool (compact-block gaps)."""
        return [txid for txid in txids if txid not in self._txs]
