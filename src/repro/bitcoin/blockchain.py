"""Simulated blocks and the per-node chain state.

Blocks carry opaque integer ids instead of hashes — the study is about
*propagation*, not proof-of-work — but the chain keeps real parent links,
heights, and orphan handling so that out-of-order delivery (common under
round-robin relay) behaves as in Bitcoin Core: a block whose parent is
unknown is parked and connected when the parent arrives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ChainError

#: The id of the genesis block's (non-existent) parent.
NO_PARENT = -1

#: Genesis block id, shared by every node.
GENESIS_ID = 0


class InvType(enum.Enum):
    """Inventory vector types (subset relevant to the study)."""

    TX = 1
    BLOCK = 2


@dataclass(frozen=True, slots=True)
class InvItem:
    """One inventory vector: the type and the object id."""

    type: InvType
    object_id: int


@dataclass(frozen=True)
class Block:
    """One block: identity, parentage, and payload summary."""

    block_id: int
    prev_id: int
    height: int
    created_at: float
    txids: Tuple[int, ...] = ()
    #: Serialized size in bytes (header + transactions).
    size: int = 80
    #: The inventory vector naming this block: made once, here, and shared
    #: by every chain that holds the block and every INV / GETDATA that
    #: names it.  An instance field, not a module-level cache, so it
    #: travels with its block through a snapshot's pickle memo.
    inv: InvItem = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "inv", InvItem(type=InvType.BLOCK, object_id=self.block_id)
        )

    @property
    def is_genesis(self) -> bool:
        return self.prev_id == NO_PARENT


def make_genesis() -> Block:
    """The genesis block every simulated chain starts from."""
    return Block(
        block_id=GENESIS_ID, prev_id=NO_PARENT, height=0, created_at=0.0
    )


class Blockchain:
    """A node's view of the block tree.

    Tracks every known block, the best tip (highest block, first-seen wins
    ties — Nakamoto's rule), and orphans awaiting their parent.
    """

    def __init__(self, genesis: Optional[Block] = None) -> None:
        genesis = genesis if genesis is not None else make_genesis()
        if not genesis.is_genesis:
            raise ChainError("genesis block must have no parent")
        #: Every connected block by id.  Read-only outside this class; the
        #: node's INV handler tests membership here directly.
        self.blocks: Dict[int, Block] = {genesis.block_id: genesis}
        # The main chain's inventory, indexed by height.  A connecting
        # block is at most one above the tip, so heights fill in order,
        # each exactly once: the first block to reach a height keeps the
        # slot, also when a fork later overtakes through it.
        self._main: List[InvItem] = [genesis.inv]
        self._orphans: Dict[int, List[Block]] = {}
        self.tip: Block = genesis

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Height of the best tip."""
        return self.tip.height

    def __contains__(self, block_id: int) -> bool:
        return block_id in self.blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def get(self, block_id: int) -> Optional[Block]:
        return self.blocks.get(block_id)

    def block_at_height(self, height: int) -> Optional[Block]:
        """The main-chain block at ``height`` (if known)."""
        if 0 <= height < len(self._main):
            return self.blocks[self._main[height].object_id]
        return None

    def inv_above(self, from_height: int, limit: int) -> Tuple[InvItem, ...]:
        """Main-chain inventory strictly above ``from_height``.

        Serves GETBLOCKS: the inventory a syncing peer needs next, as a
        slice of the blocks' own shared items.
        """
        start = from_height + 1
        if start < 0 or limit <= 0:
            return ()
        return tuple(self._main[start : start + limit])

    @property
    def orphan_count(self) -> int:
        return sum(len(waiting) for waiting in self._orphans.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> bool:
        """Accept ``block`` into the tree.

        Returns True if the block extended our best chain (i.e. the tip
        advanced), which is a relay trigger for the node.  A block whose
        parent is unknown is stored as an orphan and connected later.
        Duplicate blocks are ignored.
        """
        if block.block_id in self.blocks:
            return False
        if block.is_genesis:
            raise ChainError("cannot add a second genesis block")
        if block.prev_id not in self.blocks:
            self._orphans.setdefault(block.prev_id, []).append(block)
            return False
        return self._connect(block)

    def _connect(self, block: Block) -> bool:
        parent = self.blocks[block.prev_id]
        if block.height != parent.height + 1:
            raise ChainError(
                f"block {block.block_id} claims height {block.height}, "
                f"parent is at {parent.height}"
            )
        self.blocks[block.block_id] = block
        advanced = False
        if block.height > self.tip.height:
            self.tip = block
            self._main.append(block.inv)
            advanced = True
        # Connect any orphans that were waiting for this block.
        for orphan in self._orphans.pop(block.block_id, ()):  # noqa: B020
            if self._connect(orphan):
                advanced = True
        return advanced

    def release(self) -> None:
        """Forget every block but the tip.

        For the record of a node that left for good: ``tip`` and
        ``height`` still answer, membership and inventory come back empty.
        """
        self.blocks = {}
        self._main = []
        self._orphans = {}
