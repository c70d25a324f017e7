"""Tests for the blockchain (orphans, tips) and mempool."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import dataclasses
import pickle

from repro.bitcoin.blockchain import Block, Blockchain, InvItem, InvType, make_genesis
from repro.bitcoin.mempool import Mempool, Transaction
from repro.errors import ChainError


def chain_of(length: int, start_id: int = 1) -> list:
    blocks = []
    prev = 0
    for height in range(1, length + 1):
        block = Block(
            block_id=start_id + height - 1,
            prev_id=prev,
            height=height,
            created_at=float(height),
        )
        prev = block.block_id
        blocks.append(block)
    return blocks


class TestBlockchain:
    def test_starts_at_genesis(self):
        chain = Blockchain()
        assert chain.height == 0
        assert chain.tip.is_genesis

    def test_linear_extension(self):
        chain = Blockchain()
        for block in chain_of(5):
            assert chain.add_block(block) is True
        assert chain.height == 5

    def test_duplicate_ignored(self):
        chain = Blockchain()
        block = chain_of(1)[0]
        assert chain.add_block(block) is True
        assert chain.add_block(block) is False
        assert chain.height == 1

    def test_orphan_connects_when_parent_arrives(self):
        chain = Blockchain()
        b1, b2, b3 = chain_of(3)
        assert chain.add_block(b3) is False  # orphan
        assert chain.add_block(b2) is False  # orphan
        assert chain.orphan_count == 2
        assert chain.add_block(b1) is True  # connects all three
        assert chain.height == 3
        assert chain.orphan_count == 0

    def test_block_at_height(self):
        chain = Blockchain()
        blocks = chain_of(4)
        for block in blocks:
            chain.add_block(block)
        assert chain.block_at_height(2) == blocks[1]
        assert chain.block_at_height(99) is None

    def test_ids_above(self):
        chain = Blockchain()
        blocks = chain_of(10)
        for block in blocks:
            chain.add_block(block)

        def ids(items):
            return [item.object_id for item in items]

        assert ids(chain.inv_above(3, limit=4)) == [4, 5, 6, 7]
        assert ids(chain.inv_above(9, limit=100)) == [10]
        assert chain.inv_above(10, limit=5) == ()
        # The reply is made of the blocks' own items, not of copies.
        assert chain.inv_above(3, limit=4)[0] is blocks[3].inv

    def test_block_owns_its_inventory_item(self):
        block, twin = (
            Block(block_id=7, prev_id=0, height=1, created_at=0.0) for _ in range(2)
        )
        assert block.inv == InvItem(InvType.BLOCK, 7)
        # Derived data: it takes no part in what a block *is*.
        assert block == twin and hash(block) == hash(twin)
        assert block.inv is not twin.inv and "inv" not in repr(block)
        assert dataclasses.replace(block, block_id=8).inv.object_id == 8
        # It rides the pickle memo with its block: a restored chain still
        # names the block with the block's own item.
        chain = Blockchain()
        chain.add_block(block)
        restored = pickle.loads(pickle.dumps(chain))
        assert restored.inv_above(0, 1)[0] is restored.get(7).inv

    def test_released_chain_keeps_its_tip_only(self):
        chain = Blockchain()
        for block in chain_of(5):
            chain.add_block(block)
        chain.add_block(Block(block_id=50, prev_id=49, height=9, created_at=0.0))
        chain.release()
        assert chain.height == 5 and chain.tip.block_id == 5
        assert len(chain) == 0 and 3 not in chain and chain.get(3) is None
        assert chain.orphan_count == 0
        assert chain.block_at_height(3) is None
        assert chain.inv_above(-1, 500) == ()

    def test_second_genesis_rejected(self):
        chain = Blockchain()
        rogue_genesis = Block(block_id=42, prev_id=-1, height=0, created_at=0.0)
        with pytest.raises(ChainError):
            chain.add_block(rogue_genesis)

    def test_re_adding_same_genesis_is_duplicate(self):
        chain = Blockchain()
        assert chain.add_block(make_genesis()) is False

    def test_height_mismatch_rejected(self):
        chain = Blockchain()
        bad = Block(block_id=1, prev_id=0, height=5, created_at=0.0)
        with pytest.raises(ChainError):
            chain.add_block(bad)

    def test_fork_does_not_advance_tip(self):
        chain = Blockchain()
        main = chain_of(3)
        for block in main:
            chain.add_block(block)
        fork = Block(block_id=100, prev_id=main[0].block_id, height=2, created_at=9.0)
        assert chain.add_block(fork) is False
        assert chain.height == 3
        assert chain.block_at_height(2) == main[1]

    def test_contains_and_len(self):
        chain = Blockchain()
        blocks = chain_of(2)
        for block in blocks:
            chain.add_block(block)
        assert blocks[0].block_id in chain
        assert 999 not in chain
        assert len(chain) == 3  # genesis + 2

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(list(range(12))))
    def test_any_arrival_order_converges(self, order):
        """Blocks delivered in any order must yield the same final chain."""
        blocks = chain_of(12)
        chain = Blockchain()
        for index in order:
            chain.add_block(blocks[index])
        assert chain.height == 12
        assert chain.orphan_count == 0


class _DictMainChain:
    """The main-chain index as it was before it became a list: a
    ``height -> block id`` dict written when the tip advances, read one
    ``dict.get`` at a time.  Kept as the oracle of
    :class:`TestMainChainMatchesDictReference`."""

    def __init__(self, genesis):
        self._blocks = {genesis.block_id: genesis}
        self._by_height = {genesis.height: genesis.block_id}
        self._orphans = {}
        self.tip = genesis

    def block_at_height(self, height):
        block_id = self._by_height.get(height)
        return self._blocks.get(block_id) if block_id is not None else None

    def ids_above(self, from_height, limit):
        out = []
        height = from_height + 1
        while len(out) < limit:
            block_id = self._by_height.get(height)
            if block_id is None:
                break
            out.append(block_id)
            height += 1
        return out

    def add_block(self, block):
        if block.block_id in self._blocks:
            return False
        if block.prev_id not in self._blocks:
            self._orphans.setdefault(block.prev_id, []).append(block)
            return False
        return self._connect(block)

    def _connect(self, block):
        self._blocks[block.block_id] = block
        advanced = False
        if block.height > self.tip.height:
            self.tip = block
            self._by_height[block.height] = block.block_id
            advanced = True
        for orphan in self._orphans.pop(block.block_id, ()):
            if self._connect(orphan):
                advanced = True
        return advanced


@st.composite
def forked_arrivals(draw):
    """A main chain, a fork off it long enough to tie and then overtake,
    and an arrival order over all of it (so parents arrive late and
    orphans connect in bursts), with some blocks delivered twice."""
    main_length = draw(st.integers(1, 14))
    fork_at = draw(st.integers(0, main_length - 1))
    fork_length = draw(st.integers(0, main_length - fork_at + 2))
    blocks = chain_of(main_length)
    prev = blocks[fork_at - 1].block_id if fork_at else 0
    for step in range(fork_length):
        block = Block(
            block_id=100 + step, prev_id=prev, height=fork_at + step + 1,
            created_at=0.0,
        )
        prev = block.block_id
        blocks.append(block)
    order = draw(st.permutations(blocks))
    repeats = draw(st.lists(st.sampled_from(blocks), max_size=4))
    return list(order) + repeats


class TestMainChainMatchesDictReference:
    @settings(max_examples=150, deadline=None)
    @given(arrivals=forked_arrivals())
    def test_list_main_chain_matches_dict_reference(self, arrivals):
        genesis = make_genesis()
        chain, reference = Blockchain(genesis), _DictMainChain(genesis)
        for block in arrivals:
            assert chain.add_block(block) == reference.add_block(block)
            assert chain.tip is reference.tip
            top = chain.height
            for height in range(-3, top + 3):
                assert chain.block_at_height(height) is reference.block_at_height(
                    height
                )
                for limit in (0, 1, 3, top + 5):
                    items = chain.inv_above(height, limit)
                    assert [item.object_id for item in items] == (
                        reference.ids_above(height, limit)
                    )
                    assert all(
                        item is chain.get(item.object_id).inv for item in items
                    )


class TestMempool:
    def test_add_and_get(self):
        pool = Mempool()
        tx = Transaction(txid=1, size=250)
        assert pool.add(tx) is True
        assert pool.get(1) == tx
        assert 1 in pool

    def test_duplicate_rejected(self):
        pool = Mempool()
        pool.add(Transaction(txid=1))
        assert pool.add(Transaction(txid=1)) is False
        assert len(pool) == 1

    def test_eviction_at_capacity(self):
        pool = Mempool(max_size=3)
        for txid in range(5):
            pool.add(Transaction(txid=txid))
        assert len(pool) == 3
        assert 0 not in pool  # oldest evicted
        assert 4 in pool

    def test_remove_all(self):
        pool = Mempool()
        for txid in range(5):
            pool.add(Transaction(txid=txid))
        removed = pool.remove_all([1, 3, 99])
        assert removed == 2
        assert len(pool) == 3

    def test_missing_from(self):
        pool = Mempool()
        pool.add(Transaction(txid=1))
        pool.add(Transaction(txid=2))
        assert pool.missing_from([1, 2, 3, 4]) == [3, 4]
