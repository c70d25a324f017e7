"""Bitcoin wire-protocol messages.

Messages are plain dataclasses rather than byte strings: the simulation
cares about *which* messages flow, their ordering through the round-robin
handler, and their *sizes* (which drive transmission delay), not their
exact serialization.  ``wire_size`` approximates the serialized size in
bytes including the 24-byte P2P header.

The set covers everything the paper's analysis touches: the version
handshake, address gossip (GETADDR/ADDR), inventory announcement and
download (INV/GETDATA/BLOCK/TX), the BIP152 compact-block path
(SENDCMPCT/CMPCTBLOCK/GETBLOCKTXN/BLOCKTXN), simple block-locator sync
(GETBLOCKS), and keepalives (PING/PONG).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..simnet.addresses import NetAddr, TimestampedAddr

# InvType / InvItem are defined beside Block, which owns its inventory
# vector, and re-exported here: they are wire vocabulary all the same.
from .blockchain import Block, InvItem, InvType  # noqa: F401

#: P2P message header: magic + command + length + checksum.
HEADER_SIZE = 24
#: Serialized size of one (services, ip, port, time) address record.
ADDR_RECORD_SIZE = 30
#: Serialized size of one inventory vector (type + hash).
INV_RECORD_SIZE = 36
#: Short transaction id size in a compact block.
SHORTID_SIZE = 6
#: Block header size.
BLOCK_HEADER_SIZE = 80


class Message:
    """Base class; subclasses define ``command`` and ``wire_size``.

    Messages are the most-allocated objects in a protocol run, so the
    subclasses are slotted dataclasses.  The empty ``__slots__`` here is
    load-bearing: without it every subclass instance would still carry a
    ``__dict__`` inherited from this base.
    """

    __slots__ = ()

    command: str = "?"

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE

    def __repr__(self) -> str:  # concise, used in debug traces
        return f"<{self.command}>"


@dataclass(repr=False, slots=True)
class Version(Message):
    """VERSION: opens the handshake; carries the sender's chain height."""

    command = "version"
    sender: NetAddr
    receiver: NetAddr
    start_height: int
    user_agent: str = "/repro:1.0/"
    nonce: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 85 + len(self.user_agent)


@dataclass(repr=False, slots=True)
class Verack(Message):
    """VERACK: completes the handshake."""

    command = "verack"


@dataclass(repr=False, slots=True)
class GetAddr(Message):
    """GETADDR: request a sample of the peer's addrman."""

    command = "getaddr"


@dataclass(repr=False, slots=True)
class Addr(Message):
    """ADDR: gossip of (address, last-seen) records (≤1000).

    A record's timestamp is when the *sender* last saw the address — it
    relays what it stored, it does not stamp the send time — so the same
    record object may ride in many messages and sit in many tables.
    """

    command = "addr"
    addresses: Tuple[TimestampedAddr, ...]
    #: Computed once, not a property: ADDR gossip is most of what a
    #: node's handler pass sends, and the pass reads the size per send.
    wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.addresses) > 1000:
            raise ValueError(
                f"ADDR carries at most 1000 addresses, got {len(self.addresses)}"
            )
        self.wire_size = HEADER_SIZE + 3 + ADDR_RECORD_SIZE * len(self.addresses)


@dataclass(repr=False, slots=True)
class Inv(Message):
    """INV: announce inventory (new blocks / transactions)."""

    command = "inv"
    items: Tuple[InvItem, ...]

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 3 + INV_RECORD_SIZE * len(self.items)


@dataclass(repr=False, slots=True)
class GetData(Message):
    """GETDATA: request full objects previously announced via INV."""

    command = "getdata"
    items: Tuple[InvItem, ...]

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 3 + INV_RECORD_SIZE * len(self.items)


@dataclass(repr=False, slots=True)
class TxMsg(Message):
    """TX: a full transaction (opaque payload of ``size`` bytes)."""

    command = "tx"
    txid: int
    size: int = 350

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + self.size


@dataclass(repr=False, slots=True)
class BlockMsg(Message):
    """BLOCK: a full block (header + all transactions).

    Carries the simulated :class:`~repro.bitcoin.blockchain.Block` object;
    ``wire_size`` reflects the block's serialized size.
    """

    command = "block"
    block: "Block"

    @property
    def block_id(self) -> int:
        return self.block.block_id

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + self.block.size


@dataclass(repr=False, slots=True)
class SendCmpct(Message):
    """SENDCMPCT (BIP152): negotiate compact-block relay.

    ``high_bandwidth`` peers push CMPCTBLOCK without a prior INV.
    """

    command = "sendcmpct"
    high_bandwidth: bool = False

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 9


@dataclass(repr=False, slots=True)
class CmpctBlock(Message):
    """CMPCTBLOCK (BIP152): header plus short ids of the block's txs.

    The receiver reconstructs the block from its mempool and requests any
    missing transactions via GETBLOCKTXN.
    """

    command = "cmpctblock"
    block: "Block"

    @property
    def block_id(self) -> int:
        return self.block.block_id

    @property
    def txids(self) -> Tuple[int, ...]:
        return self.block.txids

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + BLOCK_HEADER_SIZE + SHORTID_SIZE * len(self.block.txids)


@dataclass(repr=False, slots=True)
class GetBlockTxn(Message):
    """GETBLOCKTXN (BIP152): request txs missing from the mempool."""

    command = "getblocktxn"
    block_id: int
    txids: Tuple[int, ...]

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 8 + 4 * len(self.txids)


@dataclass(repr=False, slots=True)
class BlockTxn(Message):
    """BLOCKTXN (BIP152): the requested transactions."""

    command = "blocktxn"
    block_id: int
    txids: Tuple[int, ...]
    total_size: int

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 8 + self.total_size


@dataclass(repr=False, slots=True)
class GetBlocks(Message):
    """GETBLOCKS: ask for block inventory above ``from_height``.

    A simplified block locator: heights are unambiguous because the
    simulated chain never reorganises more than a step at a time.
    """

    command = "getblocks"
    from_height: int

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 37


@dataclass(repr=False, slots=True)
class Ping(Message):
    """PING keepalive."""

    command = "ping"
    nonce: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 8


@dataclass(repr=False, slots=True)
class Pong(Message):
    """PONG keepalive reply."""

    command = "pong"
    nonce: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER_SIZE + 8


#: Shared instances of the stateless messages.  VERACK/GETADDR carry no
#: fields and PONG0 answers a zero-nonce ping, so every sender can reuse
#: one immutable-in-practice object instead of allocating per call —
#: ADDR gossip alone sends hundreds of thousands of VERACKs per scale
#: run.  The checkpoint pickler memoizes repeated objects, so snapshot
#: bytes stay independent of which code path enqueued the message.
VERACK = Verack()
GETADDR = GetAddr()
PONG0 = Pong()
