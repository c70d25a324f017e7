"""Simulated Bitcoin node substrate.

A faithful-in-behaviour Python rendering of the Bitcoin Core v0.20.1
mechanisms the paper analyzes: the addrman new/tried tables, the
one-attempt-at-a-time connection loop, feeler connections, the
SocketHandler/ThreadMessageHandler round-robin engine, BIP152 compact
blocks, and the §V policy refinements.
"""

from .addrman import AddrInfo, AddrMan
from .behavior import (
    FIDELITY_FULL,
    FIDELITY_LIGHT,
    NodeBehavior,
)
from .blockchain import GENESIS_ID, Block, Blockchain, make_genesis
from .config import NodeConfig, PolicyConfig, unreachable_config, variant_names
from .light import DEFAULT_LIGHT_PROFILE, LightNode, LightNodeProfile
from .mempool import Mempool, Transaction
from .messages import (
    Addr,
    BlockMsg,
    BlockTxn,
    CmpctBlock,
    GetAddr,
    GetBlocks,
    GetBlockTxn,
    GetData,
    Inv,
    InvItem,
    InvType,
    Message,
    Ping,
    Pong,
    SendCmpct,
    TxMsg,
    Verack,
    Version,
)
from .mining import MinedBlock, MiningProcess, TransactionGenerator
from .node import BitcoinNode, ConnectionAttempt
from .peer import Peer
from .relay import RelayRecord, RelayTracker, relay_order

__all__ = [
    "DEFAULT_LIGHT_PROFILE",
    "FIDELITY_FULL",
    "FIDELITY_LIGHT",
    "GENESIS_ID",
    "Addr",
    "AddrInfo",
    "AddrMan",
    "BitcoinNode",
    "Block",
    "BlockMsg",
    "BlockTxn",
    "Blockchain",
    "CmpctBlock",
    "ConnectionAttempt",
    "GetAddr",
    "GetBlockTxn",
    "GetBlocks",
    "GetData",
    "Inv",
    "InvItem",
    "InvType",
    "LightNode",
    "LightNodeProfile",
    "Mempool",
    "Message",
    "MinedBlock",
    "MiningProcess",
    "NodeBehavior",
    "NodeConfig",
    "Peer",
    "Ping",
    "PolicyConfig",
    "Pong",
    "RelayRecord",
    "RelayTracker",
    "SendCmpct",
    "Transaction",
    "TransactionGenerator",
    "TxMsg",
    "Verack",
    "Version",
    "make_genesis",
    "relay_order",
    "unreachable_config",
    "variant_names",
]
