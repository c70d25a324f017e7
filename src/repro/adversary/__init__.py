"""Adversarial sync-attack suite (paper §IV-B, Fig. 8).

Deterministic misbehaving peers — addr flooders, eclipse campaigners,
sync stallers, inventory spammers — declared in FaultPlan-style JSON
(:class:`AttackPlan`) and compiled onto protocol scenarios
(:func:`install_attack`).  See ``docs/architecture.md`` for the
behavior taxonomy and the determinism contract.
"""

from .behaviors import (
    AddrFlooderNode,
    AdversaryNode,
    EclipseNode,
    InvSpammerNode,
    SyncStallerNode,
)
from .install import AttackForce, install_attack
from .plan import (
    ATTACK_FORMAT,
    ATTACK_KINDS,
    AttackerSpec,
    AttackPlan,
)

__all__ = [
    "ATTACK_FORMAT",
    "ATTACK_KINDS",
    "AddrFlooderNode",
    "AdversaryNode",
    "AttackForce",
    "AttackPlan",
    "AttackerSpec",
    "EclipseNode",
    "InvSpammerNode",
    "SyncStallerNode",
    "install_attack",
]
