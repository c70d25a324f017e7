"""``repro.bitcoin.policy`` — the pluggable protocol-policy registry.

See :mod:`.base` for the decision interfaces, :mod:`.registry` for
variant registration/resolution, and :mod:`.variants`,
:mod:`.unreachable_relay`, :mod:`.churn_resilient` for the builtin
variants (§V family plus the two PAPERS.md related-work variants).
"""

from .base import AddrPolicy, ConnPolicy, LightTierPolicy, RelayPolicy
from .registry import (
    PolicyBundle,
    PolicyVariant,
    UNIVERSAL_KNOBS,
    build_policies,
    ensure_builtins,
    get_variant,
    register,
    resolve,
    variant_names,
)

__all__ = [
    "AddrPolicy",
    "ConnPolicy",
    "LightTierPolicy",
    "PolicyBundle",
    "PolicyVariant",
    "RelayPolicy",
    "UNIVERSAL_KNOBS",
    "build_policies",
    "ensure_builtins",
    "get_variant",
    "register",
    "resolve",
    "variant_names",
]
