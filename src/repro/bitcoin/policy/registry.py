"""The variant registry: named, parameterized protocol-policy bundles.

A :class:`PolicyVariant` ties a name (``"baseline"``, ``"improved"``,
``"unreachable-relay"``, ...) to a *knob schema* (``defaults``) and the
policy classes that interpret the knobs.  ``PolicyConfig`` stores only
``(variant, params)``; :func:`resolve` canonicalizes that pair so every
spelling of the same behavior — §V knobs set one by one, explicit
variant names, redundant default-valued params — lands on one canonical
form, and therefore on one run-store key.

Canonical form:

* unknown variants and unknown/ill-typed params are rejected eagerly
  (config construction time, not node start time);
* params equal to the variant's defaults are dropped;
* within the §V family, the canonical *anchor* is chosen by effective
  knobs: all three refinements at their improved values → ``improved``
  with empty params, anything else → ``baseline`` plus the knobs that
  differ from baseline.  So ``PolicyConfig(params={"addr_from_tried_only":
  True, "tried_horizon_days": 17.0, "prioritize_block_relay": True})``
  and ``PolicyConfig(variant="improved")`` are *equal objects* with
  equal store keys.

Builtin variants self-register on first use (:func:`ensure_builtins`);
experiment code can register additional variants at import time as long
as registration happens before any config referencing them is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .base import AddrPolicy, ConnPolicy, LightTierPolicy, RelayPolicy

__all__ = [
    "PolicyBundle",
    "PolicyVariant",
    "UNIVERSAL_KNOBS",
    "build_policies",
    "ensure_builtins",
    "get_variant",
    "register",
    "resolve",
    "variant_names",
]

#: Knobs every variant must define defaults for — the §V surface
#: ``PolicyConfig``'s read-only properties expose.
UNIVERSAL_KNOBS = (
    "addr_from_tried_only",
    "tried_horizon_days",
    "prioritize_block_relay",
)


@dataclass(frozen=True)
class PolicyVariant:
    """One registered protocol variant.

    The factories are classes (or callables) taking the effective knob
    dict; they are registry state, never pickled — only the *built*
    policy objects ride inside snapshots.
    """

    name: str
    description: str
    #: Full knob schema with default values.  Must cover
    #: :data:`UNIVERSAL_KNOBS`; anything extra is variant-specific.
    defaults: Dict[str, Any]
    addr_factory: Callable[[Dict[str, Any]], AddrPolicy]
    relay_factory: Callable[[Dict[str, Any]], RelayPolicy]
    conn_factory: Callable[[Dict[str, Any]], ConnPolicy]
    light_factory: Optional[Callable[[Dict[str, Any]], LightTierPolicy]] = None


@dataclass(frozen=True)
class PolicyBundle:
    """The built policy objects for one node population."""

    variant: str
    knobs: Dict[str, Any] = field(repr=False)
    addr: AddrPolicy = field(repr=False)
    relay: RelayPolicy = field(repr=False)
    conn: ConnPolicy = field(repr=False)
    light: Optional[LightTierPolicy] = field(repr=False, default=None)


_REGISTRY: Dict[str, PolicyVariant] = {}
_builtins_loaded = False


def register(variant: PolicyVariant) -> PolicyVariant:
    """Add ``variant`` to the registry (its name must be unused)."""
    missing = [k for k in UNIVERSAL_KNOBS if k not in variant.defaults]
    if missing:
        raise ValueError(
            f"variant {variant.name!r} is missing defaults for "
            f"universal knobs {missing}"
        )
    if variant.name in _REGISTRY:
        raise ValueError(f"policy variant {variant.name!r} already registered")
    _REGISTRY[variant.name] = variant
    return variant


def ensure_builtins() -> None:
    """Import the builtin variant modules (idempotent)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from . import churn_resilient, unreachable_relay, variants  # noqa: F401


def get_variant(name: str) -> PolicyVariant:
    """Look up a registered variant, with a helpful error on miss."""
    ensure_builtins()
    variant = _REGISTRY.get(name)
    if variant is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown policy variant {name!r} (known: {known})")
    return variant


def variant_names() -> List[str]:
    """Registered variant names, sorted."""
    ensure_builtins()
    return sorted(_REGISTRY)


def _normalize(variant: str, knob: str, value: Any, default: Any) -> Any:
    """Type-check one knob against its default; stabilize numerics.

    Floats are coerced (``17`` and ``17.0`` must produce identical
    canonical JSON, hence identical store keys); bools are strict
    (a truthy int silently meaning "enabled" would fork cache keys).
    """
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValueError(
                f"policy knob {knob!r} of variant {variant!r} expects a "
                f"bool, got {value!r}"
            )
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"policy knob {knob!r} of variant {variant!r} expects a "
                f"number, got {value!r}"
            )
        return float(value)
    return value


def resolve(
    name: str, params: Dict[str, Any]
) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
    """Canonicalize ``(variant, params)``.

    Returns ``(canonical_variant, canonical_params, effective_knobs)``
    — see the module docstring for the anchor rule.  Raises
    :class:`ValueError` on unknown variants, unknown knobs, or values
    of the wrong type.
    """
    variant = get_variant(name)
    unknown = sorted(set(params) - set(variant.defaults))
    if unknown:
        known = ", ".join(sorted(variant.defaults))
        raise ValueError(
            f"unknown policy params {unknown} for variant "
            f"{variant.name!r} (known: {known})"
        )
    effective = dict(variant.defaults)
    for knob, value in params.items():
        effective[knob] = _normalize(
            variant.name, knob, value, variant.defaults[knob]
        )

    if variant.name in ("baseline", "improved"):
        improved = get_variant("improved").defaults
        if effective == improved:
            return "improved", {}, effective
        baseline = get_variant("baseline").defaults
        canonical = {
            knob: value
            for knob, value in effective.items()
            if value != baseline[knob]
        }
        return "baseline", canonical, effective

    canonical = {
        knob: value
        for knob, value in effective.items()
        if value != variant.defaults[knob]
    }
    return variant.name, canonical, effective


def build_policies(config: "Any") -> PolicyBundle:
    """Build the policy objects a :class:`PolicyConfig` references."""
    variant = get_variant(config.variant)
    knobs = dict(variant.defaults)
    knobs.update(config.params)
    return PolicyBundle(
        variant=variant.name,
        knobs=knobs,
        addr=variant.addr_factory(knobs),
        relay=variant.relay_factory(knobs),
        conn=variant.conn_factory(knobs),
        light=(
            variant.light_factory(knobs)
            if variant.light_factory is not None
            else None
        ),
    )
