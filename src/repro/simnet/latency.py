"""Propagation-latency model for the simulated internet.

One-way latency between two endpoints is drawn deterministically from the
pair of /16 netgroups (a proxy for AS-to-AS distance), so the same pair of
hosts always sees the same base latency, plus a small per-packet jitter.

The defaults approximate the public-internet latency distribution the paper
leans on ("given the stability of the Internet's latency distribution"):
intra-group RTTs of a few milliseconds, inter-group one-way latencies
between ~10 ms and ~150 ms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .addresses import NetAddr
from .rand import Stream, derive_seed


@dataclass
class LatencyConfig:
    """Parameters of the pairwise latency model (all seconds)."""

    #: Minimum one-way latency between distinct netgroups.
    min_latency: float = 0.010
    #: Maximum one-way latency between distinct netgroups.
    max_latency: float = 0.150
    #: One-way latency within a netgroup (same /16 → same region).
    local_latency: float = 0.002
    #: Fractional jitter applied per packet (uniform in ±jitter).
    jitter: float = 0.10

    def validate(self) -> None:
        if not 0 < self.min_latency <= self.max_latency:
            raise ValueError(
                "latency bounds must satisfy 0 < min <= max, got "
                f"{self.min_latency}..{self.max_latency}"
            )
        if self.local_latency <= 0:
            raise ValueError("local_latency must be positive")
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")


class LatencyModel:
    """Deterministic pairwise one-way latency with per-packet jitter."""

    def __init__(
        self,
        config: LatencyConfig = LatencyConfig(),
        seed: int = 0,
        rng: random.Random = None,
    ) -> None:
        config.validate()
        self.config = config
        self._seed = seed
        self._rng = rng if rng is not None else Stream(
            derive_seed(seed, "latency-jitter")
        )
        self._base_cache: dict = {}

    def base_latency(self, a: NetAddr, b: NetAddr) -> float:
        """Jitter-free one-way latency between ``a`` and ``b``.

        Symmetric: ``base_latency(a, b) == base_latency(b, a)``.
        """
        ga, gb = a.group16, b.group16
        if ga == gb:
            return self.config.local_latency
        key = (ga, gb) if ga < gb else (gb, ga)
        base = self._base_cache.get(key)
        if base is None:
            span = self.config.max_latency - self.config.min_latency
            fraction = (derive_seed(self._seed, f"lat:{key[0]}:{key[1]}") & 0xFFFF) / 0xFFFF
            base = self.config.min_latency + span * fraction
            self._base_cache[key] = base
        return base

    def sample(self, a: NetAddr, b: NetAddr) -> float:
        """One-way latency for a single packet from ``a`` to ``b``.

        Runs once per delivered message, so the base-latency cache lookup
        is inlined rather than delegated to :meth:`base_latency`, and the
        jitter draw is written as a direct ``random()`` expression —
        algebraically ``uniform(-jitter, jitter)``, consuming the same
        single draw, without the wrapper call.
        """
        config = self.config
        ga = a[0] >> 16  # NetAddr.group16, sans property machinery
        gb = b[0] >> 16
        if ga == gb:
            base = config.local_latency
        else:
            key = (ga, gb) if ga < gb else (gb, ga)
            base = self._base_cache.get(key)
            if base is None:
                span = config.max_latency - config.min_latency
                fraction = (
                    derive_seed(self._seed, f"lat:{key[0]}:{key[1]}") & 0xFFFF  # repro-lint: disable=HOT001 (cache-miss branch: runs once per group pair, then served from _base_cache)
                ) / 0xFFFF
                base = config.min_latency + span * fraction
                self._base_cache[key] = base
        jitter = config.jitter
        if jitter == 0:
            return base
        return base * (1.0 + jitter * (2.0 * self._rng.random() - 1.0))
