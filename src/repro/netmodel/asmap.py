"""The Autonomous-System universe and node-to-AS assignment.

The paper's routing-attack analysis (§IV-A, Table I) rests on *where* the
three node classes live: reachable nodes across 2,000 ASes (25 covering
50%), unreachable across 8,494 (36 covering 50%), responsive across 4,453
(24 covering 50%), with partially overlapping top-20 lists.

We reproduce this with a synthetic AS universe whose per-class hosting
distributions take the paper's measured Table-I percentages for the top 20
ASes verbatim, and a calibrated power-law tail over synthetic ASes sized so
the 50%-coverage counts land on the paper's numbers.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScenarioError
from ..simnet.addresses import NetAddr
from . import calibration as cal

#: First synthetic ASN; real Table-I ASNs are far below this.
_SYNTHETIC_ASN_BASE = 100_000


@dataclass
class HostingProfile:
    """Per-class hosting distribution over ASes."""

    name: str
    #: Paper-measured (ASN, percent) head of the distribution.
    top: List[Tuple[int, float]]
    #: Total distinct ASes hosting this class.
    as_count: int
    #: ASes required to cover 50% of the class (calibration target).
    k50_target: int


#: The three measured hosting profiles from Table I.
PROFILES: Dict[str, HostingProfile] = {
    "reachable": HostingProfile(
        "reachable", cal.TOP_AS_REACHABLE, cal.AS_COUNT_REACHABLE,
        cal.AS_50PCT_REACHABLE,
    ),
    "unreachable": HostingProfile(
        "unreachable", cal.TOP_AS_UNREACHABLE, cal.AS_COUNT_UNREACHABLE,
        cal.AS_50PCT_UNREACHABLE,
    ),
    "responsive": HostingProfile(
        "responsive", cal.TOP_AS_RESPONSIVE, cal.AS_COUNT_RESPONSIVE,
        cal.AS_50PCT_RESPONSIVE,
    ),
}


def _k50(weights: Sequence[float]) -> int:
    """ASes needed to cover half the mass, given unnormalised weights."""
    total = sum(weights)
    ordered = sorted(weights, reverse=True)
    acc = 0.0
    for index, weight in enumerate(ordered, start=1):
        acc += weight
        if acc >= total / 2:
            return index
    return len(ordered)


def build_class_weights(profile: HostingProfile) -> List[Tuple[int, float]]:
    """(ASN, weight) pairs for a class: measured head + calibrated tail.

    The tail is ``1/rank**s`` over synthetic ASes, scaled to the mass the
    head leaves over; ``s`` is found by bisection so the ASes-to-cover-50%
    count matches the paper's.
    """
    head_mass = sum(pct for _asn, pct in profile.top)
    tail_count = profile.as_count - len(profile.top)
    if tail_count <= 0:
        raise ScenarioError(
            f"as_count {profile.as_count} must exceed the top list length"
        )
    remaining = 100.0 - head_mass

    def tail_weights(exponent: float) -> List[float]:
        raw = [1.0 / (rank**exponent) for rank in range(1, tail_count + 1)]
        scale = remaining / sum(raw)
        return [value * scale for value in raw]

    def coverage(exponent: float) -> int:
        head = [pct for _asn, pct in profile.top]
        return _k50(head + tail_weights(exponent))

    # k50 decreases monotonically as the tail steepens; bisect on s.
    low, high = 0.05, 3.0
    for _ in range(48):
        mid = (low + high) / 2
        if coverage(mid) > profile.k50_target:
            low = mid
        else:
            high = mid
    exponent = (low + high) / 2
    tail = tail_weights(exponent)
    pairs = list(profile.top)
    pairs.extend(
        (_SYNTHETIC_ASN_BASE + rank, weight)
        for rank, weight in enumerate(tail, start=1)
    )
    return pairs


@lru_cache(maxsize=None)
def _profile_weights(name: str) -> Tuple[Tuple[int, float], ...]:
    """``build_class_weights(PROFILES[name])``, bisected once per process:
    the profiles are constants and every scenario build reads all three."""
    return tuple(build_class_weights(PROFILES[name]))


class ASUniverse:
    """Allocates addresses inside ASes and assigns nodes to ASes per class.

    Each AS owns one or more /16 prefixes; an address's ``group16`` maps
    back to its AS, which both the latency model (netgroup distance) and
    the routing analysis rely on.

    Pickled with each class's hosting table as two packed columns, an
    ``array("I")`` of ASNs and an ``array("d")`` of weights
    (:func:`_load_universe`), instead of one ``(asn, weight)`` tuple per
    AS; the pairs and cumulative weights are rebuilt on load.
    """

    def __init__(self, rng: random.Random, seed_prefix: int = 1) -> None:
        self._rng = rng
        self._group_to_asn: Dict[int, int] = {}
        self._asn_prefixes: Dict[int, List[int]] = {}
        self._asn_next_host: Dict[int, int] = {}
        self._next_group = max(1, seed_prefix)
        self._class_pairs: Dict[str, List[Tuple[int, float]]] = {}
        self._class_cumweights: Dict[str, List[float]] = {}
        # Per-class shuffled tail order so the classes' AS sets overlap
        # only partially (Table I: just 10 ASes common in the top 20).
        for name, profile in PROFILES.items():
            pairs = _profile_weights(name)
            head = len(profile.top)
            asns = [asn for asn, _w in pairs]
            tail_asns = asns[head:]
            class_rng = random.Random(rng.getrandbits(64))
            class_rng.shuffle(tail_asns)
            self._set_class_table(
                name,
                asns[:head] + tail_asns,
                [weight for _asn, weight in pairs],
            )

    def _set_class_table(
        self, name: str, asns: Sequence[int], weights: Sequence[float]
    ) -> None:
        """Class ``name``'s hosting table: the ``(asn, weight)`` pairs and
        their cumulative weights, summed left to right."""
        self._class_pairs[name] = list(zip(asns, weights))
        self._class_cumweights[name] = list(accumulate(weights))

    # ------------------------------------------------------------------
    # AS assignment
    # ------------------------------------------------------------------
    def class_distribution(self, class_name: str) -> List[Tuple[int, float]]:
        """The (ASN, weight) hosting distribution for a node class."""
        if class_name not in self._class_pairs:
            raise ScenarioError(f"unknown node class {class_name!r}")
        return list(self._class_pairs[class_name])

    def sample_asn(self, class_name: str, rng: Optional[random.Random] = None) -> int:
        """Draw the hosting AS for one node of ``class_name``."""
        import bisect

        pairs = self._class_pairs.get(class_name)
        if pairs is None:
            raise ScenarioError(f"unknown node class {class_name!r}")
        cum = self._class_cumweights[class_name]
        draw = (rng or self._rng).random() * cum[-1]
        index = bisect.bisect_left(cum, draw)
        return pairs[min(index, len(pairs) - 1)][0]

    # ------------------------------------------------------------------
    # Address allocation
    # ------------------------------------------------------------------
    def allocate_address(self, asn: int, port: int = 8333) -> NetAddr:
        """A fresh, unused address inside ``asn``."""
        prefixes = self._asn_prefixes.get(asn)
        if not prefixes:
            prefixes = [self._claim_prefix(asn)]
            self._asn_prefixes[asn] = prefixes
            self._asn_next_host[asn] = 1
        host = self._asn_next_host[asn]
        prefix_index, offset = divmod(host, 0xFFFE)
        while prefix_index >= len(prefixes):
            prefixes.append(self._claim_prefix(asn))
        self._asn_next_host[asn] = host + 1
        ip = (prefixes[prefix_index] << 16) | (offset + 1)
        return NetAddr(ip=ip, port=port)

    def _claim_prefix(self, asn: int) -> int:
        group = self._next_group
        self._next_group += 1
        if group > 0xFFFF:
            raise ScenarioError("exhausted the /16 prefix space")
        self._group_to_asn[group] = asn
        return group

    def asn_of(self, addr: NetAddr) -> Optional[int]:
        """The AS owning ``addr``, or None if outside the universe."""
        return self._group_to_asn.get(addr.group16)

    def __reduce__(self):
        tables = [
            (
                name,
                array("I", [asn for asn, _weight in pairs]),
                array("d", [weight for _asn, weight in pairs]),
            )
            for name, pairs in self._class_pairs.items()
        ]
        return _load_universe, (
            self._rng,
            self._group_to_asn,
            self._asn_prefixes,
            self._asn_next_host,
            self._next_group,
            tables,
        )


def _load_universe(
    rng: random.Random,
    group_to_asn: Dict[int, int],
    asn_prefixes: Dict[int, List[int]],
    asn_next_host: Dict[int, int],
    next_group: int,
    tables: List[Tuple[str, Sequence[int], Sequence[float]]],
) -> ASUniverse:
    """The universe :meth:`ASUniverse.__reduce__` wrote."""
    universe = ASUniverse.__new__(ASUniverse)
    universe._rng = rng
    universe._group_to_asn = group_to_asn
    universe._asn_prefixes = asn_prefixes
    universe._asn_next_host = asn_next_host
    universe._next_group = next_group
    universe._class_pairs = {}
    universe._class_cumweights = {}
    for name, asns, weights in tables:
        universe._set_class_table(name, asns, weights)
    return universe
