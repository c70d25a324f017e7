"""Deterministic random-number streams.

Every stochastic component of a simulation (churn, latency, address
selection, ...) draws from its own named stream derived from the master
seed.  Components therefore stay reproducible independently of each other:
adding events to one stream does not perturb the draws seen by another.

:func:`sample` is how the network model draws without
replacement: ``random.Random.sample`` with its draw loop inlined — same
result, same generator state afterwards, about twice as fast at the
shapes the crawl campaign draws millions of times (a few hundred out of
a few thousand).

Every stream is a :class:`Stream`, a ``random.Random`` that pickles as
its Mersenne-Twister state words: one 2.5 KB byte string where the
stock generator writes a 625-int tuple.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from math import ceil, log
from typing import List, Optional, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, *names: str) -> int:
    """Derive a 64-bit child seed from a master seed and a name path.

    The derivation is a SHA-256 hash of the master seed and the names, so
    streams are independent for distinct name paths and stable across runs
    and Python versions (unlike ``hash()``).
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(master_seed)).encode("ascii"))
    for name in names:
        hasher.update(b"/")
        hasher.update(name.encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


class Stream(random.Random):
    """A ``random.Random`` that pickles as its state words.

    The stock reduce writes ``getstate()``, a fresh tuple of 625 Python
    ints (about 3.8 KB), and the pickler's memo keeps every such tuple
    alive until the dump ends.  A stream writes the 624 words as one
    little-endian ``array("I")`` byte string beside the position and
    ``gauss_next``, and loads through ``setstate``: draws, ``getstate()``
    and identity in the pickle memo are the stock generator's.  A blob
    holding stock generators still loads (as stock generators).
    """

    def __reduce__(self):
        _version, internal, gauss_next = self.getstate()
        words = array("I", internal)
        pos = words.pop()
        if sys.byteorder == "big":
            words.byteswap()
        return _load_stream, (words.tobytes(), pos, gauss_next)


def _load_stream(
    data: bytes, pos: int, gauss_next: Optional[float]
) -> Stream:
    """The stream :meth:`Stream.__reduce__` wrote."""
    words = array("I")
    words.frombytes(data)
    if sys.byteorder == "big":
        words.byteswap()
    words.append(pos)
    rng = Stream.__new__(Stream)
    rng.setstate((3, tuple(words), gauss_next))
    return rng


class RandomStreams:
    """Factory for named, independent :class:`Stream` generators."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict = {}

    def stream(self, *names: str) -> Stream:
        """Return the stream for ``names``, creating it on first use."""
        key = names
        rng = self._streams.get(key)
        if rng is None:
            rng = Stream(derive_seed(self.master_seed, *names))
            self._streams[key] = rng
        return rng


def sample(rng: random.Random, population: Sequence[T], k: int) -> List[T]:
    """``rng.sample(population, k)``, draw for draw, without the calls.

    This is CPython's ``Random.sample`` (as of 3.11: one
    ``_randbelow_with_getrandbits`` per selection) with ``_randbelow``
    inlined into both of its loops.  Each draw is
    ``getrandbits(m.bit_length())``, redrawn while ``>= m``, exactly as the
    stdlib makes it, so the returned list *and* ``rng.getstate()`` after
    the call equal the stdlib's — every seeded figure keeps its digest.
    ``tests/test_latency_rand.py`` holds the stdlib as the oracle; a Python
    whose ``Random.sample`` draws differently fails there by name.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result: List[T] = [None] * k  # type: ignore[list-item]
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # table size for big sets
    if n <= setsize:
        # An n-length list is smaller than a k-length set: draw from a
        # shrinking pool, moving the last unselected item into each vacancy.
        pool = list(population)
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result[i] = pool[j]
            pool[j] = pool[m - 1]
    else:
        # Few selections out of many: track the chosen indices instead.
        bits = n.bit_length()
        selected: set = set()
        selected_add = selected.add
        for i in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected_add(j)
            result[i] = population[j]
    return result
