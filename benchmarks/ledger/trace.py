"""The traced pass: harness-side spans and cProfile layer attribution.

Spans are recorded by the harness around its own calls into the program
(the program itself carries no spans yet).  The profile covers the timed
region only; its self time is summed by the layer of the defining module
(``catalog.LAYER_TABLE``), and the self time of builtin, stdlib and
harness frames is charged to whichever ``repro`` layer called them.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .catalog import LAYERS, OTHER, layer_of_module

FuncKey = Tuple[str, int, str]


class Tracer:
    """In-memory span list plus one profile, for one run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self.profile = cProfile.Profile()
        self._open: List[int] = []
        self._stats: Optional[Dict[FuncKey, Any]] = None
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter() - self._epoch,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self._epoch

    @contextmanager
    def profiled(self) -> Iterator[None]:
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def stats(self) -> Dict[FuncKey, Any]:
        """The finished profile as ``pstats`` rows, built once."""
        if self._stats is None:
            self._stats = pstats.Stats(self.profile).stats  # type: ignore[attr-defined]
        return self._stats

    def span_total(self, name: str) -> Optional[float]:
        """Summed duration of the spans called ``name``; None if there are none."""
        hits = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
        return sum(hits) if hits else None


class NoTrace:
    """The tracing-off stand-in: same surface, records nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    @contextmanager
    def profiled(self) -> Iterator[None]:
        yield


# ----------------------------------------------------------------------
# Layer attribution
# ----------------------------------------------------------------------
def _repro_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def module_layers(repro_root: str) -> Dict[str, Optional[str]]:
    """Every module file under ``repro_root`` -> its layer (None: unmapped)."""
    found: Dict[str, Optional[str]] = {}
    for folder, _dirs, files in os.walk(repro_root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                dotted = os.path.relpath(path, repro_root)[:-3].replace(os.sep, ".")
                found[path] = layer_of_module(dotted)
    return found


def attribute_layers(stats: Dict[FuncKey, Any]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "self_share", "calls"}}`` for one profile's
    ``pstats`` rows.

    A frame defined in a ``repro`` module belongs to that module's layer.
    Any other frame (builtin, stdlib, harness) hands its self time to its
    callers in proportion to the self time it spent on behalf of each,
    and so on up the caller edges until a ``repro`` frame or the root
    (``other``) absorbs it.  Mutually recursive stdlib code (the pure
    Python pickler under ``dump_checkpoint``) makes that walk cyclic, so
    it is solved as the absorbing chain it is rather than followed.
    """
    import numpy as np

    by_file = module_layers(_repro_root())
    column = {layer: i for i, layer in enumerate(LAYERS)}

    def own_layer(func: FuncKey) -> Optional[str]:
        return by_file.get(os.path.abspath(func[0])) if func[0] != "~" else None

    foreign = [func for func in stats if own_layer(func) is None]
    row = {func: i for i, func in enumerate(foreign)}
    among = np.zeros((len(foreign), len(foreign)))
    absorbed = np.zeros((len(foreign), len(LAYERS)))
    for func in foreign:
        edges = [
            (caller, edge[2], edge[0])
            for caller, edge in stats[func][4].items()
            if caller != func
        ]
        # Weight = self time on that caller's behalf; call counts stand
        # in when the timer resolution rounds every edge to zero.
        pick = 1 if any(tt > 0 for _, tt, _ in edges) else 2
        total = sum(edge[pick] for edge in edges)
        if total <= 0:
            absorbed[row[func], column[OTHER]] = 1.0
            continue
        for edge in edges:
            caller, share = edge[0], edge[pick] / total
            layer = own_layer(caller)
            if layer is not None:
                absorbed[row[func], column[layer]] += share
            else:
                among[row[func], row[caller]] += share
    if foreign:
        landed = np.linalg.lstsq(
            np.eye(len(foreign)) - among, absorbed, rcond=None
        )[0]

    self_s = np.zeros(len(LAYERS))
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, ncalls, tottime, _cum, _callers) in stats.items():
        layer = own_layer(func)
        if layer is not None:
            calls[layer] += ncalls
            self_s[column[layer]] += tottime
        else:
            self_s += tottime * landed[row[func]]
    total = float(self_s.sum())
    return {
        layer: {
            "self_s": float(self_s[column[layer]]),
            "self_share": float(self_s[column[layer]]) / total if total > 0 else 0.0,
            "calls": calls[layer],
        }
        for layer in LAYERS
    }


def cumulative_s(stats: Dict[FuncKey, Any], func: Callable[..., Any]) -> float:
    """Cumulative profile time of one named function (0 if never called)."""
    code = getattr(func, "__func__", func).__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[3] if entry else 0.0
