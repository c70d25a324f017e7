"""cProfile plumbing behind the CLI's ``--profile`` flag.

Profiling the simulator is how every hot-path change in this repo is
justified (see docs/architecture.md, "The hot path"), so the workflow
is first-class: ``repro campaign|sync|chaos --profile [OUT]`` runs the
whole command under ``cProfile`` and dumps the hotspot ranking twice —

* ``OUT.txt`` — the classic ``pstats`` table (top N by total time),
  human-readable;
* ``OUT.json`` — the same rows as structured data, for diffing two
  profiles or tracking a hotspot across commits.

Like the memory probes, the profiler observes measurement state only:
it changes no event order and draws no RNG, so a profiled run computes
bit-identical figures to a bare run (it is just
slower — cProfile's tracing hook roughly doubles the wall time of
call-dense simulation loops; compare ``tottime`` ratios, not absolute
seconds, against un-profiled runs).
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
from contextlib import contextmanager
from typing import Dict, Iterator, List

__all__ = ["hotspot_rows", "profile_to"]

#: Hotspots reported per dump (both formats).
DEFAULT_TOP = 30


def hotspot_rows(stats: pstats.Stats, top: int = DEFAULT_TOP) -> List[Dict]:
    """The ``top`` functions by total (self) time, as JSON-ready rows."""
    entries = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: item[1][2],  # tt: time spent in the frame itself
        reverse=True,
    )
    rows = []
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in entries[:top]:
        rows.append(
            {
                "function": funcname,
                "file": filename,
                "line": lineno,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
    return rows


@contextmanager
def profile_to(out_base: str, top: int = DEFAULT_TOP) -> Iterator[cProfile.Profile]:
    """Profile the enclosed block, writing ``OUT.txt`` and ``OUT.json``.

    The text table is also echoed (truncated) to stdout so a profiled
    CLI run surfaces its hotspots without another tool invocation.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        text_buffer = io.StringIO()
        pstats.Stats(profiler, stream=text_buffer).sort_stats(
            "tottime"
        ).print_stats(top)
        text = text_buffer.getvalue()
        with open(out_base + ".txt", "w", encoding="utf-8") as handle:
            handle.write(text)
        stats = pstats.Stats(profiler)
        payload = {
            "sort": "tottime",
            "top": top,
            "total_calls": stats.total_calls,  # type: ignore[attr-defined]
            "total_tt_s": round(stats.total_tt, 4),  # type: ignore[attr-defined]
            "hotspots": hotspot_rows(stats, top),
        }
        with open(out_base + ".json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print()
        print(f"profile: wrote {out_base}.txt and {out_base}.json")
        for line in text.splitlines()[:18]:
            print(line)
