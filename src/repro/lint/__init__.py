"""``repro lint`` — determinism, concurrency & hot-path static analysis.

The simulator's two core guarantees — seed-stable runs and bit-identical
kill-and-resume checkpoints — are invariants of *how the code is
written*, not just of what it computes: a single ``time.time()`` in a
simulation path, one iteration over an unsorted ``set``, or a ``lambda``
landing on the event queue silently breaks them.  The serve layer and
the fast lane add two more invariants of the same kind: nothing on the
event loop may block, and nothing on the hot path may allocate.  The
runtime tests catch such regressions after the fact; this package
catches them at review time, from the AST.

Rule catalog
------------
=========  =========================================================
DET001     unseeded global RNG (``random.*`` / ``numpy.random``
           module functions) instead of an injected
           ``sim.random.stream``
DET002     wall-clock reads (``time.time``, ``datetime.now``, ...)
           outside the allowlisted host-time boundary
DET003     ordering-sensitive iteration over ``set`` / ``frozenset``
DET004     ``id()`` / ``hash()`` as tie-breakers or keys
PICK001    ``lambda`` / nested-``def`` callbacks on the event queue
           or stored on snapshot-reachable objects
ASYNC001   blocking call transitively reachable from an ``async
           def`` without ``run_in_executor`` / ``to_thread``
ASYNC004   loop-owned state mutated from thread context without
           ``call_soon_threadsafe``
HOT001     allocation-bearing construct in a hot-path function
           (``[tool.repro-lint] hot-paths`` / ``# repro-lint: hot``)
=========  =========================================================

DET/PICK rules are per-file; ASYNC/HOT rules are interprocedural — they
run over a project-wide call graph (:mod:`repro.lint.callgraph`) that
resolves methods via self-type inference, ``functools.partial``
wrappers, and aliased imports, then propagates may-block taint and
hot-path membership transitively.

Every finding fails the run.  A finding that is right at its site is
suppressed there, with a rationale, by a ``# repro-lint:`` comment: per
line (``disable=DET002``) or per file (``disable-file=DET002``).  A
directive that silences nothing is reported as a note.
"""

from importlib import import_module
from typing import Any

#: Public names by the submodule defining them.  Names load on first
#: use, so ``repro`` commands other than ``lint`` (which import
#: :mod:`repro.lint.cli` to build their parser) never load the analyzer.
_MODULE_EXPORTS = {
    "callgraph": ("CallGraph", "ProjectRule", "build_call_graph"),
    "config": ("LintConfig", "load_config"),
    "engine": ("LintResult", "lint_paths"),
    "findings": ("Finding",),
    "rules": ("FAMILIES", "RULES", "all_rules", "family_of", "get_rule"),
}
_EXPORTS = {
    name: module
    for module, names in _MODULE_EXPORTS.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
