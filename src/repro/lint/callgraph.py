"""The project call graph and its three propagated properties.

DET/PICK hazards are visible at their source line (a ``time.time()``
call, a set iteration).  Concurrency and hot-path hazards are not — a
request handler that looks innocent blocks the event loop three calls
down, inside the store, and an allocation hides in a helper the hot loop
calls.  This module gives the project rules (ASYNC, HOT) that view.

:func:`build_call_graph` is the whole front end after parsing: the index
pass (:mod:`repro.lint.visitor`) over every file first — imports, classes
with their inferred ``self.*`` types, functions with their markers — so
that the body walk (:mod:`repro.lint.visitor`) over each file can
resolve calls into any other.  That walk records every function's call
and allocation sites and the callables handed to threads, while it
dispatches the file rules' events.  Then three fixpoints run over the
resolved edges, all worklist based and cycle-safe:

* *may-block* taint flows **up** the graph from blocking roots
  (``time.sleep``, file/socket/subprocess I/O, ``pathlib.Path``
  methods) to every sync function that can reach one;
* *hotness* flows **down** from functions named in
  ``[tool.repro-lint] hot-paths`` or marked ``# repro-lint: hot`` to
  everything they call;
* *thread context* flows **down** from callables handed to executors
  and threads.

The analysis is best-effort by design: an unresolvable call (dynamic
dispatch, ``getattr``, a callable in a data structure) simply produces
no edge, so every finding traces to a concrete resolved chain the
message can print.  False negatives are accepted; false positives are
suppressible with a rationale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .config import LintConfig, LintConfigError
from .visitor import (
    BodyWalk,
    CallSite,
    ClassInfo,
    FileContext,
    FunctionInfo,
    ModuleIndex,
    Rule,
    index_module,
)
from .visitor import module_name_for  # noqa: F401 - re-exported

# ---------------------------------------------------------------------------
# Blocking roots
# ---------------------------------------------------------------------------

#: Callables that block the calling thread, by resolved dotted name.
BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "sleeps the calling thread",
    "open": "file I/O",
    "io.open": "file I/O",
    "os.fdopen": "file I/O",
    "os.open": "file I/O",
    "os.read": "file I/O",
    "os.write": "file I/O",
    "os.fsync": "file I/O",
    "os.close": "file I/O",
    "os.replace": "file I/O",
    "os.rename": "file I/O",
    "os.remove": "file I/O",
    "os.unlink": "file I/O",
    "os.makedirs": "file I/O",
    "os.mkdir": "file I/O",
    "os.rmdir": "file I/O",
    "os.listdir": "file I/O",
    "os.scandir": "file I/O",
    "os.stat": "file I/O",
    "tempfile.mkstemp": "file I/O",
    "tempfile.mkdtemp": "file I/O",
    "tempfile.NamedTemporaryFile": "file I/O",
    "tempfile.TemporaryDirectory": "file I/O",
    "shutil.copy": "file I/O",
    "shutil.copy2": "file I/O",
    "shutil.copyfile": "file I/O",
    "shutil.copytree": "file I/O",
    "shutil.move": "file I/O",
    "shutil.rmtree": "file I/O",
    "subprocess.run": "waits on a child process",
    "subprocess.call": "waits on a child process",
    "subprocess.check_call": "waits on a child process",
    "subprocess.check_output": "waits on a child process",
    "subprocess.Popen": "spawns a child process",
    "socket.create_connection": "network I/O",
    "socket.getaddrinfo": "synchronous DNS resolution",
    "socket.gethostbyname": "synchronous DNS resolution",
    "urllib.request.urlopen": "network I/O",
    "requests.get": "network I/O",
    "requests.post": "network I/O",
    "requests.request": "network I/O",
}

#: Blocking methods by inferred receiver type tag.
BLOCKING_METHODS: Dict[str, Dict[str, str]] = {
    "pathlib.Path": {
        method: "file I/O"
        for method in (
            "read_text", "read_bytes", "write_text", "write_bytes",
            "open", "unlink", "mkdir", "rmdir", "touch", "rename",
            "replace", "glob", "rglob", "iterdir", "stat", "lstat",
            "exists", "is_file", "is_dir", "samefile", "symlink_to",
            "hardlink_to", "chmod", "resolve",
        )
    },
    "socket.socket": {
        method: "socket I/O"
        for method in (
            "recv", "recv_into", "recvfrom", "recvfrom_into", "send",
            "sendall", "sendto", "accept", "connect", "connect_ex",
            "listen", "makefile", "shutdown",
        )
    },
    "_file": {
        method: "file I/O"
        for method in (
            "read", "readline", "readlines", "write", "writelines",
            "flush", "close", "seek", "truncate",
        )
    },
}


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass
class BlockCause:
    """Why a function is may-block: the first blocking call inside it."""

    site: CallSite
    #: Root reason when ``site.target`` is external; empty when the
    #: taint arrived transitively (follow the chain instead).
    reason: str = ""


class CallGraph:
    """The project graph plus the three propagated properties."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.modules: Dict[str, ModuleIndex] = {}
        #: function key -> first blocking call inside it.
        self.may_block: Dict[str, BlockCause] = {}
        #: function key -> human-readable origin of its hotness.
        self.hot: Dict[str, str] = {}
        #: function key -> how it ends up on a non-loop thread.
        self.thread_ctx: Dict[str, str] = {}
        #: functions marked ``# repro-lint: loop-owned``.
        self.loop_owned: Set[str] = set()

    # -- resolution ----------------------------------------------------
    def resolve_function(self, target: str) -> Optional[FunctionInfo]:
        """A project function for ``target``, walking class bases and
        mapping constructor targets to ``__init__``."""
        direct = self.functions.get(target)
        if direct is not None:
            return direct
        if target in self.classes:
            return self._resolve_method(target, "__init__")
        if "." in target:
            prefix, method = target.rsplit(".", 1)
            if prefix in self.classes:
                return self._resolve_method(prefix, method)
        return None

    def _resolve_method(
        self, class_key: str, method: str
    ) -> Optional[FunctionInfo]:
        seen: Set[str] = set()
        queue = [class_key]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            func_key = info.methods.get(method)
            if func_key is not None:
                return self.functions.get(func_key)
            queue.extend(info.bases)
        return None

    def blocking_reason(self, target: str) -> Optional[str]:
        """Why ``target`` blocks, if it is a known external root."""
        reason = BLOCKING_CALLS.get(target)
        if reason is not None:
            return reason
        if "." in target:
            prefix, method = target.rsplit(".", 1)
            methods = BLOCKING_METHODS.get(prefix)
            if methods is not None and method in methods:
                return methods[method]
        return None

    def chain(self, key: str, limit: int = 6) -> List[str]:
        """The blocking call chain from ``key`` down to its root."""
        parts: List[str] = []
        seen: Set[str] = set()
        current: Optional[str] = key
        while current is not None and current not in seen and len(parts) < limit:
            seen.add(current)
            func = self.functions.get(current)
            parts.append(func.display if func is not None else current)
            cause = self.may_block.get(current)
            if cause is None:
                break
            if cause.reason:
                parts.append(cause.site.target)
                break
            resolved = self.resolve_function(cause.site.target)
            current = resolved.key if resolved is not None else None
            if current is None:
                parts.append(cause.site.target)
        return parts


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def _propagate(graph: CallGraph, config: LintConfig) -> None:
    # Resolved project edges (taint flows through calls, constructors).
    callers_of: Dict[str, List[Tuple[str, CallSite]]] = {}
    callees_of: Dict[str, List[str]] = {}
    for func in graph.functions.values():
        for site in func.calls:
            callee = graph.resolve_function(site.target)
            if callee is None:
                continue
            callers_of.setdefault(callee.key, []).append((func.key, site))
            callees_of.setdefault(func.key, []).append(callee.key)

    # --- may-block: flows up from blocking roots ----------------------
    worklist: List[str] = []
    for func in graph.functions.values():
        for site in func.calls:
            reason = graph.blocking_reason(site.target)
            if reason is not None:
                graph.may_block[func.key] = BlockCause(site, reason)
                worklist.append(func.key)
                break
    while worklist:
        key = worklist.pop()
        for caller_key, site in callers_of.get(key, ()):
            if caller_key in graph.may_block:
                continue
            if graph.functions[key].is_async:
                # Awaiting an async function does not block the caller;
                # the async callee reports its own blocking calls.
                continue
            graph.may_block[caller_key] = BlockCause(site)
            worklist.append(caller_key)

    # --- hotness: flows down from seeds -------------------------------
    configured = set(config.hot_paths)
    for key in sorted(configured.difference(graph.functions)):
        # A seed whose module was linted but whose function is gone
        # (renamed, merged into another class) would silently un-mark
        # everything below it.  Seeds in modules outside the linted
        # paths stay legal: per-package runs share one pyproject.
        parts = key.split(".")
        prefixes = (".".join(parts[:i]) for i in range(1, len(parts)))
        if any(prefix in graph.modules for prefix in prefixes):
            raise LintConfigError(
                f"[tool.repro-lint] hot-paths entry {key!r} matches no "
                f"function in its module; fix the key or HOT001 stops "
                f"covering that path"
            )
    for func in graph.functions.values():
        if func.key in configured:
            graph.hot[func.key] = "listed in [tool.repro-lint] hot-paths"
        elif func.marker == "hot":
            graph.hot[func.key] = "marked '# repro-lint: hot'"
    worklist = list(graph.hot)
    while worklist:
        key = worklist.pop()
        origin = graph.functions[key].display
        for callee_key in callees_of.get(key, ()):
            if callee_key in graph.hot:
                continue
            graph.hot[callee_key] = f"called from {origin}"
            worklist.append(callee_key)

    # --- thread context: flows down from the walk's dispatch entries ---
    worklist = list(graph.thread_ctx)
    while worklist:
        key = worklist.pop()
        desc = graph.thread_ctx[key]
        origin = graph.functions[key].display
        for callee_key in callees_of.get(key, ()):
            if callee_key in graph.thread_ctx:
                continue
            if graph.functions[callee_key].is_async:
                continue
            graph.thread_ctx[callee_key] = f"called from {origin} ({desc})"
            worklist.append(callee_key)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_call_graph(
    modules: Sequence[Tuple[str, ast.AST, Sequence[str]]],
    config: LintConfig,
    file_rules: Sequence[Rule] = (),
) -> CallGraph:
    """Index, walk and propagate the graph for ``(label, tree, lines)``
    files; the walk also runs ``file_rules`` over each file."""
    graph = CallGraph()
    indexes = [
        index_module(label, tree, lines, graph)
        for label, tree, lines in modules
    ]
    set_attrs: Set[str] = set()
    for index in indexes:
        graph.modules[index.name] = index
        set_attrs |= index.set_attr_names
    frozen_attrs = frozenset(set_attrs)
    for index in indexes:
        ctx = FileContext(
            path=index.path,
            clock_allowlisted=config.clock_allowlisted(index.path),
        )
        BodyWalk(index, graph, file_rules, ctx, frozen_attrs).visit(index.tree)
    _propagate(graph, config)
    return graph


# ---------------------------------------------------------------------------
# Project-scoped rules
# ---------------------------------------------------------------------------


class ProjectRule(Rule):
    """A rule that runs once over the whole-project call graph.

    File rules consume AST events; project rules implement
    :meth:`check` instead and report against graph locations
    (:meth:`Rule.report_site`).  The engine applies each file's
    suppression map to project findings exactly as it does to per-file
    ones.
    """

    scope = "project"

    def check(self, graph: CallGraph) -> None:
        raise NotImplementedError
