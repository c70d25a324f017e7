"""Project-wide symbol table, call graph, and taint propagation (pass 3).

The per-file passes in :mod:`repro.lint.visitor` deliberately stop at
file boundaries: determinism hazards (a ``time.time()`` call, a set
iteration) are visible at their source line.  Concurrency hazards are
not — a request handler that looks innocent blocks the event loop three
calls down, inside the store.  This module gives the engine the
project-wide view those rules need:

1. **Symbol pass** — every module is indexed once: functions and
   methods by dotted qualname, classes with their base classes and the
   inferred types of ``self.*`` attributes (from constructor calls,
   parameter annotations, ``Path``-division, and attribute aliasing),
   imports with relative-import resolution.

2. **Body pass** — every function body is walked once more, resolving
   each call to a dotted target: module functions, ``self`` methods
   (through project base classes), methods on attributes or locals of
   inferred type, aliased imports, ``functools.partial`` wrappers, and
   class constructors.  Loop-safe dispatch points
   (``run_in_executor`` / ``asyncio.to_thread`` / executor ``submit`` /
   ``Thread(target=...)`` / ``call_soon_threadsafe``) are *barriers*:
   the dispatched callable produces no call edge, but is recorded as a
   thread entry point (except ``call_soon_threadsafe``, whose target
   runs on the loop — that is the sanctioned bridge ASYNC004 checks
   for).

3. **Propagation** — three fixpoints over the edge set, all worklist
   based and cycle-safe:

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
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .config import LintConfig, LintConfigError, normalize_path
from .findings import Finding
from .visitor import Rule

# ---------------------------------------------------------------------------
# Function markers
# ---------------------------------------------------------------------------

#: ``# repro-lint: hot`` / ``# repro-lint: loop-owned`` on (or directly
#: above) a ``def`` line.
_MARKER = re.compile(r"#\s*repro-lint:\s*(hot|loop-owned)\b")


def _marker_for(lines: Sequence[str], lineno: int) -> Optional[str]:
    """The marker on the def line or the line above it, if any."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines):
            match = _MARKER.search(lines[candidate - 1])
            if match is not None:
                return match.group(1)
    return None


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

#: Constructors / factory calls whose result carries a tracked type tag.
_TYPE_CONSTRUCTORS: Dict[str, str] = {
    "pathlib.Path": "pathlib.Path",
    "socket.socket": "socket.socket",
    "open": "_file",
    "io.open": "_file",
    "os.fdopen": "_file",
    "concurrent.futures.ThreadPoolExecutor": "_executor",
    "concurrent.futures.ProcessPoolExecutor": "_executor",
}

#: Annotation dotted names mapped to type tags (project classes keep
#: their dotted name and are looked up in the class table instead).
_ANNOTATION_TAGS: Dict[str, str] = {
    "pathlib.Path": "pathlib.Path",
    "socket.socket": "socket.socket",
    "concurrent.futures.ThreadPoolExecutor": "_executor",
    "concurrent.futures.ProcessPoolExecutor": "_executor",
}

#: Loop-safe dispatch attributes.  The dispatched callable crosses an
#: execution boundary, so taint must not flow through the call site.
_BARRIER_ATTRS = frozenset(
    {"run_in_executor", "to_thread", "call_soon_threadsafe"}
)

#: Keyword arguments whose value is invoked from a non-loop thread
#: (``threading.Thread(target=...)``, the supervisor's ``on_event``).
_THREAD_KWARGS = frozenset({"target", "on_event"})

#: Stdlib module roots resolvable without an import statement, so a
#: pasted ``time.sleep(...)`` in a scratch checkout still resolves (the
#: CI canary relies on this, mirroring the per-file analyzer).
_STDLIB_ROOTS = frozenset(
    {
        "time", "os", "io", "socket", "subprocess", "tempfile", "shutil",
        "asyncio", "threading", "functools", "urllib", "requests",
        "pathlib", "concurrent",
    }
)


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass
class CallSite:
    """One resolved call inside a function body."""

    lineno: int
    col: int
    #: Dotted target: a project function key, a ``<tag>.<method>``
    #: typed-method target, or an external dotted name.
    target: str


@dataclass
class AllocSite:
    """One allocation-bearing construct (HOT001 raw material)."""

    lineno: int
    col: int
    what: str


@dataclass
class FunctionInfo:
    """One function or method, keyed ``module.Qualname``."""

    key: str
    module: str
    qualname: str
    path: str
    lineno: int
    col: int
    is_async: bool
    class_key: Optional[str] = None
    marker: Optional[str] = None
    #: Resolved return-annotation type tag (drives local inference).
    returns: Optional[str] = None
    #: Parameter name -> type tag from annotations.
    params: Dict[str, str] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)
    allocs: List[AllocSite] = field(default_factory=list)

    @property
    def display(self) -> str:
        return self.qualname


@dataclass
class ClassInfo:
    """One class: bases, methods, and inferred ``self.*`` types."""

    key: str
    module: str
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class BlockCause:
    """Why a function is may-block: the first blocking call inside it."""

    site: CallSite
    #: Root reason when ``site.target`` is external; empty when the
    #: taint arrived transitively (follow the chain instead).
    reason: str = ""


@dataclass
class _ModuleInfo:
    """Per-module context shared between the two passes."""

    name: str
    path: str
    lines: Sequence[str]
    tree: ast.AST
    is_package: bool
    imports: Dict[str, str] = field(default_factory=dict)
    #: Names defined at module top level (classes, functions, aliases).
    top_level: Set[str] = field(default_factory=set)


class CallGraph:
    """The project graph plus the three propagated properties."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.modules: Dict[str, _ModuleInfo] = {}
        #: function key -> first blocking call inside it.
        self.may_block: Dict[str, BlockCause] = {}
        #: function key -> human-readable origin of its hotness.
        self.hot: Dict[str, str] = {}
        #: function key -> how it ends up on a non-loop thread.
        self.thread_ctx: Dict[str, str] = {}
        #: functions marked ``# repro-lint: loop-owned``.
        self.loop_owned: Set[str] = set()
        #: (target dotted, how it was dispatched) for every callable
        #: handed to an executor or thread.
        self._entries: List[Tuple[str, str]] = []

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
# Module naming and imports
# ---------------------------------------------------------------------------


def module_name_for(label: str) -> Tuple[str, bool]:
    """``(dotted module name, is_package)`` for a repo-relative label."""
    norm = normalize_path(label)
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    parts = [part for part in norm.split("/") if part not in (".", "")]
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    is_package = False
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
        is_package = True
    return ".".join(parts), is_package


def _resolve_import_from(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """The absolute module an ``ImportFrom`` refers to, or ``None``."""
    if node.level == 0:
        return node.module
    # Package of the importing module: the module itself if it is a
    # package (__init__), else everything up to the last dot.
    if is_package:
        package_parts = module.split(".") if module else []
    else:
        package_parts = module.split(".")[:-1]
    ascend = node.level - 1
    if ascend > len(package_parts):
        return None
    base = package_parts[: len(package_parts) - ascend]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _resolve_global(info: _ModuleInfo, parts: List[str]) -> Optional[str]:
    """Resolve a dotted chain whose root is an import, a module
    top-level name, or a stdlib module (``open`` alone also resolves)."""
    root, rest = parts[0], parts[1:]
    if root in info.imports:
        return ".".join([info.imports[root]] + rest)
    if root in info.top_level:
        prefix = f"{info.name}.{root}" if info.name else root
        return ".".join([prefix] + rest)
    if root in _STDLIB_ROOTS:
        return ".".join([root] + rest)
    if root == "open" and not rest:
        return "open"
    return None


# ---------------------------------------------------------------------------
# Pass A: symbols, classes, attribute types
# ---------------------------------------------------------------------------


class _SymbolCollector(ast.NodeVisitor):
    """Index one module's functions, classes, imports, and attr types."""

    def __init__(self, info: _ModuleInfo, graph: CallGraph) -> None:
        self.info = info
        self.graph = graph
        self._scope: List[Tuple[str, str]] = []  # (kind, name)
        self._class_stack: List[ClassInfo] = []
        for stmt in getattr(info.tree, "body", []):
            if isinstance(
                stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self.info.top_level.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.info.top_level.add(target.id)

    # -- naming --------------------------------------------------------
    def _qualname(self, name: str) -> str:
        return ".".join([part for _, part in self._scope] + [name])

    def _key(self, name: str) -> str:
        qual = self._qualname(name)
        return f"{self.info.name}.{qual}" if self.info.name else qual

    # -- dotted resolution ---------------------------------------------
    def resolve_dotted(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        return _resolve_global(self.info, parts)

    def annotation_tag(self, node: Optional[ast.AST]) -> Optional[str]:
        """A type tag (or project-class dotted name) for an annotation."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.split("[", 1)[0].strip().strip("'\"")
            if not text:
                return None
            dotted = _resolve_global(self.info, text.split("."))
        elif isinstance(node, ast.Subscript):
            head = node.value
            head_name = None
            if isinstance(head, ast.Name):
                head_name = head.id
            elif isinstance(head, ast.Attribute):
                head_name = head.attr
            if head_name == "Optional":
                return self.annotation_tag(node.slice)
            return None
        elif isinstance(node, (ast.Name, ast.Attribute)):
            dotted = self.resolve_dotted(node)
        else:
            return None
        if dotted is None:
            return None
        return _ANNOTATION_TAGS.get(dotted, dotted)

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".", 1)[0]
            self.info.imports[name] = (
                alias.name if alias.asname else alias.name.split(".", 1)[0]
            )
            if not self._scope:
                self.info.top_level.add(name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _resolve_import_from(
            self.info.name, self.info.is_package, node
        )
        for alias in node.names:
            name = alias.asname or alias.name
            if base is not None:
                self.info.imports[name] = f"{base}.{alias.name}"
            if not self._scope:
                self.info.top_level.add(name)

    # -- classes and functions -----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        key = self._key(node.name)
        info = ClassInfo(key=key, module=self.info.name)
        for base in node.bases:
            resolved = self.resolve_dotted(base)
            if resolved is not None:
                info.bases.append(resolved)
        self.graph.classes[key] = info
        self._scope.append(("class", node.name))
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()
        self._scope.pop()

    def _visit_function(self, node, is_async: bool) -> None:
        key = self._key(node.name)
        in_class = bool(self._scope) and self._scope[-1][0] == "class"
        params: Dict[str, str] = {}
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            tag = self.annotation_tag(arg.annotation)
            if tag is not None:
                params[arg.arg] = tag
        func = FunctionInfo(
            key=key,
            module=self.info.name,
            qualname=self._qualname(node.name),
            path=self.info.path,
            lineno=node.lineno,
            col=node.col_offset,
            is_async=is_async,
            class_key=self._class_stack[-1].key if in_class else None,
            marker=_marker_for(self.info.lines, node.lineno),
            returns=self.annotation_tag(node.returns),
            params=params,
        )
        self.graph.functions[key] = func
        if func.marker == "loop-owned":
            self.graph.loop_owned.add(key)
        if in_class:
            self._class_stack[-1].methods[node.name] = key
        self._scope.append(("function", node.name))
        if in_class:
            self._collect_attr_types(node, params)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, is_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, is_async=True)

    # -- self.* type inference -----------------------------------------
    def _collect_attr_types(self, node, params: Dict[str, str]) -> None:
        """Infer ``self.attr`` types from this method's assignments.

        Statements are scanned in source order, so later assignments may
        use attributes typed by earlier ones (``self.runs_dir =
        self.root / "runs"``).
        """
        cls = self._class_stack[-1]
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.target is not None:
                target, value = stmt.target, stmt.value
                if self._is_self_attr(target):
                    tag = self.annotation_tag(stmt.annotation)
                    if tag is not None:
                        cls.attr_types[target.attr] = tag  # type: ignore[union-attr]
                        continue
            else:
                continue
            if not self._is_self_attr(target):
                continue
            tag = self._value_tag(value, params, cls)
            if tag is not None:
                cls.attr_types[target.attr] = tag  # type: ignore[union-attr]

    @staticmethod
    def _is_self_attr(target: ast.AST) -> bool:
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        )

    def _value_tag(
        self,
        value: Optional[ast.AST],
        params: Dict[str, str],
        cls: ClassInfo,
    ) -> Optional[str]:
        if value is None:
            return None
        if isinstance(value, ast.Call):
            dotted = self.resolve_dotted(value.func)
            if dotted is None:
                return None
            if dotted in _TYPE_CONSTRUCTORS:
                return _TYPE_CONSTRUCTORS[dotted]
            head = dotted.rsplit(".", 1)[-1]
            if head[:1].isupper():  # looks like a constructor
                return dotted
            return None
        if isinstance(value, ast.Name):
            return params.get(value.id)
        if self._is_self_attr(value):
            return cls.attr_types.get(value.attr)  # type: ignore[union-attr]
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Div):
            left = self._value_tag(value.left, params, cls)
            if left == "pathlib.Path":
                return "pathlib.Path"
        return None


# ---------------------------------------------------------------------------
# Pass B: call edges, allocations, thread entries
# ---------------------------------------------------------------------------


class _Frame:
    __slots__ = ("func", "locals", "local_defs")

    def __init__(self, func: FunctionInfo) -> None:
        self.func = func
        self.locals: Dict[str, str] = dict(func.params)
        self.local_defs: Dict[str, str] = {}


class _BodyCollector(ast.NodeVisitor):
    """Collect call edges and allocation sites for one module."""

    def __init__(self, info: _ModuleInfo, graph: CallGraph) -> None:
        self.info = info
        self.graph = graph
        self._scope: List[Tuple[str, str]] = []
        self._frames: List[_Frame] = []
        self._raise_depth = 0

    # -- naming / resolution -------------------------------------------
    def _qualname(self, name: str) -> str:
        return ".".join([part for _, part in self._scope] + [name])

    def _key(self, name: str) -> str:
        qual = self._qualname(name)
        return f"{self.info.name}.{qual}" if self.info.name else qual

    def _class_key(self) -> Optional[str]:
        for index in range(len(self._scope) - 1, -1, -1):
            if self._scope[index][0] == "class":
                names = [name for _, name in self._scope[: index + 1]]
                joined = ".".join(names)
                return (
                    f"{self.info.name}.{joined}" if self.info.name else joined
                )
        return None

    def resolve_parts(self, parts: List[str]) -> Optional[str]:
        root, rest = parts[0], parts[1:]
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if root in frame.local_defs and not rest:
                return frame.local_defs[root]
            tag = frame.locals.get(root)
            if tag is not None:
                if tag.startswith("_partial:") and not rest:
                    return tag
                if len(rest) == 1:
                    return f"{tag}.{rest[0]}"
                if rest:
                    return None
        if root == "self":
            class_key = self._class_key()
            if class_key is not None:
                if len(rest) == 1:
                    attrs = self.graph.classes[class_key].attr_types
                    if rest[0] in attrs:
                        return None  # attribute load, not the method
                    return f"{class_key}.{rest[0]}"
                if len(rest) == 2:
                    attrs = self.graph.classes[class_key].attr_types
                    tag = attrs.get(rest[0])
                    if tag is not None:
                        return f"{tag}.{rest[1]}"
            return None
        return _resolve_global(self.info, parts)

    def resolve(self, node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        return self.resolve_parts(parts)

    def _extract_callable(self, node: ast.AST) -> Optional[str]:
        """The dotted target a callable expression refers to.

        Handles names, attributes, and ``functools.partial(...)``
        wrappers (recursively, for ``partial(partial(f, a), b)``).
        """
        if isinstance(node, ast.Call):
            dotted = self.resolve(node.func)
            if dotted in ("functools.partial", "partial") and node.args:
                return self._extract_callable(node.args[0])
            return None
        resolved = self.resolve(node)
        if resolved is not None and resolved.startswith("_partial:"):
            return resolved[len("_partial:"):]
        return resolved

    # -- scope tracking ------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(("class", node.name))
        self.generic_visit(node)
        self._scope.pop()

    def _visit_function(self, node) -> None:
        key = self._key(node.name)
        func = self.graph.functions.get(key)
        if self._frames and self._raise_depth == 0:
            self._alloc(node, "nested function (closure)")
        if self._frames:
            # A call to the nested def's name resolves to the nested
            # function, so taint can flow through local helpers.
            self._frames[-1].local_defs[node.name] = key
        self._scope.append(("function", node.name))
        if func is not None:
            self._frames.append(_Frame(func))
            for stmt in node.body:
                self.visit(stmt)
            self._frames.pop()
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- allocation sites ----------------------------------------------
    def _alloc(self, node: ast.AST, what: str) -> None:
        if self._frames and self._raise_depth == 0:
            self._frames[-1].func.allocs.append(
                AllocSite(
                    lineno=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    what=what,
                )
            )

    def visit_Raise(self, node: ast.Raise) -> None:
        # Error paths are cold by definition (the raise itself
        # allocates); HOT001 ignores allocations feeding a raise.
        self._raise_depth += 1
        self.generic_visit(node)
        self._raise_depth -= 1

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._alloc(node, "lambda")
        # The body runs later, in an unknown context: no edges.

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._alloc(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._alloc(node, "generator expression")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._alloc(node, "dict literal")
        self.generic_visit(node)

    def visit_List(self, node: ast.List) -> None:
        if isinstance(node.ctx, ast.Load):
            self._alloc(node, "list literal")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._alloc(node, "set literal")
        self.generic_visit(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        self._alloc(node, "f-string")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # Annotations are not evaluated at call time; only the target
        # and value matter.
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    # -- statements ----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        # Track partial(...) bindings and typed locals.
        if self._frames and len(node.targets) == 1 and isinstance(
            node.targets[0], ast.Name
        ):
            tag = self._local_value_tag(node.value)
            frame = self._frames[-1]
            name = node.targets[0].id
            if tag is not None:
                frame.locals[name] = tag
            else:
                frame.locals.pop(name, None)
                frame.local_defs.pop(name, None)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._with_items(node.items)
        self.generic_visit(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with_items(node.items)
        self.generic_visit(node)

    def _with_items(self, items) -> None:
        if not self._frames:
            return
        frame = self._frames[-1]
        for item in items:
            if item.optional_vars is None or not isinstance(
                item.optional_vars, ast.Name
            ):
                continue
            tag = self._local_value_tag(item.context_expr)
            if tag is not None:
                frame.locals[item.optional_vars.id] = tag

    def _local_value_tag(self, value: ast.AST) -> Optional[str]:
        """Type tag for a local assignment's right-hand side."""
        if isinstance(value, ast.Call):
            dotted = self.resolve(value.func)
            if dotted is None:
                return None
            if dotted in ("functools.partial", "partial") and value.args:
                inner = self._extract_callable(value.args[0])
                if inner is not None:
                    return f"_partial:{inner}"
                return None
            if dotted in _TYPE_CONSTRUCTORS:
                return _TYPE_CONSTRUCTORS[dotted]
            resolved = self.graph.resolve_function(dotted)
            if resolved is not None:
                return resolved.returns
            return None
        if isinstance(value, ast.Name) and self._frames:
            return self._frames[-1].locals.get(value.id)
        if isinstance(value, ast.Attribute) and isinstance(
            value.value, ast.Name
        ) and value.value.id == "self":
            class_key = self._class_key()
            if class_key is not None and class_key in self.graph.classes:
                return self.graph.classes[class_key].attr_types.get(
                    value.attr
                )
            return None
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Div):
            left = self._local_value_tag(value.left)
            if left == "pathlib.Path":
                return "pathlib.Path"
        return None

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if not self._frames:
            # Module-level code: import-time blocking is legitimate.
            self.generic_visit(node)
            return
        func_expr = node.func
        attr_name = (
            func_expr.attr if isinstance(func_expr, ast.Attribute) else None
        )

        # --- barriers: executor / thread / loop dispatch ---------------
        if attr_name in _BARRIER_ATTRS:
            self._handle_barrier(node, attr_name)
            return
        if attr_name == "submit":
            receiver = self.resolve(func_expr.value)
            receiver_tag = self._receiver_tag(func_expr.value)
            if receiver_tag == "_executor" or (
                receiver is not None and receiver.endswith("._executor")
            ):
                self._dispatch_entry(node.args[0] if node.args else None,
                                     "executor submit")
                for arg in node.args[1:]:
                    self.visit(arg)
                for keyword in node.keywords:
                    self.visit(keyword.value)
                return

        # --- thread-entry keyword arguments ----------------------------
        for keyword in node.keywords:
            if keyword.arg in _THREAD_KWARGS:
                self._dispatch_entry(
                    keyword.value, f"{keyword.arg}= callback"
                )

        resolved = self.resolve(func_expr)
        if resolved is not None and resolved.startswith("_partial:"):
            # Invoking a local bound to functools.partial(f, ...).
            self._record_call(node, resolved[len("_partial:"):])
        elif resolved in ("functools.partial", "partial"):
            pass  # constructing a partial is metadata, not a call
        elif resolved is not None:
            self._record_call(node, resolved)
        elif isinstance(func_expr, ast.Call):
            # Immediate invocation: partial(f, ...)(...)
            inner_dotted = self.resolve(func_expr.func)
            if inner_dotted in ("functools.partial", "partial"):
                inner = (
                    self._extract_callable(func_expr.args[0])
                    if func_expr.args
                    else None
                )
                if inner is not None:
                    self._record_call(node, inner)
        self.generic_visit(node)

    def _receiver_tag(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name) and self._frames:
            return self._frames[-1].locals.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ) and node.value.id == "self":
            class_key = self._class_key()
            if class_key is not None and class_key in self.graph.classes:
                return self.graph.classes[class_key].attr_types.get(node.attr)
        return None

    def _record_call(self, node: ast.Call, target: str) -> None:
        self._frames[-1].func.calls.append(
            CallSite(lineno=node.lineno, col=node.col_offset, target=target)
        )

    def _handle_barrier(self, node: ast.Call, attr_name: str) -> None:
        """Executor/loop dispatch: no taint edge through the callable."""
        callable_index: Optional[int] = None
        entry_desc: Optional[str] = None
        if attr_name == "run_in_executor":
            callable_index, entry_desc = 1, "run_in_executor"
        elif attr_name == "to_thread":
            callable_index, entry_desc = 0, "asyncio.to_thread"
        elif attr_name == "call_soon_threadsafe":
            # The target runs ON the loop — the sanctioned bridge.  No
            # edge, no thread entry.
            callable_index, entry_desc = 0, None
        for index, arg in enumerate(node.args):
            if index == callable_index:
                if entry_desc is not None:
                    self._dispatch_entry(arg, entry_desc)
                continue
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def _dispatch_entry(
        self, node: Optional[ast.AST], desc: str
    ) -> None:
        if node is None:
            return
        target = self._extract_callable(node)
        if target is not None:
            self.graph._entries.append((target, desc))


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
            callee = graph.functions.get(key)
            if callee is not None and callee.is_async:
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
        origin_func = graph.functions.get(key)
        origin = origin_func.display if origin_func is not None else key
        for callee_key in callees_of.get(key, ()):
            if callee_key in graph.hot:
                continue
            graph.hot[callee_key] = f"called from {origin}"
            worklist.append(callee_key)

    # --- thread context: flows down from dispatch entries -------------
    for target, desc in graph._entries:
        resolved = graph.resolve_function(target)
        if resolved is not None and resolved.key not in graph.thread_ctx:
            graph.thread_ctx[resolved.key] = desc
    worklist = list(graph.thread_ctx)
    while worklist:
        key = worklist.pop()
        desc = graph.thread_ctx[key]
        origin_func = graph.functions.get(key)
        origin = origin_func.display if origin_func is not None else key
        for callee_key in callees_of.get(key, ()):
            if callee_key in graph.thread_ctx:
                continue
            callee = graph.functions.get(callee_key)
            if callee is not None and callee.is_async:
                continue
            graph.thread_ctx[callee_key] = f"called from {origin} ({desc})"
            worklist.append(callee_key)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_call_graph(
    modules: Sequence[Tuple[str, ast.AST, Sequence[str]]],
    config: LintConfig,
) -> CallGraph:
    """Build and propagate the graph for ``(label, tree, lines)`` files."""
    graph = CallGraph()
    infos: List[_ModuleInfo] = []
    for label, tree, lines in modules:
        name, is_package = module_name_for(label)
        info = _ModuleInfo(
            name=name, path=label, lines=lines, tree=tree,
            is_package=is_package,
        )
        infos.append(info)
        graph.modules[name] = info
    for info in infos:
        _SymbolCollector(info, graph).visit(info.tree)
    for info in infos:
        _BodyCollector(info, graph).visit(info.tree)
    _propagate(graph, config)
    return graph


# ---------------------------------------------------------------------------
# Project-scoped rules
# ---------------------------------------------------------------------------


class ProjectRule(Rule):
    """A rule that runs once over the whole-project call graph.

    File rules consume AST events; project rules implement
    :meth:`check` instead and report against graph locations.  The
    engine applies each file's suppression map to project findings
    exactly as it does to per-file ones.
    """

    scope = "project"

    def check(self, graph: CallGraph) -> None:
        raise NotImplementedError

    def report_site(
        self,
        path: str,
        lineno: int,
        col: int,
        message: str,
        suggestion: Optional[str] = None,
    ) -> None:
        self.findings.append(
            Finding(
                path=path,
                line=lineno,
                col=col,
                code=self.code,
                message=message,
                suggestion=suggestion,
            )
        )
