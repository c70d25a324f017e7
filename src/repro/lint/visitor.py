"""The front end: the module index and the body walk.

Every file is parsed once and walked twice.

1. **The index pass** (:func:`index_module`) records, for each file,
   what a body walk cannot learn at the point it needs it: the import
   map, relative imports resolved against the file's own module name
   (``from .store import RunStore`` in ``repro/serve/app.py`` binds
   ``RunStore`` to ``repro.serve.store.RunStore``); the names the module
   binds; every class (bases, methods, the inferred types of its
   ``self.*`` attributes — from constructor calls, parameter
   annotations, ``Path`` division and attribute aliasing) and every
   function (dotted key, ``# repro-lint:`` marker, annotated parameter
   and return types), registered project-wide so another file's body
   can resolve them; and where the sets live (set-typed locals and
   ``self.*`` attributes, and the set-typed attribute *names* DET003
   consults across files).  :meth:`ModuleIndex.resolve` is the one
   resolver: a dotted chain whose root is an import, a top-level name or
   a :data:`FALLBACK_MODULES` root resolves to a dotted target.

2. **The body walk** (:class:`BodyWalk`) runs once every file is
   indexed, and serves both kinds of rule.  *File rules* (DET, PICK)
   subclass :class:`Rule` and implement ``on_*`` hooks: the walk
   resolves each reference through the index — unless a binding in an
   enclosing scope shadows its root — and dispatches *semantic events*
   (a call resolved to ``time.time``, an order-sensitive iteration over
   a set-typed expression, a ``lambda`` handed to a scheduling API).
   *Project rules* (ASYNC, HOT) read the call graph
   (:mod:`repro.lint.callgraph`): as it goes, the walk records into each
   function's :class:`FunctionInfo` every call it can resolve —
   module functions, ``self`` methods (through project base classes),
   methods on typed attributes and locals, aliased imports,
   ``functools.partial`` wrappers, class constructors — and every
   allocation-bearing construct.  Loop-safe dispatch points
   (``run_in_executor`` / ``asyncio.to_thread`` / executor ``submit`` /
   ``call_soon_threadsafe``) are *barriers*: the dispatched callable
   produces no call edge, but is recorded as a thread entry point
   (except ``call_soon_threadsafe``, whose target runs on the loop —
   that is the sanctioned bridge ASYNC004 checks for), as are
   ``Thread(target=...)`` and ``on_event=`` callbacks.  Only function
   bodies record: decorators, defaults and annotations run at
   definition time, and a ``lambda`` body runs later, in an unknown
   context.

Rules therefore contain no traversal code: adding one means subclassing
:class:`Rule` (or :class:`~repro.lint.callgraph.ProjectRule`),
implementing the relevant hooks and registering it in
:mod:`repro.lint.rules` — the walks never change.

The analysis is best-effort: nothing is type-inferred across call
boundaries beyond annotations, and the rules' messages say what was
matched, so a false positive is cheap to suppress with a rationale.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Set,
    Tuple,
)

from .config import normalize_path
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .callgraph import CallGraph

#: Module roots resolved even when the import is missing, so a pasted
#: ``time.time()`` or ``time.sleep(...)`` without its import still
#: resolves (CI's synthetic-violation canaries rely on this).  Maps the
#: bare root to the module it names.
FALLBACK_MODULES: Dict[str, str] = {
    "time": "time",
    "datetime": "datetime",
    "random": "random",
    "numpy": "numpy",
    "np": "numpy",
    "os": "os",
    "io": "io",
    "socket": "socket",
    "subprocess": "subprocess",
    "tempfile": "tempfile",
    "shutil": "shutil",
    "asyncio": "asyncio",
    "threading": "threading",
    "functools": "functools",
    "urllib": "urllib",
    "requests": "requests",
    "pathlib": "pathlib",
    "concurrent": "concurrent",
}

#: Constructors / factory calls whose result carries a tracked type tag.
TYPE_CONSTRUCTORS: Dict[str, str] = {
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

_SET_ANNOTATION_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
)

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


#: Methods that put a callback onto the simulator's event queue.
SCHEDULING_METHODS = frozenset(
    {"schedule", "schedule_at", "call_every", "call_later", "call_at",
     "call_soon"}
)

#: Set methods whose result is itself a set.
_SET_PRODUCING_METHODS = frozenset(
    {"difference", "union", "intersection", "symmetric_difference", "copy"}
)

#: Builtin consumers whose output does not depend on input order.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: Builtin consumers that materialize input order.
ORDER_SENSITIVE_CONSUMERS = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed"}
)

#: Names resolved as builtins when nothing in scope shadows them.
_BUILTINS_OF_INTEREST = frozenset(
    {"id", "hash", "set", "frozenset"} | ORDER_SENSITIVE_CONSUMERS
    | ORDER_INSENSITIVE_CONSUMERS
)

#: Loop-safe dispatch attributes: the position of the dispatched
#: callable, and how it reaches a thread (``None``: it runs on the loop).
#: The callable crosses an execution boundary, so taint must not flow
#: through the call site.
_BARRIERS: Dict[str, Tuple[int, Optional[str]]] = {
    "run_in_executor": (1, "run_in_executor"),
    "to_thread": (0, "asyncio.to_thread"),
    "call_soon_threadsafe": (0, None),
}

#: Keyword arguments whose value is invoked from a non-loop thread
#: (``threading.Thread(target=...)``, the supervisor's ``on_event``).
_THREAD_KWARGS = frozenset({"target", "on_event"})

_PARTIAL = ("functools.partial", "partial")


@dataclass
class FileContext:
    """Everything a rule may consult when handling an event."""

    path: str
    #: True when the file lies inside the DET002 wall-clock allowlist.
    clock_allowlisted: bool = False


class Rule:
    """Base class for lint rules; subclasses implement ``on_*`` hooks."""

    code: str = ""
    name: str = ""
    summary: str = ""
    #: Longer prose for ``repro lint --explain CODE``.
    rationale: str = ""
    #: Worked before/after example for ``--explain CODE`` (optional).
    example: str = ""
    #: "file" rules consume AST events; "project" rules (see
    #: :mod:`repro.lint.callgraph`) run once over the call graph.
    scope: str = "file"

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def report(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        suggestion: Optional[str] = None,
    ) -> None:
        self.report_site(
            ctx.path, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), message, suggestion,
        )

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

    # ------------------------------------------------------------------
    # Event hooks (default: ignore)
    # ------------------------------------------------------------------
    def on_call(self, ctx: FileContext, node: ast.Call, resolved: str) -> None:
        """A call whose target resolved to the dotted name ``resolved``."""

    def on_reference(
        self, ctx: FileContext, node: ast.AST, resolved: str
    ) -> None:
        """A non-call load of a name resolving to ``resolved`` (covers
        callbacks like ``default_factory=time.time``)."""

    def on_iteration(
        self, ctx: FileContext, node: ast.AST, iter_node: ast.AST, context: str
    ) -> None:
        """Order-sensitive iteration over a set-typed expression."""

    def on_set_pop(self, ctx: FileContext, node: ast.Call) -> None:
        """``.pop()`` on a set-typed expression (arbitrary element)."""

    def on_schedule_callback(
        self,
        ctx: FileContext,
        call: ast.Call,
        arg: ast.AST,
        kind: str,
        method: str,
    ) -> None:
        """An unpicklable callback (``kind`` in {"lambda", "nested-def"})
        passed to scheduling method ``method``."""

    def on_lambda_attr(
        self, ctx: FileContext, node: ast.AST, target: str
    ) -> None:
        """A ``lambda`` stored on a ``self`` attribute named ``target``."""


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
    qualname: str
    path: str
    is_async: bool
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
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)


class Scope:
    """One module, class or function scope on a walk's stack."""

    __slots__ = ("kind", "qualname", "bound", "nested_defs")

    def __init__(self, kind: str, qualname: str) -> None:
        self.kind = kind  # "module" | "class" | "function"
        #: Dotted path inside the module ("" for the module itself).
        self.qualname = qualname
        #: Names bound in this scope so far (the file rules' shadow check).
        self.bound: Set[str] = set()
        #: Functions and classes defined directly in this function scope.
        self.nested_defs: Set[str] = set()

    def child(self, kind: str, name: str) -> "Scope":
        return Scope(kind, f"{self.qualname}.{name}" if self.qualname else name)


def enclosing_class(scopes: Sequence[Scope]) -> Optional[Scope]:
    """The innermost class scope on ``scopes``, if any."""
    for scope in reversed(scopes):
        if scope.kind == "class":
            return scope
    return None


def dotted_parts(node: Optional[ast.AST]) -> Optional[List[str]]:
    """``["a", "b", "c"]`` for ``a.b.c``; ``None`` unless a Name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def self_attr(node: Optional[ast.AST]) -> Optional[str]:
    """``X`` for a ``self.X`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def annotation_is_set(node: Optional[ast.AST]) -> bool:
    target = node.value if isinstance(node, ast.Subscript) else node
    parts = dotted_parts(target)
    if parts is not None:
        return parts[-1] in _SET_ANNOTATION_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # `from __future__ import annotations` keeps annotations as AST
        # here, but stringified annotations appear in older code.
        head = node.value.split("[", 1)[0].strip().rsplit(".", 1)[-1]
        return head in _SET_ANNOTATION_NAMES
    return False


def _value_tag(
    value: Optional[ast.AST],
    call_tag: Callable[[ast.Call], Optional[str]],
    names: Dict[str, str],
    cls: Optional["ClassInfo"],
) -> Optional[str]:
    """Type tag of an assigned value: ``call_tag`` types a call,
    ``names`` the names in scope and ``cls`` the ``self.*`` attributes;
    ``Path`` division stays a ``Path``."""
    if isinstance(value, ast.Call):
        return call_tag(value)
    if isinstance(value, ast.Name):
        return names.get(value.id)
    attr = self_attr(value)
    if attr is not None:
        return cls.attr_types.get(attr) if cls is not None else None
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Div):
        if _value_tag(value.left, call_tag, names, cls) == "pathlib.Path":
            return "pathlib.Path"
    return None


def _is_set_value(value: Optional[ast.AST]) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in ("set", "frozenset")
    return False


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


# ---------------------------------------------------------------------------
# The index
# ---------------------------------------------------------------------------


class ModuleIndex:
    """One parsed file and the names it binds."""

    def __init__(self, label: str, tree: ast.AST, lines: Sequence[str]) -> None:
        self.path = label
        self.name, self.is_package = module_name_for(label)
        self.tree = tree
        self.lines = lines
        #: Bound name -> dotted target, relative imports resolved.
        self.imports: Dict[str, str] = {}
        #: Names defined at module top level (classes, functions, aliases).
        self.top_level: Set[str] = set()
        #: Names any module-scope assignment, loop or import binds.
        self.module_bound: Set[str] = set()
        #: (scope qualname, variable name) pairs known to hold a set.
        self.local_sets: Set[Tuple[str, str]] = set()
        #: (class qualname, attribute name) pairs known to hold a set.
        self.attr_sets: Set[Tuple[str, str]] = set()
        #: Attribute names assigned/annotated as sets anywhere in the file
        #: — merged across files into the project-wide table.
        self.set_attr_names: Set[str] = set()

    def qualify(self, qualname: str) -> str:
        """The project-wide key of a name defined in this module."""
        return f"{self.name}.{qualname}" if self.name else qualname

    def resolve(self, parts: List[str]) -> Optional[str]:
        """Resolve a dotted chain whose root is an import, a module
        top-level name, or a fallback module (``open`` alone also
        resolves)."""
        root, rest = parts[0], parts[1:]
        if root in self.imports:
            return ".".join([self.imports[root]] + rest)
        if root in self.top_level:
            return ".".join([self.qualify(root)] + rest)
        if root in FALLBACK_MODULES and rest:
            return ".".join([FALLBACK_MODULES[root]] + rest)
        if root == "open" and not rest:
            return "open"
        return None

    def resolve_node(self, node: ast.AST) -> Optional[str]:
        parts = dotted_parts(node)
        return self.resolve(parts) if parts is not None else None

    def annotation_tag(self, node: Optional[ast.AST]) -> Optional[str]:
        """A type tag (or project-class dotted name) for an annotation."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value.split("[", 1)[0].strip().strip("'\"")
            dotted = self.resolve(text.split("."))
        elif isinstance(node, ast.Subscript):
            head = dotted_parts(node.value)
            if head is not None and head[-1] == "Optional":
                return self.annotation_tag(node.slice)
            return None
        elif isinstance(node, (ast.Name, ast.Attribute)):
            dotted = self.resolve_node(node)
        else:
            return None
        if dotted is None:
            return None
        return _ANNOTATION_TAGS.get(dotted, dotted)


def index_module(
    label: str, tree: ast.AST, lines: Sequence[str], graph: "CallGraph"
) -> ModuleIndex:
    """Index one parsed file, registering its classes and functions in
    ``graph``."""
    index = ModuleIndex(label, tree, lines)
    for stmt in getattr(tree, "body", []):
        if isinstance(
            stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            index.top_level.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    index.top_level.add(target.id)
    _Indexer(index, graph).visit(tree)
    return index


class _Indexer(ast.NodeVisitor):
    """The index pass: one walk over one module."""

    def __init__(self, index: ModuleIndex, graph: "CallGraph") -> None:
        self.index = index
        self.graph = graph
        self._scopes: List[Scope] = [Scope("module", "")]
        #: (class, annotated params) of the method being indexed: its
        #: ``self.*`` assignments type the class's attributes.
        self._method: Optional[Tuple[ClassInfo, Dict[str, str]]] = None

    # -- bindings ------------------------------------------------------
    def _bind_module(self, name: str, defines: bool = False) -> None:
        """Record a module-scope binding; ``defines``: an import, which
        also makes a top-level name."""
        if len(self._scopes) == 1:
            self.index.module_bound.add(name)
            if defines:
                self.index.top_level.add(name)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".", 1)[0]
            self.index.imports[name] = alias.name if alias.asname else name
            self._bind_module(name, defines=True)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _resolve_import_from(
            self.index.name, self.index.is_package, node
        )
        for alias in node.names:
            name = alias.asname or alias.name
            if base is not None:
                self.index.imports[name] = f"{base}.{alias.name}"
            self._bind_module(name, defines=True)

    def _record_target(self, target: ast.AST, is_set: bool) -> None:
        attr = self_attr(target)
        if isinstance(target, ast.Name):
            self._bind_module(target.id)
            pair = (self._scopes[-1].qualname, target.id)
            if is_set:
                self.index.local_sets.add(pair)
            else:
                self.index.local_sets.discard(pair)
        elif attr is not None:
            cls = enclosing_class(self._scopes)
            if cls is None:
                return
            pair = (cls.qualname, attr)
            if is_set:
                self.index.attr_sets.add(pair)
                self.index.set_attr_names.add(attr)
            else:
                self.index.attr_sets.discard(pair)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, False)

    # -- classes and functions -----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        scope = self._scopes[-1].child("class", node.name)
        info = ClassInfo(key=self.index.qualify(scope.qualname))
        for base in node.bases:
            resolved = self.index.resolve_node(base)
            if resolved is not None:
                info.bases.append(resolved)
        self.graph.classes[info.key] = info
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    def _visit_function(self, node) -> None:
        parent = self._scopes[-1]
        scope = parent.child("function", node.name)
        key = self.index.qualify(scope.qualname)
        params: Dict[str, str] = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            tag = self.index.annotation_tag(arg.annotation)
            if tag is not None:
                params[arg.arg] = tag
            if annotation_is_set(arg.annotation):
                self.index.local_sets.add((scope.qualname, arg.arg))
        cls = (
            self.graph.classes[self.index.qualify(parent.qualname)]
            if parent.kind == "class" else None
        )
        func = FunctionInfo(
            key=key,
            qualname=scope.qualname,
            path=self.index.path,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            marker=_marker_for(self.index.lines, node.lineno),
            returns=self.index.annotation_tag(node.returns),
            params=params,
        )
        self.graph.functions[key] = func
        if func.marker == "loop-owned":
            self.graph.loop_owned.add(key)
        outer = self._method
        if cls is not None:
            cls.methods[node.name] = key
            self._method = (cls, params)
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()
        self._method = outer

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    # -- assignments: set facts and self.* types -------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = _is_set_value(node.value)
        for target in node.targets:
            self._record_target(target, is_set)
        if len(node.targets) == 1:
            self._type_attr(node.targets[0], None, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = annotation_is_set(node.annotation) or _is_set_value(
            node.value
        )
        self._record_target(node.target, is_set)
        self._type_attr(node.target, node.annotation, node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._record_target(node.target, False)
        self.generic_visit(node)

    def _type_attr(
        self,
        target: ast.AST,
        annotation: Optional[ast.AST],
        value: Optional[ast.AST],
    ) -> None:
        """Infer a ``self.attr`` type from a method's assignment.

        Assignments are indexed in source order, so later ones may use
        attributes typed by earlier ones (``self.runs_dir = self.root /
        "runs"``).
        """
        attr = self_attr(target)
        if self._method is None or attr is None:
            return
        cls, params = self._method
        tag = self.index.annotation_tag(annotation)
        if tag is None:
            tag = _value_tag(value, self._constructed, params, cls)
        if tag is not None:
            cls.attr_types[attr] = tag

    def _constructed(self, call: ast.Call) -> Optional[str]:
        dotted = self.index.resolve_node(call.func)
        if dotted is None:
            return None
        if dotted in TYPE_CONSTRUCTORS:
            return TYPE_CONSTRUCTORS[dotted]
        head = dotted.rsplit(".", 1)[-1]
        if head[:1].isupper():  # looks like a constructor
            return dotted
        return None


class _Frame:
    """Call-graph state of the function body being walked."""

    __slots__ = ("func", "locals", "local_defs")

    def __init__(self, func: FunctionInfo) -> None:
        self.func = func
        #: Local name -> type tag (``_partial:<target>`` for a local
        #: bound to ``functools.partial(target, ...)``).
        self.locals: Dict[str, str] = dict(func.params)
        #: Nested def name -> its function key, so taint can flow
        #: through local helpers.
        self.local_defs: Dict[str, str] = {}


class BodyWalk(ast.NodeVisitor):
    """The body walk over one indexed module."""

    def __init__(
        self,
        index: ModuleIndex,
        graph: "CallGraph",
        rules: Sequence[Rule],
        ctx: FileContext,
        set_attrs: FrozenSet[str],
    ) -> None:
        self.index = index
        self.graph = graph
        self.rules = rules
        self.ctx = ctx
        #: Set-typed attribute names from the whole linted tree.
        self.set_attrs = set_attrs
        module = Scope("module", "")
        module.bound |= index.module_bound
        self._scopes: List[Scope] = [module]
        #: The function body recording call and allocation sites; None
        #: at module level, in a def's header and in a lambda body.
        self._frame: Optional[_Frame] = None
        self._raise_depth = 0
        #: Generator expressions consumed by order-insensitive builtins
        #: (held by node object, compared by identity).
        self._insensitive_genexps: List[ast.GeneratorExp] = []

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _shadowed(self, root: str) -> bool:
        return root not in self.index.imports and any(
            root in scope.bound for scope in self._scopes
        )

    def rule_name(self, node: ast.AST) -> Optional[str]:
        """The dotted name file rules see for a Name/Attribute chain:
        ``None`` when a binding in scope shadows its root; a bare
        builtin of interest resolves to itself."""
        parts = dotted_parts(node)
        if parts is None:
            return None
        root = parts[0]
        if self._shadowed(root):
            return None
        if len(parts) == 1 and root not in self.index.imports:
            return root if root in _BUILTINS_OF_INTEREST else None
        return self.index.resolve(parts)

    def _class(self) -> Optional[ClassInfo]:
        scope = enclosing_class(self._scopes)
        if scope is None:
            return None
        return self.graph.classes[self.index.qualify(scope.qualname)]

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The call-graph target of a Name/Attribute chain in the
        function body being walked."""
        parts = dotted_parts(node)
        if parts is None:
            return None
        root, rest = parts[0], parts[1:]
        frame = self._frame
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
            cls = self._class()
            if cls is not None:
                if len(rest) == 1:
                    if rest[0] in cls.attr_types:
                        return None  # attribute load, not the method
                    return f"{cls.key}.{rest[0]}"
                if len(rest) == 2:
                    tag = cls.attr_types.get(rest[0])
                    if tag is not None:
                        return f"{tag}.{rest[1]}"
            return None
        return self.index.resolve(parts)

    def _extract_callable(self, node: ast.AST) -> Optional[str]:
        """The dotted target a callable expression refers to.

        Handles names, attributes, and ``functools.partial(...)``
        wrappers (recursively, for ``partial(partial(f, a), b)``).
        """
        if isinstance(node, ast.Call):
            if self.resolve(node.func) in _PARTIAL and node.args:
                return self._extract_callable(node.args[0])
            return None
        resolved = self.resolve(node)
        if resolved is not None and resolved.startswith("_partial:"):
            return resolved[len("_partial:"):]
        return resolved

    def _local_tag(self, value: ast.AST) -> Optional[str]:
        """Type tag for a local assignment's right-hand side."""
        assert self._frame is not None
        return _value_tag(value, self._returned, self._frame.locals,
                          self._class())

    def _returned(self, call: ast.Call) -> Optional[str]:
        dotted = self.resolve(call.func)
        if dotted is None:
            return None
        if dotted in _PARTIAL and call.args:
            inner = self._extract_callable(call.args[0])
            return f"_partial:{inner}" if inner is not None else None
        if dotted in TYPE_CONSTRUCTORS:
            return TYPE_CONSTRUCTORS[dotted]
        resolved = self.graph.resolve_function(dotted)
        return resolved.returns if resolved is not None else None

    # ------------------------------------------------------------------
    # Set-typedness
    # ------------------------------------------------------------------
    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return not self._shadowed(func.id)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCING_METHODS
            ):
                return self.is_set_expr(func.value)
            return False
        if isinstance(node, ast.Name):
            return any(
                (scope.qualname, node.id) in self.index.local_sets
                for scope in self._scopes
            )
        if isinstance(node, ast.Attribute):
            if self_attr(node) is not None:
                cls = enclosing_class(self._scopes)
                if (
                    cls is not None
                    and (cls.qualname, node.attr) in self.index.attr_sets
                ):
                    return True
            return node.attr in self.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _dispatch(self, hook: str, *args) -> None:
        for rule in self.rules:
            getattr(rule, hook)(self.ctx, *args)

    def _visit_children(
        self, node: ast.AST, unrecorded: Sequence[Optional[ast.AST]] = ()
    ) -> None:
        """``generic_visit``; the ``unrecorded`` children are visited for
        the file rules only, recording nothing into the call graph."""
        for _, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else (value,):
                if not isinstance(child, ast.AST):
                    continue
                frame = self._frame
                if any(child is skip for skip in unrecorded):
                    self._frame = None
                self.visit(child)
                self._frame = frame

    def _enter(self, node, kind: str) -> Scope:
        """Bind a def/class name where it is defined; its new scope."""
        outer = self._scopes[-1]
        outer.bound.add(node.name)
        if outer.kind == "function":
            outer.nested_defs.add(node.name)
        return outer.child(kind, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scopes.append(self._enter(node, "class"))
        self.generic_visit(node)
        self._scopes.pop()

    def _visit_function(self, node) -> None:
        """A def: its header records nothing; its body records into its
        own :class:`FunctionInfo`."""
        scope = self._enter(node, "function")
        func = self.graph.functions[self.index.qualify(scope.qualname)]
        outer = self._frame
        if outer is not None:
            self._alloc(node, "nested function (closure)")
            outer.local_defs[node.name] = func.key
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            scope.bound.add(arg.arg)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                scope.bound.add(extra.arg)
        self._scopes.append(scope)
        self._frame = _Frame(func)
        self._visit_children(
            node, [args, *node.decorator_list, node.returns]
        )
        self._scopes.pop()
        self._frame = outer

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def _bind_imports(self, node) -> None:
        for alias in node.names:
            self._scopes[-1].bound.add(
                alias.asname or alias.name.split(".", 1)[0]
            )

    visit_Import = visit_ImportFrom = _bind_imports

    # ------------------------------------------------------------------
    # References and assignments
    # ------------------------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Store):
            self._scopes[-1].bound.add(node.id)
        elif isinstance(node.ctx, ast.Load):
            resolved = self.rule_name(node)
            # Bare builtins stay out of the reference stream except the
            # identity pair, whose hazardous form (``key=id``) is a bare
            # Load.  Calls like ``id(x)`` reach the rules through this
            # same event (the Call's func Name is itself a Load), so
            # call-shaped and reference-shaped uses report exactly once.
            if resolved is not None and (
                "." in resolved or resolved in ("id", "hash")
            ):
                self._dispatch("on_reference", node, resolved)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            resolved = self.rule_name(node)
            if resolved is not None:
                self._dispatch("on_reference", node, resolved)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._scopes[-1].bound.add(target.id)
            attr = self_attr(target)
            if attr is not None and isinstance(node.value, ast.Lambda):
                self._dispatch("on_lambda_attr", node, attr)
        # Track partial(...) bindings and typed locals.
        if (
            self._frame is not None
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            tag = self._local_tag(node.value)
            name = node.targets[0].id
            if tag is not None:
                self._frame.locals[name] = tag
            else:
                self._frame.locals.pop(name, None)
                self._frame.local_defs.pop(name, None)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # Annotations are not evaluated at call time; only the target
        # and value record call-graph sites.
        self._visit_children(node, (node.annotation,))

    def visit_With(self, node) -> None:
        if self._frame is not None:
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    tag = self._local_tag(item.context_expr)
                    if tag is not None:
                        self._frame.locals[item.optional_vars.id] = tag
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        # Module-level code records nothing: import-time blocking is
        # legitimate.
        unrecorded = self._record_call(node) if self._frame else ()
        resolved = self.rule_name(node.func)
        if resolved is not None:
            self._dispatch("on_call", node, resolved)
            if resolved in ORDER_INSENSITIVE_CONSUMERS:
                for arg in node.args:
                    if isinstance(arg, ast.GeneratorExp):
                        self._insensitive_genexps.append(arg)
            elif resolved in ORDER_SENSITIVE_CONSUMERS and node.args:
                if self.is_set_expr(node.args[0]):
                    self._dispatch(
                        "on_iteration", node, node.args[0], f"{resolved}()"
                    )
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in SCHEDULING_METHODS:
                self._check_schedule_args(node, func.attr)
            if func.attr == "join" and node.args and self.is_set_expr(
                node.args[0]
            ):
                self._dispatch("on_iteration", node, node.args[0], "join()")
            if func.attr == "pop" and not node.args and self.is_set_expr(
                func.value
            ):
                self._dispatch("on_set_pop", node)
        self._visit_children(node, unrecorded)

    def _record_call(self, node: ast.Call) -> Tuple[Optional[ast.AST], ...]:
        """Record ``node``'s call site and thread entries; the children
        a barrier dispatches, which record nothing."""
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        barrier = _BARRIERS.get(attr) if attr is not None else None
        if barrier is not None:
            position, desc = barrier
            dispatched = (
                node.args[position] if position < len(node.args) else None
            )
            if desc is not None:
                self._thread_entry(dispatched, desc)
            return func, dispatched
        if isinstance(func, ast.Attribute) and attr == "submit":
            receiver = self.resolve(func.value)
            receiver_tag = (
                self._local_tag(func.value)
                if isinstance(func.value, (ast.Name, ast.Attribute))
                else None
            )
            if receiver_tag == "_executor" or (
                receiver is not None and receiver.endswith("._executor")
            ):
                dispatched = node.args[0] if node.args else None
                self._thread_entry(dispatched, "executor submit")
                return func, dispatched
        for keyword in node.keywords:
            if keyword.arg in _THREAD_KWARGS:
                self._thread_entry(keyword.value, f"{keyword.arg}= callback")
        resolved = self.resolve(func)
        if resolved is not None and resolved.startswith("_partial:"):
            # Invoking a local bound to functools.partial(f, ...).
            self._call_site(node, resolved[len("_partial:"):])
        elif resolved in _PARTIAL:
            pass  # constructing a partial is metadata, not a call
        elif resolved is not None:
            self._call_site(node, resolved)
        elif (
            isinstance(func, ast.Call)
            and self.resolve(func.func) in _PARTIAL
            and func.args
        ):
            # Immediate invocation: partial(f, ...)(...)
            inner = self._extract_callable(func.args[0])
            if inner is not None:
                self._call_site(node, inner)
        return ()

    def _call_site(self, node: ast.Call, target: str) -> None:
        assert self._frame is not None
        self._frame.func.calls.append(
            CallSite(lineno=node.lineno, col=node.col_offset, target=target)
        )

    def _thread_entry(self, node: Optional[ast.AST], desc: str) -> None:
        """Seed thread context at a callable handed to a thread (the
        first dispatch of a function names how it got there)."""
        target = self._extract_callable(node) if node is not None else None
        func = self.graph.resolve_function(target) if target else None
        if func is not None and func.key not in self.graph.thread_ctx:
            self.graph.thread_ctx[func.key] = desc

    def _callback_kind(self, arg: ast.AST) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "lambda"
        if isinstance(arg, ast.Name):
            for scope in reversed(self._scopes):
                if scope.kind == "function" and arg.id in scope.nested_defs:
                    return "nested-def"
        return None

    def _check_schedule_args(self, node: ast.Call, method: str) -> None:
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            # A partial(...) argument schedules the callables it wraps.
            wrapped = [arg]
            if isinstance(arg, ast.Call) and (
                (isinstance(arg.func, ast.Name) and arg.func.id == "partial")
                or (isinstance(arg.func, ast.Attribute)
                    and arg.func.attr == "partial")
            ):
                wrapped = list(arg.args) + [kw.value for kw in arg.keywords]
            for callback in wrapped:
                kind = self._callback_kind(callback)
                if kind is not None:
                    self._dispatch(
                        "on_schedule_callback", node, callback, kind, method
                    )

    # ------------------------------------------------------------------
    # Iteration and allocation sites
    # ------------------------------------------------------------------
    def _alloc(self, node: ast.AST, what: str) -> None:
        if self._frame is not None and self._raise_depth == 0:
            self._frame.func.allocs.append(
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
        self._visit_children(node, (node.args, node.body))

    def visit_For(self, node: ast.For) -> None:
        if self.is_set_expr(node.iter):
            self._dispatch("on_iteration", node, node.iter, "for loop")
        self.generic_visit(node)

    def _comprehension(self, node, what: str, ordered: bool = True) -> None:
        self._alloc(node, what)
        if ordered:
            for comp in node.generators:
                if self.is_set_expr(comp.iter):
                    self._dispatch("on_iteration", node, comp.iter, what)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._comprehension(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        consumed = any(node is marked for marked in self._insensitive_genexps)
        self._comprehension(node, "generator expression", ordered=not consumed)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A SetComp iterating a set is order-irrelevant: the result is a
        # set.
        self._comprehension(node, "set comprehension", ordered=False)

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
