"""Shared AST infrastructure: facts collection and event dispatch.

The engine analyses each file in two passes:

1. :class:`SetTypeCollector` records which names and attributes are
   *set-typed* (assigned from a set expression or annotated ``Set``/
   ``FrozenSet``), plus which names each scope binds — the facts rules
   need but should not each re-derive.

2. :class:`Analyzer` walks the tree once more, resolves dotted
   references through the import map, and dispatches *semantic events*
   (a call resolved to ``time.time``, an iteration over a set-typed
   expression, a ``lambda`` handed to a scheduling API) to every
   registered :class:`Rule`.

Rules therefore contain no traversal code: they subscribe to events and
emit findings.  Adding a rule means subclassing :class:`Rule`,
implementing the relevant ``on_*`` hooks, and registering it in
:mod:`repro.lint.rules` — the walk itself never changes.

The analysis is deliberately intra-file and best-effort: it resolves
imports, ``self`` attributes of the defining class, and (via a
project-wide attribute table built by the engine) set-typed attribute
*names* seen anywhere in the linted tree.  It does not type-infer
across call boundaries; the rules' messages say what was matched so a
false positive is cheap to suppress with a rationale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .findings import Finding

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

#: Modules assumed even when the import is missing, so a pasted
#: ``time.time()`` without its import still resolves (CI's synthetic
#: violation guard relies on this).
_FALLBACK_MODULES = {
    "time": "time",
    "datetime": "datetime",
    "random": "random",
    "numpy": "numpy",
    "np": "numpy",
}

_SET_ANNOTATION_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}
)


@dataclass
class FileFacts:
    """Pass-1 output: where the sets live and what each scope binds."""

    #: (scope key, variable name) pairs known to hold a set.
    local_sets: Set[Tuple[str, str]] = field(default_factory=set)
    #: (class scope key, attribute name) pairs known to hold a set.
    attr_sets: Set[Tuple[str, str]] = field(default_factory=set)
    #: Attribute names assigned/annotated as sets anywhere in the file —
    #: merged across files into the engine's project-wide table.
    set_attr_names: Set[str] = field(default_factory=set)
    #: Names bound at module scope (shadow detection for builtins).
    module_bound: Set[str] = field(default_factory=set)


@dataclass
class FileContext:
    """Everything a rule may consult when handling an event."""

    path: str
    facts: FileFacts
    #: Set-typed attribute names from the whole linted tree.
    global_set_attrs: FrozenSet[str] = frozenset()
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
        self.findings.append(
            Finding(
                path=ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
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


class _ScopeFrame:
    __slots__ = ("kind", "name", "bound", "local_defs")

    def __init__(self, kind: str, name: str) -> None:
        self.kind = kind  # "module" | "class" | "function"
        self.name = name
        self.bound: Set[str] = set()
        self.local_defs: Set[str] = set()


def _scope_key(frames: Sequence[_ScopeFrame]) -> str:
    return "/".join(frame.name for frame in frames if frame.name)


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    target = node.value if isinstance(node, ast.Subscript) else node
    if isinstance(target, ast.Name):
        return target.id in _SET_ANNOTATION_NAMES
    if isinstance(target, ast.Attribute):
        return target.attr in _SET_ANNOTATION_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # `from __future__ import annotations` keeps annotations as AST
        # here, but stringified annotations appear in older code.
        head = node.value.split("[", 1)[0].strip().rsplit(".", 1)[-1]
        return head in _SET_ANNOTATION_NAMES
    return False


class SetTypeCollector(ast.NodeVisitor):
    """Pass 1: record set-typed bindings and scope-bound names."""

    def __init__(self) -> None:
        self.facts = FileFacts()
        self._frames: List[_ScopeFrame] = [_ScopeFrame("module", "")]

    # -- scope management ------------------------------------------------
    def _enter(self, kind: str, name: str, node: ast.AST) -> None:
        self._frames[-1].bound.add(name)
        self._frames.append(_ScopeFrame(kind, name))
        self.generic_visit(node)
        self._frames.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._collect_params(node)
        self._enter("function", node.name, node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._collect_params(node)
        self._enter("function", node.name, node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter("class", node.name, node)

    def _collect_params(self, node) -> None:
        # Params are bound in the *function's* scope, which is entered
        # next; record set-typed params against that scope key.
        scope = _scope_key(self._frames) + (
            "/" if _scope_key(self._frames) else ""
        ) + node.name
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if _annotation_is_set(arg.annotation):
                self.facts.local_sets.add((scope, arg.arg))

    # -- binding collection ---------------------------------------------
    def _bind(self, name: str) -> None:
        self._frames[-1].bound.add(name)
        if len(self._frames) == 1:
            self.facts.module_bound.add(name)

    def _is_set_value(self, value: Optional[ast.AST]) -> bool:
        if value is None:
            return False
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            return value.func.id in ("set", "frozenset")
        return False

    def _record_target(self, target: ast.AST, is_set: bool) -> None:
        scope = _scope_key(self._frames)
        if isinstance(target, ast.Name):
            self._bind(target.id)
            pair = (scope, target.id)
            if is_set:
                self.facts.local_sets.add(pair)
            else:
                self.facts.local_sets.discard(pair)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            class_scope = self._enclosing_class_key()
            if class_scope is None:
                return
            pair = (class_scope, target.attr)
            if is_set:
                self.facts.attr_sets.add(pair)
                self.facts.set_attr_names.add(target.attr)
            else:
                self.facts.attr_sets.discard(pair)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, False)

    def _enclosing_class_key(self) -> Optional[str]:
        for index in range(len(self._frames) - 1, -1, -1):
            if self._frames[index].kind == "class":
                return _scope_key(self._frames[: index + 1])
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_value(node.value)
        for target in node.targets:
            self._record_target(target, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = _annotation_is_set(node.annotation) or self._is_set_value(
            node.value
        )
        self._record_target(node.target, is_set)
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._bind(alias.asname or alias.name.split(".", 1)[0])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._bind(alias.asname or alias.name)

    def visit_For(self, node: ast.For) -> None:
        self._record_target(node.target, False)
        self.generic_visit(node)


class Analyzer(ast.NodeVisitor):
    """Pass 2: resolve references and dispatch events to the rules."""

    def __init__(self, ctx: FileContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self.rules = list(rules)
        self._frames: List[_ScopeFrame] = [_ScopeFrame("module", "")]
        self._frames[0].bound |= ctx.facts.module_bound
        self._imports: Dict[str, str] = {}
        #: Generator expressions consumed by order-insensitive builtins
        #: (held by node object, compared by identity).
        self._insensitive_genexps: List[ast.GeneratorExp] = []

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _dotted_parts(self, node: ast.AST) -> Optional[List[str]]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        return parts

    def _root_is_shadowed(self, root: str) -> bool:
        for frame in reversed(self._frames):
            if root in frame.bound and root not in self._imports:
                return True
        return False

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted target of a Name/Attribute chain, or ``None``."""
        parts = self._dotted_parts(node)
        if parts is None:
            return None
        root, rest = parts[0], parts[1:]
        if root in self._imports:
            return ".".join([self._imports[root]] + rest)
        if self._root_is_shadowed(root):
            return None
        if root in _FALLBACK_MODULES and rest:
            return ".".join([_FALLBACK_MODULES[root]] + rest)
        if not rest and root in _BUILTINS_OF_INTEREST:
            return root
        return None

    # ------------------------------------------------------------------
    # Set-typedness
    # ------------------------------------------------------------------
    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return not self._root_is_shadowed(func.id)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCING_METHODS
            ):
                return self.is_set_expr(func.value)
            return False
        if isinstance(node, ast.Name):
            for index in range(len(self._frames), 0, -1):
                key = (_scope_key(self._frames[:index]), node.id)
                if key in self.ctx.facts.local_sets:
                    return True
            return False
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                class_key = self._enclosing_class_key()
                if (
                    class_key is not None
                    and (class_key, node.attr) in self.ctx.facts.attr_sets
                ):
                    return True
            return node.attr in self.ctx.global_set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def _enclosing_class_key(self) -> Optional[str]:
        for index in range(len(self._frames) - 1, -1, -1):
            if self._frames[index].kind == "class":
                return _scope_key(self._frames[: index + 1])
        return None

    # ------------------------------------------------------------------
    # Scope tracking
    # ------------------------------------------------------------------
    def _enter_scope(self, kind: str, node, params: bool = False) -> None:
        self._frames[-1].bound.add(node.name)
        if self._frames[-1].kind == "function":
            self._frames[-1].local_defs.add(node.name)
        frame = _ScopeFrame(kind, node.name)
        if params:
            args = node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                frame.bound.add(arg.arg)
            if args.vararg is not None:
                frame.bound.add(args.vararg.arg)
            if args.kwarg is not None:
                frame.bound.add(args.kwarg.arg)
        self._frames.append(frame)
        self.generic_visit(node)
        self._frames.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope("function", node, params=True)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope("function", node, params=True)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_scope("class", node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".", 1)[0]
            self._imports[name] = alias.name if alias.asname else name
            self._frames[-1].bound.add(name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            # Relative imports stay unresolved: in-package modules are
            # this tool's *subjects*, not hazard sources.
            for alias in node.names:
                self._frames[-1].bound.add(alias.asname or alias.name)
            return
        for alias in node.names:
            name = alias.asname or alias.name
            self._imports[name] = f"{node.module}.{alias.name}"
            self._frames[-1].bound.add(name)

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, hook: str, *args) -> None:
        for rule in self.rules:
            getattr(rule, hook)(self.ctx, *args)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Store):
            self._frames[-1].bound.add(node.id)
        elif isinstance(node.ctx, ast.Load):
            resolved = self.resolve(node)
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
            resolved = self.resolve(node)
            if resolved is not None:
                self._dispatch("on_reference", node, resolved)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._frames[-1].bound.add(target.id)
            if (
                isinstance(node.value, ast.Lambda)
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self._dispatch("on_lambda_attr", node, target.attr)
        self.generic_visit(node)

    def _callback_kind(self, arg: ast.AST) -> Optional[str]:
        if isinstance(arg, ast.Lambda):
            return "lambda"
        if isinstance(arg, ast.Name):
            for frame in reversed(self._frames):
                if frame.kind != "function":
                    continue
                if arg.id in frame.local_defs:
                    return "nested-def"
        return None

    def _check_schedule_args(self, node: ast.Call, method: str) -> None:
        candidates = list(node.args) + [kw.value for kw in node.keywords]
        for arg in candidates:
            kind = self._callback_kind(arg)
            if kind is not None:
                self._dispatch("on_schedule_callback", node, arg, kind, method)
            elif isinstance(arg, ast.Call):
                func = arg.func
                is_partial = (
                    isinstance(func, ast.Name) and func.id == "partial"
                ) or (
                    isinstance(func, ast.Attribute) and func.attr == "partial"
                )
                if is_partial:
                    for inner in list(arg.args) + [
                        kw.value for kw in arg.keywords
                    ]:
                        inner_kind = self._callback_kind(inner)
                        if inner_kind is not None:
                            self._dispatch(
                                "on_schedule_callback",
                                node,
                                inner,
                                inner_kind,
                                method,
                            )

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.resolve(node.func)
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
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self.is_set_expr(node.iter):
            self._dispatch("on_iteration", node, node.iter, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node, label: str) -> None:
        for comp in node.generators:
            if self.is_set_expr(comp.iter):
                self._dispatch("on_iteration", node, comp.iter, label)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        if any(node is marked for marked in self._insensitive_genexps):
            self.generic_visit(node)
            return
        self._check_comprehension(node, "generator expression")

    # SetComp iterating a set is order-irrelevant: the result is a set.


def collect_facts(tree: ast.AST) -> FileFacts:
    """Run pass 1 over a parsed module."""
    collector = SetTypeCollector()
    collector.visit(tree)
    return collector.facts


def run_rules(
    tree: ast.AST, ctx: FileContext, rules: Sequence[Rule]
) -> List[Finding]:
    """Run pass 2, returning all findings the rules emitted."""
    Analyzer(ctx, rules).visit(tree)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.findings)
        rule.findings = []
    return findings
