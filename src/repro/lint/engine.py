"""The lint engine: file discovery, the front end, suppression.

:func:`lint_paths` is the library entry point the CLI and tests share.
It reads parse -> index -> walk -> propagate -> suppress: every file is
parsed once; :func:`repro.lint.callgraph.build_call_graph` indexes each
and walks each once more (:mod:`repro.lint.visitor`), running the file
rules and recording the call graph the project rules then check;
suppression comments filter both kinds of finding.  Every surviving
finding fails the run; the result carries what a front-end needs to
render text or JSON and to compute an exit code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .callgraph import ProjectRule, build_call_graph
from .config import LintConfig, normalize_path
from .findings import Finding, sort_findings
from .rules import all_rules
from .suppressions import SuppressionMap, parse_suppressions

#: Directories never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hg", "node_modules"})


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: All unsuppressed findings, sorted.  Each one gates.
    findings: List[Finding] = field(default_factory=list)
    #: Files that could not be parsed, with the reason.
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Notes that never change the exit code: suppression directives
    #: naming an unknown code, or that silenced nothing in this run.
    diagnostics: List[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def failed(self) -> bool:
        """Whether this run should exit non-zero."""
        return bool(self.parse_errors or self.findings)

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "parse_errors": [
                {"path": path, "error": error}
                for path, error in self.parse_errors
            ],
            "diagnostics": list(self.diagnostics),
            "failed": self.failed,
        }


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered."""
    found: List[Path] = []
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                found.append(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    found.append(candidate)
    return sorted(set(found), key=lambda p: normalize_path(str(p)))


def _relative_label(path: Path, root: Optional[str]) -> str:
    """The repo-relative label findings use for ``path``."""
    resolved = path.resolve()
    if root is not None:
        try:
            return normalize_path(str(resolved.relative_to(Path(root).resolve())))
        except ValueError:
            pass
    try:
        return normalize_path(str(resolved.relative_to(Path.cwd())))
    except ValueError:
        return normalize_path(str(path))


def _parse(path: Path) -> Tuple[Optional[ast.AST], Optional[str], List[str]]:
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, str(exc), []
    lines = source.splitlines()
    try:
        return ast.parse(source, filename=str(path)), None, lines
    except SyntaxError as exc:
        return None, f"syntax error: {exc.msg} (line {exc.lineno})", lines


def lint_paths(
    paths: Iterable[str], config: Optional[LintConfig] = None
) -> LintResult:
    """Lint every Python file under ``paths``."""
    config = config if config is not None else LintConfig()
    result = LintResult()
    modules: List[Tuple[str, ast.AST, List[str]]] = []
    for path in iter_python_files([Path(p) for p in paths]):
        label = _relative_label(path, config.root)
        tree, error, lines = _parse(path)
        if tree is None:
            result.parse_errors.append((label, error or "unreadable"))
            continue
        modules.append((label, tree, lines))
    result.files_checked = len(modules)

    rules = all_rules()
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    graph = build_call_graph(modules, config, file_rules)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            rule.check(graph)

    # Project findings flow through the same per-file suppression maps
    # as per-file ones.
    known_codes = [rule.code for rule in rules]
    suppression_maps: Dict[str, SuppressionMap] = {
        label: parse_suppressions(lines, known_codes)
        for label, _, lines in modules
    }
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.findings:
            file_map = suppression_maps.get(finding.path)
            if file_map is None or not file_map.suppressed(
                finding.line, finding.code
            ):
                findings.append(finding)
        rule.findings = []

    for label, suppressions in suppression_maps.items():
        for note in suppressions.unknown_codes + suppressions.unused():
            result.diagnostics.append(f"{label}: {note}")
    result.findings = sort_findings(findings)
    return result


def render_text(result: LintResult) -> str:
    """Human-readable report."""
    lines: List[str] = []
    for path, error in result.parse_errors:
        lines.append(f"{path}: cannot lint: {error}")
    for finding in result.findings:
        lines.append(finding.render())
    for note in result.diagnostics:
        lines.append(f"note: {note}")
    counts: Dict[str, int] = {}
    for finding in result.findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    summary = ", ".join(
        f"{code}: {count}" for code, count in sorted(counts.items())
    )
    lines.append(
        f"checked {result.files_checked} file(s): "
        f"{len(result.findings)} finding(s)"
        + (f" ({summary})" if summary else "")
    )
    return "\n".join(lines)
