"""Lint configuration, loaded from ``[tool.repro-lint]`` in pyproject.toml.

The config answers three questions the rules cannot answer from the AST
alone: *which* files are linted by default, *where* the wall-clock
boundary lies (DET002's allowlist), and which functions seed HOT001's
hot set.  Everything has a working default so ``repro lint`` runs
usefully even without a pyproject section (or on Python < 3.11 where
``tomllib`` is unavailable).  Keys other than these three are ignored,
so a ``pyproject.toml`` from any commit in history still loads.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple

from ..errors import LintError

try:  # Python >= 3.11; older interpreters fall back to defaults.
    import tomllib
except ImportError:  # pragma: no cover - version-dependent
    tomllib = None  # type: ignore[assignment]


class LintConfigError(LintError):
    """Raised for malformed ``[tool.repro-lint]`` tables."""


@dataclass(frozen=True)
class LintConfig:
    """Effective lint settings for one run."""

    #: Paths linted when the CLI is invoked without positional paths.
    paths: Tuple[str, ...] = ("src",)
    #: Path prefixes where DET002 (wall-clock reads) is allowed.  This
    #: default applies only to a tree with no ``[tool.repro-lint]``
    #: table; this repo's ``pyproject.toml`` sets its own list.
    clock_allowlist: Tuple[str, ...] = ("src/repro/perf",)
    #: Dotted function keys (``module.Qualname``) seeding HOT001's
    #: hot-path propagation, alongside ``# repro-lint: hot`` markers.
    hot_paths: Tuple[str, ...] = ()
    #: Directory the config was loaded from (findings are labelled
    #: relative to it).
    root: Optional[str] = None

    def clock_allowlisted(self, path: str) -> bool:
        """Whether ``path`` (repo-relative) sits inside the clock boundary."""
        norm = normalize_path(path)
        for prefix in self.clock_allowlist:
            pref = normalize_path(prefix)
            if norm == pref or norm.startswith(pref + "/"):
                return True
        return False


def normalize_path(path: str) -> str:
    """Forward-slashed, ``./``-free form used for all path comparisons."""
    norm = posixpath.normpath(str(path).replace("\\", "/"))
    return norm[2:] if norm.startswith("./") else norm


def find_pyproject(start: Path) -> Optional[Path]:
    """The nearest ``pyproject.toml`` at or above ``start``."""
    current = start.resolve()
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _as_str_tuple(table: dict, key: str, where: str) -> Optional[Tuple[str, ...]]:
    if key not in table:
        return None
    value = table[key]
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise LintConfigError(f"{where}.{key} must be a list of strings")
    return tuple(value)


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Load the config for the tree containing ``start`` (default: cwd).

    Missing pyproject, missing ``[tool.repro-lint]`` table, or a Python
    without ``tomllib`` all yield the defaults; a *malformed* table is
    an error — silently ignoring a typo'd config would un-gate CI.
    """
    start = start if start is not None else Path.cwd()
    pyproject = find_pyproject(start)
    if pyproject is None:
        return LintConfig()
    config = LintConfig(root=str(pyproject.parent))
    if tomllib is None:  # pragma: no cover - version-dependent
        return config
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise LintConfigError(f"cannot parse {pyproject}: {exc}") from exc
    table = data.get("tool", {}).get("repro-lint")
    if table is None:
        return config
    if not isinstance(table, dict):
        raise LintConfigError("[tool.repro-lint] must be a table")
    where = "[tool.repro-lint]"
    paths = _as_str_tuple(table, "paths", where)
    if paths is not None:
        config = replace(config, paths=paths)
    allow = _as_str_tuple(table, "clock-allowlist", where)
    if allow is not None:
        config = replace(config, clock_allowlist=allow)
    hot_paths = _as_str_tuple(table, "hot-paths", where)
    if hot_paths is not None:
        config = replace(config, hot_paths=hot_paths)
    return config
