"""The unit of lint output: a :class:`Finding`.

Every finding fails the run.  There are no severities: a rule that
should not gate is deleted, and a finding that is acceptable at its
site takes an inline suppression with a rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    #: Short remediation hint ("wrap in sorted(...)", "use
    #: functools.partial"); rendered after the message.
    suggestion: Optional[str] = None

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        text = f"{self.location}: {self.code} {self.message}"
        if self.suggestion:
            text += f" — {self.suggestion}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "suggestion": self.suggestion,
        }


def sort_findings(findings) -> list:
    """Deterministic reporting order: by file, then position, then code."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
