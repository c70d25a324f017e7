"""Per-line and per-file suppression comments.

Two forms, modelled on pylint's but with this tool's name so the two
cannot collide — a ``# repro-lint:`` comment followed by::

    disable=DET002  (why it is safe here)     on the offending line
    disable-file=DET002,DET004                anywhere in the file

A bare ``disable`` (no ``=CODE`` list) silences every rule for that
line.  ``disable-file`` may appear on any line and applies to the whole
file — by convention it sits in the module docstring region with a
rationale next to it.  Suppressions apply to the line a finding is
*reported* on (a statement's first line); trailing text after the code
list is free-form rationale and ignored.

A directive that names an unknown code, or that silenced no finding in
the run, is reported as a note: a suppression that outlived its finding
reads as a claim about the code that is no longer true.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable-file|disable)"
    r"(?:\s*=\s*(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*))?"
)

#: Sentinel meaning "every rule code".
ALL_CODES = "*"


@dataclass
class SuppressionMap:
    """Parsed suppression directives for one file."""

    #: line number (1-based) -> codes disabled on that line.
    by_line: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: codes disabled for the entire file.
    file_wide: FrozenSet[str] = frozenset()
    #: directives whose codes matched no known rule (surfaced as
    #: diagnostics so a typo'd suppression cannot silently rot).
    unknown_codes: List[str] = field(default_factory=list)
    #: ``(line, code)`` of every directive entry that silenced a finding
    #: (line 0: file-wide), recorded by :meth:`suppressed`.
    hits: Set[Tuple[int, str]] = field(default_factory=set)

    def suppressed(self, line: int, code: str) -> bool:
        on_line = self.by_line.get(line, frozenset())
        for where, codes in ((0, self.file_wide), (line, on_line)):
            for entry in (ALL_CODES, code):
                if entry in codes:
                    self.hits.add((where, entry))
                    return True
        return False

    def unused(self) -> List[str]:
        """Notes for directive entries that silenced nothing this run."""
        notes = [
            f"disable-file={code} suppressed nothing"
            for code in sorted(self.file_wide)
            if (0, code) not in self.hits
        ]
        for line in sorted(self.by_line):
            for code in sorted(self.by_line[line]):
                if (line, code) not in self.hits:
                    notes.append(
                        f"line {line}: disable={code} suppressed nothing"
                    )
        return notes


def parse_suppressions(
    source_lines: Sequence[str], known_codes: Sequence[str] = ()
) -> SuppressionMap:
    """Scan raw source lines for ``repro-lint`` directives.

    A regex scan (rather than the tokenizer) deliberately also matches
    directives inside strings; the cost is a pathological false
    suppression nobody writes (this package spells its own examples so
    that they do not match), the benefit is that the scan cannot fail
    on source the AST parser already accepted.
    """
    suppressions = SuppressionMap()
    file_wide: Set[str] = set()
    known = set(known_codes)
    for lineno, text in enumerate(source_lines, start=1):
        if "repro-lint" not in text:
            continue
        for match in _DIRECTIVE.finditer(text):
            raw = match.group("codes")
            if raw is None:
                codes = {ALL_CODES}
            else:
                codes = {part.strip() for part in raw.split(",") if part.strip()}
                if known:
                    for code in sorted(codes - known):
                        suppressions.unknown_codes.append(
                            f"line {lineno}: unknown rule code {code!r} "
                            f"in suppression"
                        )
                    codes &= known  # reported once, as unknown
            if match.group("kind") == "disable-file":
                file_wide |= codes
            else:
                merged = set(suppressions.by_line.get(lineno, frozenset()))
                merged |= codes
                suppressions.by_line[lineno] = frozenset(merged)
    suppressions.file_wide = frozenset(file_wide)
    return suppressions
