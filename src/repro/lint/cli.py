"""CLI glue for ``repro lint``.

Exit codes: 0 — clean; 1 — findings or unparseable files; 2 — usage or
configuration problems (bad rule code, malformed ``[tool.repro-lint]``,
stale ``hot-paths`` seed).
"""

from __future__ import annotations

import argparse
import json
import textwrap

from ..errors import LintError

# The config loader, engine and rule catalog are imported inside the
# functions that use them: every ``repro`` command builds this parser,
# and only ``repro lint`` should pay for loading the analyzer.


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` options to an argparse parser."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: [tool.repro-lint] "
        "paths, i.e. src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain", type=str, default=None, metavar="CODE",
        help="print one rule's full rationale and exit",
    )
    parser.set_defaults(func=run_from_args)


def _print_catalog() -> None:
    from .rules import FAMILIES, RULES, family_of

    families: dict = {}
    for code in sorted(RULES):
        families.setdefault(family_of(code), []).append(code)
    first = True
    for family in sorted(families):
        if not first:
            print()
        first = False
        print(f"{family} — {FAMILIES.get(family, 'other')}")
        for code in families[family]:
            rule = RULES[code]
            print(f"  {code}  {rule.summary}")


def _print_explanation(code: str) -> None:
    from .rules import get_rule

    rule = get_rule(code)
    print(f"{rule.code} ({rule.name})")
    print(f"  {rule.summary}")
    print()
    print(textwrap.fill(rule.rationale, width=76, initial_indent="  ",
                        subsequent_indent="  "))
    if rule.example:
        print()
        print("  example:")
        print()
        for line in rule.example.splitlines():
            print(f"  {line}" if line else "")
    print()
    print("  suppress with: # repro-lint: "
          f"disable={rule.code}  (rationale)")


def run_from_args(args: argparse.Namespace) -> int:
    try:
        return _run(args)
    except LintError as exc:
        print(f"repro lint: {exc}")
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.list_rules:
        _print_catalog()
        return 0
    if args.explain is not None:
        _print_explanation(args.explain)
        return 0

    from .config import load_config
    from .engine import lint_paths, render_text

    config = load_config()
    paths = args.paths if args.paths else list(config.paths)
    result = lint_paths(paths, config)
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_text(result))
    return 1 if result.failed else 0
