"""The ``merlin-repro check`` subcommand implementation.

Kept out of :mod:`repro.cli` so the analyzer stays importable and
testable on its own: ``merlin-repro check ARGS`` hands ``ARGS`` to
:func:`run_cli`, so no other subcommand imports the analyzer.  The
CLI reads ``[tool.staticcheck]`` from the nearest ``pyproject.toml``
and writes nothing but the report (stdout, plus ``--output FILE``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.staticcheck.config import CheckConfig, load_config
from repro.staticcheck.engine import (
    all_rules,
    get_rule,
    render_json,
    render_text,
    run_check,
)

# The rules register on package import; pulling the package in here
# keeps `python -m repro.staticcheck.cli`-style direct use working.
import repro.staticcheck.rules  # noqa: F401


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merlin-repro check",
        description="MERLIN-reproduction domain static analyzer")
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyze (default: src/repro)")
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the rendered report to FILE")
    parser.add_argument(
        "--rules", default=None, metavar="ID[,ID...]",
        help="comma-separated rule ids to run (default: all enabled "
             "by [tool.staticcheck] in pyproject.toml)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (sorted by id) and exit")
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore [tool.staticcheck] (run every rule, no excludes)")
    return parser


def _select_rules(args, config: CheckConfig):
    if args.rules:
        wanted = [rid.strip() for rid in args.rules.split(",")
                  if rid.strip()]
        try:
            return [get_rule(rid) for rid in wanted], None
        except KeyError as exc:
            known = ", ".join(sorted(r.id for r in all_rules()))
            return None, (f"unknown rule id {exc.args[0]!r} "
                          f"(known: {known})")
    rules = all_rules()
    if config.enable:
        rules = [r for r in rules if r.id in config.enable]
    if config.disable:
        rules = [r for r in rules if r.id not in config.disable]
    return rules, None


def run_cli(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:17s} {rule.title}")
        return 0
    paths: List[str] = list(args.paths) or ["src/repro"]
    # Usage errors are checked before any analysis or config work: a
    # typo'd path must not silently analyze nothing.
    for path in paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    config = CheckConfig() if args.no_config else load_config(paths[0])
    rules, error = _select_rules(args, config)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    result = run_check(paths, rules=rules, exclude=config.exclude,
                       config_root=config.root)
    report = (render_json(result) if args.format == "json"
              else render_text(result))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
    print(report)
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run_cli())
