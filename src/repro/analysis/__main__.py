"""Command-line entry: ``python -m repro.analysis [paths]`` / ``repro lint``.

Exit codes follow the usual linter convention: 0 when clean, 1 when
diagnostics survive suppression, 2 on usage/configuration errors
(unknown rule code, unreadable path, corrupt baseline).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.diagnostics import Diagnostic, write_baseline
from repro.analysis.engine import PROFILES, RULES, lint_paths
from repro.exceptions import AnalysisError


def _github_annotation(diag: Diagnostic) -> str:
    """One finding as a GitHub Actions workflow command.

    ``::error file=...,line=...`` lines in a step's stdout become inline
    PR annotations; the message must stay on one line with ``%``, CR and
    LF percent-escaped per the workflow-command spec.
    """
    message = (
        diag.message.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )
    return (
        f"::error file={diag.path},line={diag.line},"
        f"title={diag.code}::{message}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static invariant checks for the repro codebase "
            "(exact undo, plan immutability, determinism, exception "
            "discipline, pickle hygiene, fault-site registry)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="comma/space-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="rule codes to skip",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write surviving findings to FILE as a new baseline and exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        dest="format_",
        metavar="{text,github}",
        help=(
            "output format: 'text' (default) or 'github' workflow "
            "annotations (::error file=...,line=...)"
        ),
    )
    parser.add_argument(
        "--profile",
        choices=PROFILES,
        default="repro",
        help=(
            "lint profile: 'repro' (default, full ruleset with package "
            "scoping) or 'tests' (test/benchmark trees: every file in "
            "scope, wall-clock reads allowed)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule codes and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    try:
        findings = lint_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            baseline=args.baseline,
            profile=args.profile,
        )
    except AnalysisError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        if not args.quiet:
            print(
                f"wrote {len(findings)} finding(s) to {args.write_baseline}"
            )
        return 0
    for diag in findings:
        if args.format_ == "github":
            print(_github_annotation(diag))
        else:
            print(diag.render())
    if not args.quiet:
        n = len(findings)
        label = "finding" if n == 1 else "findings"
        print(f"repro lint: {n} {label}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
