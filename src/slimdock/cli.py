"""Command-line interface: lint, fix, stats, and the rule listing.

Exit codes are CI-friendly:

* lint: 0 no smells, 1 smells found, 2 a file unreadable, wholly
  unparseable or hit an internal error (the other files are still reported)
* fix:  0 everything repaired, 1 residual smells remain, 2 I/O or parse
  failure, or an internal error on a file
* stats: always 0 unless the root is unusable
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .rules import RULES, RuleId, parse_rule_name
from .runner import (
    DEFAULT_GLOBS,
    PARSE_FAILED,
    CorpusStats,
    FileReport,
    collect_stats,
    discover,
    process_files,
)

RULES_ENV_VAR = "SLIMDOCK_RULES"


def _parse_rules_filter(value: str | None) -> list[RuleId] | None:
    if not value:
        return None
    names = [n.strip() for n in value.split(",") if n.strip()]
    if not names:
        return None
    return [parse_rule_name(n) for n in names]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rules",
        default=os.environ.get(RULES_ENV_VAR),
        help="comma-separated rule ids to check (default: all; "
        f"env {RULES_ENV_VAR})",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--glob",
        action="append",
        default=None,
        metavar="PATTERN",
        help="filename pattern for directory discovery "
        "(repeatable; default: Dockerfile, *.Dockerfile, Dockerfile.*)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="show warnings")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimdock",
        description="Detect and repair size-impacting Dockerfile smells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="report smells without changing files")
    lint.add_argument("paths", nargs="+", help="Dockerfiles or directories")
    _add_common(lint)

    fix = sub.add_parser("fix", help="repair smells")
    fix.add_argument("paths", nargs="+", help="Dockerfiles or directories")
    output = fix.add_mutually_exclusive_group()
    output.add_argument("--in-place", action="store_true", help="rewrite files")
    output.add_argument(
        "--diff", action="store_true", help="print unified diffs to stdout (default)"
    )
    output.add_argument(
        "--output-dir",
        metavar="DIR",
        help="write repaired copies here, at their paths below the inputs' common directory",
    )
    _add_common(fix)

    stats = sub.add_parser("stats", help="per-rule smell counts over a corpus")
    stats.add_argument("root", help="corpus directory")
    _add_common(stats)

    sub.add_parser("rules", help="list supported rules")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "rules":
        return _cmd_rules()
    try:
        rules = _parse_rules_filter(args.rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    globs = tuple(args.glob) if args.glob else DEFAULT_GLOBS
    if args.command == "lint":
        return _cmd_lint(args, rules, globs)
    if args.command == "fix":
        return _cmd_fix(args, rules, globs)
    if args.command == "stats":
        return _cmd_stats(args, rules, globs)
    return 2  # pragma: no cover - argparse enforces the choices


def _cmd_rules() -> int:
    width = max(len(r.id.value) for r in RULES)
    for rule in RULES:
        print(f"{rule.id.value:<{width}}  {rule.description} [auto-fix]")
    return 0


def _diagnostic_json(d) -> dict:
    return {
        "rule": d.rule.value,
        "path": d.file,
        "line": d.line,
        "column": d.column,
        "message": d.message,
        "fixable": d.fixable,
    }


def _file_json(report: FileReport, verbose: bool, **more) -> dict:
    """One file's entry in the JSON of ``lint`` and ``fix``; ``more`` adds
    the keys of ``fix``."""
    return {
        "path": report.path,
        "parse_status": report.status,
        "error": report.error,
        "diagnostics": [_diagnostic_json(d) for d in report.diagnostics],
        "warnings": report.warnings if verbose else [],
        **more,
    }


def _exit_code(reports: list[FileReport], remaining: int, failed: bool = False) -> int:
    """2 if a file failed (or ``failed``), else 1 if smells ``remaining``, else 0."""
    if failed or any(r.error or r.status == PARSE_FAILED for r in reports):
        return 2
    return 1 if remaining else 0


def _print_notes(report: FileReport, verbose: bool) -> None:
    """A file's error and, with ``verbose``, its warnings, on stderr."""
    if report.error:
        print(f"{report.path}: error: {report.error}", file=sys.stderr)
    if verbose:
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)


def _cmd_lint(args, rules, globs) -> int:
    paths = discover(args.paths, globs)
    reports = process_files(paths, rules, fix=False)
    total = sum(len(r.diagnostics) for r in reports)
    code = _exit_code(reports, total)
    if args.format == "json":
        payload = {
            "files": [_file_json(r, args.verbose) for r in reports],
            "summary": {
                "files": len(reports),
                "diagnostics": total,
                "exit_code": code,
            },
        }
        print(json.dumps(payload, indent=2))
        return code
    for report in reports:
        for d in report.diagnostics:
            fixable = " (fixable)" if d.fixable else ""
            print(f"{report.path}:{d.line}:{d.column}: {d.rule.value}: {d.message}{fixable}")
        _print_notes(report, args.verbose)
    print(f"{total} smell(s) in {len(reports)} file(s)")
    return code


def _cmd_fix(args, rules, globs) -> int:
    paths = discover(args.paths, globs)
    reports = process_files(paths, rules, fix=True)
    if args.output_dir and paths:
        # each copy keeps its path below the directory common to the batch
        base = os.path.commonpath([os.path.dirname(os.path.abspath(p)) for p in paths])
    write = args.in_place or args.output_dir
    write_failures = []
    for report in reports:
        if not (write and report.changed):
            continue
        if report.lossy_decode:
            # writing the replaced text would change bytes no repair touched
            write_failures.append(f"{report.path}: not valid UTF-8, not written")
            continue
        dest = report.path
        try:
            if args.output_dir:
                dest = os.path.join(args.output_dir, os.path.relpath(report.path, base))
                os.makedirs(os.path.dirname(dest), exist_ok=True)
            with open(dest, "w", encoding="utf-8") as fh:
                fh.write(report.fixed)
        except OSError as exc:
            write_failures.append(f"{dest}: {exc}")
    for failure in write_failures:
        print(f"error: {failure}", file=sys.stderr)

    residual = sum(len(r.residual) for r in reports)
    code = _exit_code(reports, residual, bool(write_failures))
    statuses = Counter(o.status for r in reports for o in r.repairs)

    if args.format == "json":
        payload = {
            "files": [
                _file_json(
                    r,
                    args.verbose,
                    repairs=[
                        {
                            "rule": o.diagnostic.rule.value,
                            "line": o.diagnostic.line,
                            "status": o.status,
                            "reason": o.reason,
                            "detail": o.detail,
                        }
                        for o in r.repairs
                    ],
                    residual=[_diagnostic_json(d) for d in r.residual],
                    changed=r.changed,
                )
                for r in reports
            ],
            "summary": {
                "files": len(reports),
                "applied": statuses["applied"],
                "rolled_back": statuses["rolled-back"],
                "not_fixable": statuses["not-fixable"],
                "residual": residual,
                "exit_code": code,
            },
        }
        print(json.dumps(payload, indent=2))
        return code

    for report in reports:
        for outcome in report.repairs:
            d = outcome.diagnostic
            if outcome.status == "applied":
                print(f"{report.path}:{d.line}: fixed {d.rule.value}")
            elif outcome.status == "rolled-back":
                print(
                    f"{report.path}:{d.line}: rolled back {d.rule.value}"
                    f" ({outcome.reason}: {outcome.detail})"
                )
            else:
                print(f"{report.path}:{d.line}: not fixable {d.rule.value} ({outcome.reason})")
        if not write and report.changed:
            sys.stdout.write(report.diff())
        _print_notes(report, args.verbose)
    print(
        f"applied {statuses['applied']}, rolled back {statuses['rolled-back']}, "
        f"not fixable {statuses['not-fixable']}, residual {residual}"
    )
    return code


def _stats_table(stats: CorpusStats) -> str:
    name_width = max(len(r.id.value) for r in RULES)
    lines = []
    header = f"{'Docker Smell':<{name_width}}  {'# Docker Smell':>16}  {'# Dockerfile with Smell':>24}"
    lines.append(header)
    lines.append("-" * len(header))
    for rule in RULES:
        lines.append(
            f"{rule.id.value:<{name_width}}  {stats.occurrences[rule.id]:>16}  "
            f"{stats.files_with[rule.id]:>24}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':<{name_width}}  {stats.total_occurrences:>16}  "
        f"{stats.files_with_smell:>24}"
    )
    lines.append("")
    lines.append(
        f"Files scanned: {stats.files_scanned} "
        f"(unique: {stats.files_unique}, failed: {stats.files_failed})"
    )
    lines.append(f"Command enrichment coverage: {stats.coverage:.2%}")
    return "\n".join(lines)


def _cmd_stats(args, rules, globs) -> int:
    if not os.path.exists(args.root):
        print(f"error: no such path: {args.root}", file=sys.stderr)
        return 2
    paths = discover([args.root], globs)
    stats, reports = collect_stats(paths, rules)
    if args.format == "json":
        payload = {
            "rules": {
                rule.id.value: {
                    "occurrences": stats.occurrences[rule.id],
                    "files_with_smell": stats.files_with[rule.id],
                }
                for rule in RULES
            },
            "totals": {
                "occurrences": stats.total_occurrences,
                "files_with_smell": stats.files_with_smell,
            },
            "files_scanned": stats.files_scanned,
            "files_unique": stats.files_unique,
            "files_failed": stats.files_failed,
            "enrichment_coverage": stats.coverage,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(_stats_table(stats))
    for report in reports:
        _print_notes(report, args.verbose and args.format == "text")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
