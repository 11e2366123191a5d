"""slimdock: detect and auto-repair size-impacting Dockerfile smells.

The library pipeline is parse -> unify -> enrich -> detect -> repair ->
reprint, with a format-preserving printer that only rewrites what a repair
actually touched. See README.md for the CLI.
"""

from .dockerfile import DockerfileAst, parse_dockerfile
from .enrich import build_unified_ast, enrich, parse_and_enrich
from .model import NodeKind, SourceSpan, UnifiedNode, span_text
from .printer import print_minimal, unified_diff
from .rules import (
    RULES,
    RepairOutcome,
    RuleId,
    SmellDiagnostic,
    detect,
    repair,
    verify_or_rollback,
)
from .runner import CorpusStats, FileReport, analyze_text, collect_stats, fix_text
from .shell import parse_shell

__version__ = "0.1.0"

__all__ = [
    "CorpusStats",
    "DockerfileAst",
    "FileReport",
    "NodeKind",
    "RepairOutcome",
    "RuleId",
    "RULES",
    "SmellDiagnostic",
    "SourceSpan",
    "UnifiedNode",
    "analyze_text",
    "build_unified_ast",
    "collect_stats",
    "detect",
    "enrich",
    "fix_text",
    "parse_and_enrich",
    "parse_dockerfile",
    "parse_shell",
    "print_minimal",
    "repair",
    "span_text",
    "unified_diff",
    "verify_or_rollback",
]
