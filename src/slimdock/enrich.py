"""Unified-AST construction and semantic enrichment.

``build_unified_ast`` embeds each RUN payload's shell tree under its
DOCKER-RUN node (``embed_run`` does one RUN; shell form and exec ``sh -c``
form get an SC-SCRIPT; other exec forms get one SC-SIMPLE-COMMAND built
from the array), with all spans rebased into file coordinates.

``enrich`` then attaches semantic annotations: for every simple command
whose effective command (after looking through wrappers like sudo/env)
matches a registered schema, the command word, subcommand word, recognized
flags, and positional arguments get role labels. Unknown commands receive
no annotations, and a variable-valued command name is never enriched.
Enrichment is idempotent and touches only annotations, never text or
spans. It is the last step that changes the tree: repairs only read it.
"""

from __future__ import annotations

import re

from . import shell
from .dockerfile import DockerfileAst
from .model import NodeKind, UnifiedNode
from .schemas import (
    WRAPPERS,
    CommandSchema,
    FlagSpec,
    YARN_IMPLICIT_INSTALL,
    schema_for,
)

_ASSIGN_WORD_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")
_OLD_STYLE_RE = re.compile(r"^[A-Za-z]+$")


def build_unified_ast(ast: DockerfileAst) -> DockerfileAst:
    """Embed every RUN payload's shell tree; safe to call twice."""
    for run in ast.runs():
        embed_run(ast, run)
    return ast


def embed_run(ast: DockerfileAst, run: UnifiedNode) -> None:
    """Embed the shell tree of one RUN of ``ast``, unless it has one."""
    form = run.prop("run_form")
    src = run.prop("_script_src")
    if src is None or run.children:
        return
    line = run.prop("_line", 1)
    shell_warnings: list[str] = []

    if form == "exec-array":
        elems = run.prop("_exec_elems") or []
        cmd = UnifiedNode(NodeKind.SC_SIMPLE_COMMAND)
        if elems:
            cmd.span = src.span(elems[0][1], elems[-1][2])
        else:
            flags_end = run.prop("_flags_end", 0)
            cmd.span = src.span(flags_end, flags_end)
        cmd.props["exec_array"] = True
        for value, s, e, _esc in elems:
            word = UnifiedNode(NodeKind.SC_WORD, src.span(s, e), literal=src.clean[s:e])
            word.props["text"] = value
            word.props["quoting"] = "double"
            cmd.add_child(word)
        run.add_child(cmd)
        return

    start, end = run.prop("_script_region")
    if form == "exec-shell" and run.prop("_script_escaped"):
        # escapes shift offsets inside the JSON string; keep it opaque
        # rather than attach wrong spans
        script = UnifiedNode(NodeKind.SC_SCRIPT, src.span(start, end))
        script.add_child(UnifiedNode(NodeKind.SC_UNPARSED, src.span(start, end)))
        ast.warnings.append(
            f"{ast.path}:{line}: exec-form payload with escapes left unparsed"
        )
        run.add_child(script)
        return

    script = shell.parse_shell(
        src.clean, span_builder=src.span, warnings=shell_warnings, region=(start, end)
    )
    run.add_child(script)
    for w in shell_warnings:
        ast.warnings.append(f"{ast.path}:{line}: {w}")


# ---------------------------------------------------------------------------
# Wrapper resolution
# ---------------------------------------------------------------------------


def command_words(cmd: UnifiedNode) -> list[UnifiedNode]:
    """Argument words of a simple command, excluding redirection targets."""
    return [c for c in cmd.children if c.kind is NodeKind.SC_WORD]


def _resolve(words: list[UnifiedNode]) -> tuple[int | None, list[tuple[int, str]]]:
    """Effective command index plus (index, label) pairs for wrapper words."""
    marks: list[tuple[int, str]] = []
    i = 0
    while i < len(words):
        text = shell.word_text(words[i])
        policy = WRAPPERS.get(text)
        if policy is None:
            return i, marks
        if policy.label:
            marks.append((i, policy.label))
        i += 1
        while i < len(words):
            t = shell.word_text(words[i])
            if policy.consumes_assignments and _ASSIGN_WORD_RE.match(t):
                i += 1
                continue
            if t in policy.flags_with_value:
                i += 2
                continue
            if t.startswith("--") and "=" in t and t.split("=", 1)[0] in policy.flags_with_value:
                i += 1
                continue
            if t in policy.flags_no_value:
                i += 1
                if t == "--":
                    return (i, marks) if i < len(words) else (None, marks)
                continue
            break
    return None, marks


def resolve_wrappers(cmd: UnifiedNode) -> int | None:
    """Index of the first word that is the effective command, or None when
    every word is consumed by wrappers and their options."""
    index, _ = _resolve(command_words(cmd))
    return index


# ---------------------------------------------------------------------------
# Enrichment
# ---------------------------------------------------------------------------


def _flag_lookup(schema: CommandSchema, name: str) -> FlagSpec | None:
    for flag in schema.flags:
        if name in flag.names:
            return flag
    return None


def _short_flag_lookup(schema: CommandSchema, letter: str) -> FlagSpec | None:
    return _flag_lookup(schema, "-" + letter)


def enrich_statement(cmd: UnifiedNode) -> bool:
    """Annotate one simple command. Returns True when a schema matched."""
    words = command_words(cmd)
    if not words:
        return False
    eff, marks = _resolve(words)
    for idx, label in marks:
        words[idx].annotate(label)
    if eff is None:
        return False
    name_word = words[eff]
    text = shell.word_text(name_word)
    if not text or shell.contains_variable(text):
        return False
    name = text.rsplit("/", 1)[-1] if "/" in text else text
    schema = schema_for(name)
    if schema is None or not schema.enrich:
        return False
    name_word.annotate(schema.command_label())
    _walk_args(schema, name_word, words[eff + 1 :])
    return True


def _walk_args(
    schema: CommandSchema, command_word: UnifiedNode, args: list[UnifiedNode]
) -> None:
    sub_level = schema.subcommands
    sub_spec = None
    matched_sub = False
    pending: FlagSpec | None = None
    saw_help_like = False
    first_arg = True

    for word in args:
        t = shell.word_text(word)
        is_first = first_arg
        first_arg = False
        if pending is not None:
            if pending.value_role:
                word.annotate(schema.role_label(pending.value_role))
            pending = None
            continue
        if t.startswith("--") and len(t) > 2:
            name, eq, _val = t.partition("=")
            flag = _flag_lookup(schema, name)
            if flag is not None:
                word.annotate(schema.flag_label(flag.canon))
                if flag.semantic:
                    command_word.annotate(flag.semantic)
                if flag.canon in ("VERSION", "HELP"):
                    saw_help_like = True
                if flag.takes_value and not eq:
                    pending = flag
            continue
        if t.startswith("-") and len(t) > 1 and t != "--":
            flag = _flag_lookup(schema, t)
            if flag is not None:
                word.annotate(schema.flag_label(flag.canon))
                if flag.semantic:
                    command_word.annotate(flag.semantic)
                if flag.canon in ("VERSION", "HELP"):
                    saw_help_like = True
                if flag.takes_value:
                    pending = flag
            elif schema.bundled_shorts:
                pending = _annotate_bundle(schema, command_word, word, t[1:]) or pending
            continue
        if (
            schema.old_style_first_word
            and is_first
            and _OLD_STYLE_RE.match(t)
            and all(_short_flag_lookup(schema, ch) for ch in t)
        ):
            pending = _annotate_bundle(schema, command_word, word, t) or pending
            continue
        if sub_level and t in sub_level:
            spec = sub_level[t]
            word.annotate(schema.sub_label(spec.canon))
            sub_spec = spec
            sub_level = spec.children
            matched_sub = True
            continue
        role = sub_spec.positional_role if sub_spec else None
        if role is None and not schema.subcommands:
            role = schema.positional_role
        if role:
            word.annotate(schema.role_label(role))

    # bare `yarn` (flags only) means `yarn install`
    if schema.label == "YARN" and not matched_sub and not saw_help_like:
        command_word.annotate(YARN_IMPLICIT_INSTALL)


def _annotate_bundle(
    schema: CommandSchema, command_word: UnifiedNode, word: UnifiedNode, letters: str
) -> FlagSpec | None:
    """Annotate a combined short-flag cluster; returns a value-consuming
    flag when one is present (its value is the next word, as in tar -xzf)."""
    pending: FlagSpec | None = None
    for ch in letters:
        flag = _short_flag_lookup(schema, ch)
        if flag is None:
            continue
        word.annotate(schema.flag_label(flag.canon))
        if flag.semantic:
            command_word.annotate(flag.semantic)
        if flag.takes_value:
            pending = flag
    return pending


def enrich_node(root: UnifiedNode) -> tuple[int, int]:
    """Enrich every simple command in a subtree.

    Returns (commands that matched a schema, commands with at least one
    word); the ratio is the schema coverage figure reported by stats.
    """
    matched = 0
    total = 0
    for node in root.walk():
        if node.kind is not NodeKind.SC_SIMPLE_COMMAND:
            continue
        if not command_words(node):
            continue
        total += 1
        if enrich_statement(node):
            matched += 1
    return matched, total


def enrich(ast: DockerfileAst) -> DockerfileAst:
    """Annotate every RUN subtree in the file; idempotent."""
    matched = 0
    total = 0
    for run in ast.runs():
        m, t = enrich_node(run)
        matched += m
        total += t
    ast.root.props["enrich_stats"] = (matched, total)
    return ast


def parse_and_enrich(text: str, path: str = "<memory>") -> DockerfileAst:
    """Convenience pipeline: parse, embed shell trees, and annotate."""
    from .dockerfile import parse_dockerfile

    return enrich(build_unified_ast(parse_dockerfile(text, path)))
