"""Unified-AST construction and semantic enrichment.

``build_unified_ast`` parses the shell region of each RUN (shell form, or
the string of an exec ``sh -c``) into an SC-SCRIPT under its DOCKER-RUN
node (``embed_run`` does one RUN), with spans in file coordinates. The
Dockerfile parser decides each RUN's form and builds the other trees.

``enrich`` then attaches semantic annotations: for every simple command
whose effective command (the first operand of wrappers like ``sudo -Eu
app`` or ``env A=1``) matches a schema, the command word,
subcommand word, the flags the schema lists, and positional arguments with
a role get labels. The wrapper words themselves get none. Unknown commands
receive no annotations, and a variable-valued command name is never enriched.

Option words, a wrapper's too, are read as getopt reads them (``_options``):
``--name=value`` carries its value; in a ``-abc`` cluster the first
value-taking letter takes the rest of the word, and a letter the table does
not know ends the reading, since the rest may be its value; tar's old-style
first word (``xzf``, every letter known) names its letters. Flags still
waiting for a value take the following words in letter order (``tar xCf
/opt a.tgz``). ``--`` ends the options.

Enrichment is idempotent and never changes text or spans. Besides
annotations it sets one prop: ``value``, on an option word that carries
the value of a role itself (``--file=a.tgz``). It is the last step that
changes the tree: repairs only read it.
"""

from __future__ import annotations

import re

from . import shell
from .dockerfile import DockerfileAst, parse_dockerfile
from .model import NodeKind, UnifiedNode
from .schemas import (
    WRAPPERS,
    CommandSchema,
    FlagSpec,
    YARN_IMPLICIT_INSTALL,
    schema_for,
)

_ASSIGN_WORD_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")


def build_unified_ast(ast: DockerfileAst) -> DockerfileAst:
    """Embed every RUN payload's shell tree; safe to call twice."""
    for run in ast.runs():
        ast.warnings += embed_run(run, ast.path)
    return ast


def embed_run(run: UnifiedNode, path: str) -> list[str]:
    """Parse the shell region of one RUN of the file ``path`` into its
    tree, unless the RUN has one (the parser builds the exec-form trees);
    the parse's warnings, each naming the RUN's line."""
    if run.children:
        return []
    src = run.prop("_script_src")
    warnings: list[str] = []
    script = shell.parse_shell(
        src.clean, span_builder=src.span, warnings=warnings, region=run.prop("_script_region")
    )
    run.children = (script,)
    return [f"{path}:{run.span.start_line}: {w}" for w in warnings]


# ---------------------------------------------------------------------------
# Enrichment
# ---------------------------------------------------------------------------


def command_words(cmd: UnifiedNode) -> list[UnifiedNode]:
    """Argument words of a simple command, excluding redirection targets."""
    return [c for c in cmd.children if c.kind is NodeKind.SC_WORD]


def _command_name(word: UnifiedNode) -> str | None:
    """The basename of the command ``word`` runs, or None when a variable
    decides it."""
    text = shell.word_text(word)
    if shell.contains_variable(text):
        return None
    return text.rsplit("/", 1)[-1]


def _flag_lookup(table: tuple[FlagSpec, ...], name: str) -> FlagSpec | None:
    for flag in table:
        if name in flag.names:
            return flag
    return None


def _options(
    table: tuple[FlagSpec, ...], text: str, old_style: bool
) -> tuple[list[FlagSpec], str | None] | None:
    """The flags of ``table`` that the option word ``text`` names, in
    order, and the value the word carries itself (None when it carries
    none); None when ``text`` is no option word. ``old_style`` says
    whether a word without a dash may be a bundle of short letters (tar's
    first word)."""
    if text.startswith("--"):
        name, eq, value = text.partition("=")
        flag = _flag_lookup(table, name)
        return ([flag] if flag else []), (value if eq else None)
    if text.startswith("-") and len(text) > 1:
        flags = []
        for k, ch in enumerate(text[1:], 2):
            flag = _flag_lookup(table, "-" + ch)
            if flag is None:
                break  # the rest may be this letter's value
            flags.append(flag)
            if flag.takes_value:
                return flags, text[k:] or None
        return flags, None
    if old_style and text:
        flags = [_flag_lookup(table, "-" + ch) for ch in text]
        if all(flags):
            return flags, None
    return None


def _operand(
    wrapper: str, table: tuple[FlagSpec, ...], words: list[UnifiedNode], start: int
) -> int | None:
    """Index of the first operand of ``wrapper``, whose words start at
    ``words[start]``: the command it runs. None when there is none, when
    it only looks the command up (``command -pv yarn``), or when an option
    word holds a letter or name ``table`` does not know, or a value for a
    flag that takes none: what that word takes is then unknown."""
    waiting: list[FlagSpec] = []  # flags whose values are the next words
    options = bool(table)  # until `--`; `!` takes no options
    for k in range(start, len(words)):
        if waiting:
            waiting.pop(0)
            continue
        t = shell.word_text(words[k])
        if options and t == "--":
            options = False
            continue
        read = _options(table, t, False) if options else None
        if read is not None:
            flags, value = read
            known = flags and (
                flags[-1].takes_value  # the rest of the word, if any, is its value
                or (value is None and (t.startswith("--") or len(flags) == len(t) - 1))
            )
            if not known or any(flag.canon == "LOOKUP" for flag in flags):
                return None
            if value is None:
                waiting = [flag for flag in flags if flag.takes_value]
            continue
        if wrapper in ("env", "sudo") and _ASSIGN_WORD_RE.match(t):
            options = False  # env A=1 cmd, sudo A=1 cmd; options end at the first operand
            continue
        return k
    return None


def enrich_statement(words: list[UnifiedNode]) -> bool:
    """Annotate the words of one simple command: past its wrappers, the
    command they run and its words. Returns True when a schema matched."""
    i: int | None = 0
    while i is not None and i < len(words):
        name = _command_name(words[i])
        table = WRAPPERS.get(name)
        if table is not None:
            i = _operand(name, table, words, i + 1)
            continue
        schema = schema_for(name) if name else None
        if schema is None:
            return False
        words[i].annotate(schema.command_label())
        _walk_args(schema, words[i], words[i + 1 :])
        return True
    return False


def _walk_args(
    schema: CommandSchema, command_word: UnifiedNode, args: list[UnifiedNode]
) -> None:
    sub_level = schema.subcommands
    bare = True  # no subcommand, no --version or --help
    waiting: list[FlagSpec] = []  # flags whose values are the next words
    options = True  # until `--`

    for k, word in enumerate(args):
        if waiting:
            flag = waiting.pop(0)
            if flag.value_role:
                word.annotate(schema.role_label(flag.value_role))
            continue
        t = shell.word_text(word)
        if options and t == "--":
            options = False
            continue
        old_style = k == 0 and schema.old_style_first_word
        read = _options(schema.flags, t, old_style) if options else None
        if read is not None:
            flags, value = read
            for flag in flags:
                word.annotate(schema.flag_label(flag.canon))
                if flag.semantic:
                    command_word.annotate(flag.semantic)
                if flag.canon in ("VERSION", "HELP"):
                    bare = False
            if value is None:
                waiting = [flag for flag in flags if flag.takes_value]
            elif value and flags and flags[-1].value_role:  # --file=a.tgz, -xfa.tgz
                word.annotate(schema.role_label(flags[-1].value_role))
                word.set_prop("value", value)
            continue
        if sub_level and t in sub_level:
            spec = sub_level[t]
            word.annotate(schema.sub_label(spec.canon))
            sub_level = spec.children
            bare = False
            continue
        if schema.positional_role:
            word.annotate(schema.role_label(schema.positional_role))

    # bare `yarn` (flags only) means `yarn install`
    if schema.label == "YARN" and bare:
        command_word.annotate(YARN_IMPLICIT_INSTALL)


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
        words = command_words(node)
        if not words:
            continue
        total += 1
        if enrich_statement(words):
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
    ast.root.set_prop("enrich_stats", (matched, total))
    return ast


def parse_and_enrich(text: str, path: str = "<memory>") -> DockerfileAst:
    """Convenience pipeline: parse, embed shell trees, and annotate."""
    return enrich(build_unified_ast(parse_dockerfile(text, path)))
