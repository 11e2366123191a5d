"""Format-preserving reprinting of a (possibly repaired) unified AST.

Unmodified subtrees are emitted as their exact original byte ranges, so a
tree with zero modifications reprints to the original text verbatim.
Only synthesized nodes are rendered canonically, and the joiner text that
splices them in adapts to the surrounding style: a new AND-chain element
follows the chain's dominant continuation formatting, a new argument word
is a single space away, and an element inserted into an exec-form array
uses JSON style.
"""

from __future__ import annotations

import difflib
import json
import re

from .dockerfile import DockerfileAst
from .model import NodeKind, RenderError, UnifiedNode, span_text

def print_minimal(ast: DockerfileAst | UnifiedNode, original: str | None = None) -> str:
    """Render the tree, reusing original bytes for unmodified regions."""
    root = ast.root if isinstance(ast, DockerfileAst) else ast
    if original is None:
        original = ast.source if isinstance(ast, DockerfileAst) else root.prop("source")
    if original is None:
        raise RenderError("print_minimal needs the original source text")
    escape = root.prop("escape_char", "\\") if root.kind is NodeKind.DOCKER_FILE else "\\"
    return _emit(root, original, escape)


def render_full(node: UnifiedNode) -> str:
    """Canonical rendering: single spaces between words, no trailing
    whitespace; used for synthesized nodes."""
    return _render(node, None, "\\")


def _coverage(node: UnifiedNode) -> tuple[int, int] | None:
    """Source region a subtree occupies: its own span, or the hull of its
    spanned descendants (a synthesized wrapper around original nodes)."""
    if node.span is not None:
        return node.span.start, node.span.end
    lo: int | None = None
    hi: int | None = None
    for n in node.walk():
        if n.span is not None:
            lo = n.span.start if lo is None else min(lo, n.span.start)
            hi = n.span.end if hi is None else max(hi, n.span.end)
    if lo is None or hi is None:
        return None
    return lo, hi


def _emit(node: UnifiedNode, src: str, escape: str) -> str:
    if node.span is None:
        return _render(node, src, escape)
    if not node.subtree_dirty and not node.modified:
        return span_text(src, node.span)
    if node.modified or not node.children:
        return _render(node, src, escape)

    parts: list[str] = []
    pos = node.span.start
    emitted_any = False
    prev_synth = False
    joiner: str | None = None
    for child in node.children:
        cov = _coverage(child)
        if cov is not None:
            gap = src[pos : cov[0]]
            if prev_synth and _gap_needs_joiner(node, gap):
                if joiner is None:
                    joiner = _joiner_for(node, src, escape)
                parts.append(joiner)
            parts.append(gap)
            parts.append(_emit(child, src, escape))
            pos = cov[1]
            prev_synth = False
        else:
            if joiner is None:
                joiner = _joiner_for(node, src, escape)
            if emitted_any:
                parts.append(joiner)
            parts.append(_render(child, src, escape))
            prev_synth = True
        emitted_any = True
    parts.append(src[pos : node.span.end])
    return "".join(parts)


def _gap_needs_joiner(parent: UnifiedNode, gap: str) -> bool:
    """After a synthesized child, does the original gap before the next
    spanned child still need a separator injected?"""
    if parent.kind is NodeKind.SC_AND:
        return "&&" not in gap
    if parent.kind is NodeKind.SC_OR:
        return "||" not in gap
    if parent.kind is NodeKind.SC_SIMPLE_COMMAND:
        if parent.prop("exec_array"):
            return "," not in gap
        return gap == ""
    return gap == ""


def _joiner_for(parent: UnifiedNode, src: str, escape: str) -> str:
    if parent.kind is NodeKind.SC_SIMPLE_COMMAND:
        return ", " if parent.prop("exec_array") else " "
    if parent.kind is NodeKind.SC_AND:
        return _chain_joiner(parent, src, escape)
    if parent.kind is NodeKind.SC_OR:
        return " || "
    return " "


def _inside_exec_payload(node: UnifiedNode) -> bool:
    for anc in node.ancestors():
        if anc.kind is NodeKind.DOCKER_RUN:
            return anc.prop("run_form") == "exec-shell"
    return False


def _chain_joiner(chain: UnifiedNode, src: str, escape: str) -> str:
    """Inline `` && `` or, when at least half of the chain's elements start
    on a continued line, a continuation in the chain's dominant style with
    the last element's line indentation."""
    if _inside_exec_payload(chain):
        return " && "  # a raw newline would corrupt the JSON string
    spanned = [c for c in chain.children if c.span is not None]
    if len(spanned) < 2:
        return " && "
    gaps = [
        src[prev.span.end : cur.span.start]
        for prev, cur in zip(spanned, spanned[1:])
    ]
    continued = [g for g in gaps if "\n" in g]
    if not continued or 2 * len(continued) < len(gaps):
        return " && "
    leading = sum(1 for g in continued if "&&" in g.rsplit("\n", 1)[1])
    indent = _line_indent(src, spanned[-1].span.start)
    if 2 * leading >= len(continued):
        return " " + escape + "\n" + indent + "&& "
    return " && " + escape + "\n" + indent


def _line_indent(src: str, offset: int) -> str:
    line_start = src.rfind("\n", 0, offset) + 1
    m = re.match(r"[ \t]*", src[line_start:offset])
    return m.group(0) if m else ""


# ---------------------------------------------------------------------------
# Canonical rendering of synthesized nodes
# ---------------------------------------------------------------------------


def _render(node: UnifiedNode, src: str | None, escape: str) -> str:
    synth_text = node.prop("synth_text")
    if synth_text is not None:
        return synth_text
    if node.span is not None and not node.subtree_dirty and not node.modified and src is not None:
        return span_text(src, node.span)

    kind = node.kind
    if kind is NodeKind.SC_WORD:
        if node.parent is not None and node.parent.prop("exec_array"):
            return json.dumps(node.prop("text", node.literal or ""))
        if node.literal is not None:
            return node.literal
        return node.prop("text", "")
    if kind in (NodeKind.SC_VARIABLE, NodeKind.SC_ASSIGNMENT, NodeKind.SC_UNPARSED):
        if node.literal is not None:
            return node.literal
        raise RenderError(f"no renderable form for {node!r}")
    if kind is NodeKind.SC_REDIRECTION:
        op = node.literal or node.prop("op", ">")
        if node.children:
            return op + " " + _child_text(node.children[0], src, escape)
        return op
    if kind is NodeKind.SC_SIMPLE_COMMAND:
        return " ".join(_child_text(c, src, escape) for c in node.children)
    if kind is NodeKind.SC_AND:
        return " && ".join(_child_text(c, src, escape) for c in node.children)
    if kind is NodeKind.SC_OR:
        return " || ".join(_child_text(c, src, escape) for c in node.children)
    if kind is NodeKind.SC_SEQ:
        return " ; ".join(_child_text(c, src, escape) for c in node.children)
    if kind is NodeKind.SC_PIPELINE:
        return " | ".join(_child_text(c, src, escape) for c in node.children)
    if kind is NodeKind.SC_SCRIPT:
        return "\n".join(_child_text(c, src, escape) for c in node.children)
    raise RenderError(f"no renderable form for {node!r}")


def _child_text(child: UnifiedNode, src: str | None, escape: str) -> str:
    if src is not None:
        return _emit(child, src, escape)
    return _render(child, None, escape)


def unified_diff(original: str, repaired: str, path: str) -> str:
    """Unified diff between the original and repaired text.

    Zero context lines: a one-line repair reads as a one-line hunk."""
    if original == repaired:
        return ""
    diff = difflib.unified_diff(
        original.splitlines(keepends=True),
        repaired.splitlines(keepends=True),
        fromfile=f"a/{path}",
        tofile=f"b/{path}",
        n=0,
    )
    out = "".join(diff)
    if out and not out.endswith("\n"):
        out += "\n"
    return out
