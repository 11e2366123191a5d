"""Format-preserving printing of a repaired file, and its diff.

Repairs never edit the tree; each records the text it inserts at a source
offset (``rules.repair``). Printing splices those insertions into the
original text, so every byte no repair inserted is kept, and a file
without repairs prints as itself.
"""

from __future__ import annotations

import difflib
import io

from .dockerfile import DockerfileAst


def print_minimal(ast: DockerfileAst, original: str | None = None) -> str:
    """``original`` (by default the parsed source) with the repairs'
    insertions spliced in, in their sorted order."""
    text = ast.source if original is None else original
    parts: list[str] = []
    pos = 0
    for offset, _rank, _order, inserted in sorted(ast.insertions):
        parts.append(text[pos:offset])
        parts.append(inserted)
        pos = offset
    parts.append(text[pos:])
    return "".join(parts)


# after a line that ends the file without a line end, as GNU diff marks it
_NO_NEWLINE = "\n\\ No newline at end of file\n"


def _lines(text: str) -> list[str]:
    """``text``'s lines as patch tools read them: only a line feed ends
    one (``str.splitlines`` also splits at `\\r` and form feeds)."""
    return io.StringIO(text, newline="\n").readlines()


def unified_diff(original: str, repaired: str, path: str) -> str:
    """Unified diff between the original and repaired text.

    Zero context lines: a one-line repair reads as a one-line hunk."""
    if original == repaired:
        return ""
    diff = difflib.unified_diff(
        _lines(original),
        _lines(repaired),
        fromfile=f"a/{path}",
        tofile=f"b/{path}",
        n=0,
    )
    return "".join(line if line.endswith("\n") else line + _NO_NEWLINE for line in diff)
