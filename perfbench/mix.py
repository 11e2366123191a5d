#!/usr/bin/env python3
"""Count the command mix of the checked-in Dockerfiles.

    python3 perfbench/mix.py

The synthetic workloads (``gen.py``) draw their commands, flags, cleanups,
operand quoting, RUN lengths and instruction kinds from the counts in
``gen.MIX``.  This script derives those counts from the Dockerfiles under
``tests/data/fixtures`` and ``tests/data/roundtrip``, so the mix rests on
the repository's own files rather than on guesses.  Round-trip variants
(``name--crlf``, ``--header``, ``--spaced``) repeat a base file and are
skipped.  It reads the text with a small shell splitter of its own and
never with slimdock, so the counts stay independent of the program under
test.  ``test_bench.py`` checks that ``gen.MIX`` still equals these counts.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Template names, as in gen.py, and the command each one counts.
_TEMPLATES = [
    ("apt_update", re.compile(r"apt(-get)?\s+(-\S+\s+)*update\b")),
    ("apt_install", re.compile(r"apt(-get)?\s+(-\S+\s+)*install\b")),
    ("apk_add", re.compile(r"apk\s+(-\S+\s+)*add\b")),
    ("pip", re.compile(r"(python3?\s+-m\s+)?pip3?\s+install\b")),
    ("npm_install", re.compile(r"npm\s+(install|i)\b")),
    ("npm_clean_noforce", re.compile(r"npm\s+cache\s+clean(?!.*\s(--force|-f)\b)")),
    ("yarn_install", re.compile(r"yarn(\s+install\b|\s*$)")),
    ("gem_install", re.compile(r"gem\s+install\b")),
    ("gem_update", re.compile(r"gem\s+update\s+--system\b")),
    ("yum", re.compile(r"(yum|dnf)\s+(-\S+\s+)*install\b")),
    ("tar", re.compile(r"tar\s+(-?[a-zA-Z]*x[a-zA-Z]*)\s")),
    ("gpg", re.compile(r"gpg\s+.*--verify\b")),
    ("mkdir_usr_src", re.compile(r"mkdir\s+.*/usr/src/")),
    ("mkdir_other", re.compile(r"mkdir\s")),
    ("mktemp", re.compile(r"\w+=[\"']?\$\(mktemp\s+-d")),
    ("cd", re.compile(r"cd\s")),
]
_CLEANUP = re.compile(r"(rm\s|npm\s+cache\s+clean|yarn\s+cache\s+clean)")
_DOWNLOAD = re.compile(r"(curl|wget)\s")
# the flag whose absence is a smell, per template
_FLAGS = {"apt_install": "--no-install-recommends", "apk_add": "--no-cache",
          "pip": "--no-cache-dir", "gem_update": "--no-document"}
# templates whose smell a later cleanup in the same RUN removes
_KEEP = ("apt_install", "npm_install", "yarn_install", "gem_update", "yum", "tar", "gpg",
         "mkdir_usr_src", "mktemp")
_KINDS = ("RUN", "ENV", "COPY", "LABEL", "WORKDIR", "ARG", "EXPOSE", "USER", "#")
_OPEN = ("if", "for", "while", "until", "case")
_CLOSE = ("fi", "done", "esac")


def base_files(root: str = ROOT) -> list[str]:
    """The distinct checked-in Dockerfiles, relative to ``root``."""
    out = []
    for sub in ("fixtures", "roundtrip"):
        directory = os.path.join(root, "tests", "data", sub)
        for name in sorted(os.listdir(directory)):
            if name.endswith(".Dockerfile") and "--" not in name:
                out.append(os.path.join("tests", "data", sub, name))
    return out


def instructions(text: str) -> list[tuple[str, str]]:
    """(keyword, joined body) per instruction; comments as ('#', text)."""
    lines = text.replace("\r\n", "\n").split("\n")
    escape = "\\"
    if lines and re.match(r"#\s*escape\s*=\s*`", lines[0]):
        escape = "`"
    out, i = [], 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("#"):
            if not re.match(r"#\s*(escape|syntax)\s*=", line):
                out.append(("#", line))
            continue
        parts = [line]
        while parts[-1].endswith(escape) and i < len(lines):
            parts[-1] = parts[-1][:-1]
            nxt = lines[i].strip()
            i += 1
            if not nxt.startswith("#"):
                parts.append(nxt)
        word, _, body = " ".join(parts).partition(" ")
        if "<<" in body and word.upper() in ("RUN", "COPY"):  # heredoc body lines
            while i < len(lines) and not re.fullmatch(r"[A-Z]+", lines[i].strip()):
                i += 1
            i += 1
        out.append((word.upper(), body.strip()))
    return out


def split_commands(body: str) -> tuple[list[str], bool]:
    """Top-level commands of a shell RUN, and whether a `;` separates any."""
    pieces, seps, cur, quote, depth = [], [], [], "", 0
    i = 0
    while i < len(body):
        c = body[i]
        if quote:
            cur.append(c)
            if c == quote:
                quote = ""
        elif c in "'\"`":
            quote = c
            cur.append(c)
        elif c == "$" and body[i + 1:i + 2] == "(":
            depth += 1
            cur.append("$(")
            i += 1
        elif c == ")" and depth:
            depth -= 1
            cur.append(c)
        elif depth == 0 and body[i:i + 2] in ("&&", "||"):
            pieces.append("".join(cur))
            seps.append(body[i:i + 2])
            cur = []
            i += 1
        elif depth == 0 and c in ";|":
            pieces.append("".join(cur))
            seps.append(c)
            cur = []
        else:
            cur.append(c)
        i += 1
    pieces.append("".join(cur))
    # fold compound statements (if ... fi, for ... done) into one command
    cmds, sequence, nest, block = [], False, 0, []
    for k, piece in enumerate(p.strip() for p in pieces):
        first = piece.split(" ", 1)[0]
        if first in _OPEN:
            nest += 1
        if nest:
            block.append(piece)
            if first in _CLOSE or piece.endswith(_CLOSE):
                nest -= 1
                if not nest:
                    cmds.append("; ".join(block))
                    block = []
            continue
        if piece:
            cmds.append(piece)
            if k < len(seps) and seps[k] == ";":
                sequence = True
    if block:
        cmds.append("; ".join(block))
    return cmds, sequence


def template_of(cmd: str) -> str:
    for name, pattern in _TEMPLATES:
        if pattern.match(cmd):
            return name
    if _CLEANUP.match(cmd):
        return "cleanup"
    if _DOWNLOAD.match(cmd):
        return "download"
    return "filler"


def _rm(cmd: str) -> tuple[bool, list[str]] | None:
    """(recursive, operands) of an rm command, else None."""
    if not cmd.startswith("rm "):
        return None
    words = cmd.split()[1:]
    flags = "".join(w[1:] for w in words if w.startswith("-") and not w.startswith("--"))
    return "r" in flags.lower(), [w.strip("\"'") for w in words if not w.startswith("-")]


def _cleaned(kind: str, cmd: str, later: list[str]) -> int:
    """How many commands after ``cmd`` a later command of the same RUN
    cleans up after it; 0 when none does."""
    prefixes = {  # recursive rm of a path under these
        "apt_install": "/var/lib/apt/lists",
        "gem_update": os.path.join("/", "root", ".gem"),  # gem's cache in root's home
        "yum": "/var/cache/yum",
    }
    for gap, nxt in enumerate(later, 1):
        if kind == "npm_install" and re.match(r"npm\s+cache\s+clean\b.*\s(--force|-f)\b", nxt):
            return gap
        if kind == "yarn_install" and re.match(r"yarn\s+cache\s+clean\b", nxt):
            return gap
        rm = _rm(nxt)
        if rm is None:
            continue
        recursive, operands = rm
        if kind in prefixes:
            if recursive and any(o.startswith(prefixes[kind]) for o in operands):
                return gap
        elif kind in ("tar", "gpg", "mkdir_usr_src"):
            if set(operands) & set(_operands(kind, cmd)) and (recursive or kind != "mkdir_usr_src"):
                return gap
        elif kind == "mktemp":
            var = cmd.split("=", 1)[0]
            if recursive and any(o.lstrip("$").strip("{}") == var for o in operands):
                return gap
    return 0


def _operands(kind: str, cmd: str) -> list[str]:
    """The path operands a template's smell is about."""
    words = re.findall(r'"[^"]*"|\'[^\']*\'|\S+', cmd)
    if kind == "tar":
        return [w.strip("\"'") for w in words[2:3]]
    if kind == "gpg":
        return [w.strip("\"'") for w in words if w.strip("\"'").endswith(".asc")][:1]
    if kind == "mkdir_usr_src":
        return [w.strip("\"'") for w in words if "/usr/src/" in w]
    return []


def _share(counter: Counter, key: str) -> list[int]:
    """[hits, out of] for a yes/no count."""
    return [counter[key, True], counter[key, True] + counter[key, False]]


def derive(root: str = ROOT) -> dict:
    """The counts behind ``gen.MIX``; yes/no rates as [hits, out of]."""
    templates, kinds, lengths = Counter(), Counter(), Counter()
    flags, kept, operands = Counter(), Counter(), Counter()
    rm_extra, rm_flags = Counter(), Counter()
    runs = long_runs = sequences = gaps = 0
    gem_files = gemrc_files = 0
    files = base_files(root)
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8", newline="") as fh:
            text = fh.read()
        gem = gemrc = False
        for word, body in instructions(text):
            kinds[word if word != "ADD" else "COPY"] += 1
            if word != "RUN" or body.startswith("[") or "<<" in body:
                continue
            body = re.sub(r"^(--\S+\s+)+", "", body)  # RUN --mount=... flags
            cmds, sequence = split_commands(body)
            # `set -eux` is the generated sequence prefix, not a command
            cmds = [re.sub(r"^sudo\s+", "", c) for c in cmds if not re.match(r"set\s+-", c)]
            runs += 1
            lengths[min(len(cmds), 8)] += 1
            if len(cmds) > 1:
                long_runs += 1
                sequences += sequence
            for i, cmd in enumerate(cmds):
                kind = template_of(cmd)
                templates[kind] += 1
                gem |= kind == "gem_update"
                gemrc |= bool(re.match(r"echo ['\"]gem: --no-document['\"] >>? \S*gemrc$", cmd))
                if kind in _FLAGS:
                    flags[kind, _FLAGS[kind] in cmd.split()] += 1
                if kind == "apt_install":
                    flags["apt", cmd.split()[0] == "apt"] += 1
                if kind in _KEEP:
                    gap = _cleaned(kind, cmd, cmds[i + 1:])
                    kept[kind, gap > 0] += 1
                    gaps += gap
                if kind in ("tar", "gpg"):
                    for op in re.findall(r'"[^"]*"|\S+', cmd)[1:]:
                        if not op.startswith("-") and "." in op:  # a file, not a flag
                            operands["quoted", op.startswith('"')] += 1
                            operands["variable", "$" in op] += 1
                            operands["spaced", " " in op.strip('"')] += 1
                rm = _rm(cmd)
                if rm is not None:
                    rm_extra[min(len(rm[1]), 4) - 1] += 1
                    if not rm[0]:
                        rm_flags["-f" if "-f" in cmd.split() else ""] += 1
        gem_files += gem
        gemrc_files += gem and gemrc
    # a tar template is a download plus an extraction: downloads beyond the
    # extractions are ordinary commands
    filler = templates["filler"] + max(0, templates["download"] - templates["tar"])
    return {
        "files": len(files),
        "runs": runs,
        "templates": {**{name: templates[name] for name, _ in _TEMPLATES}, "filler": filler},
        "flags": {kind: _share(flags, kind) for kind in (*_FLAGS, "apt")},
        "keep": {kind: _share(kept, kind) for kind in _KEEP},
        # a pending cleanup is emitted after each command with this chance,
        # so the mean distance to it matches the files' (kept / summed gaps)
        "cleanup_step": [sum(kept[k, True] for k in _KEEP), gaps],
        "quoted": _share(operands, "quoted"),
        "variable": _share(operands, "variable"),
        "spaced": _share(operands, "spaced"),
        "rm_extra": {str(k): rm_extra[k] for k in sorted(rm_extra)},
        "rm_flags": {k: rm_flags[k] for k in ("", "-f")},
        "sequence": [sequences, long_runs],
        "run_lengths": {str(k): lengths[k] for k in sorted(lengths)},
        "kinds": {k: kinds[k] for k in _KINDS},
        "gemrc": [gemrc_files, gem_files],
    }


if __name__ == "__main__":
    print(json.dumps(derive(), indent=1))
