"""A seeded differential of ``fix``'s re-read: over files drawn by a fixed
``random.Random``, every RUN that a repair edits reads as a fresh parse
of the printed file, and nearly all of them are read by parsing windows
of it only (``runner._reread``).

The files hold the gap shapes a window can end at: ``&&`` with and without
blanks, a continued line with the ``&&`` leading or trailing, under either
escape character, in shell form, in a leading heredoc's script and in an
exec-form ``sh -c`` string, with LF or CRLF line endings. A few RUNs open
a heredoc after their chain, whose script must end where the RUN does.

Two shapes are read whole, so they are kept rare enough that the share
of spliced RUNs still guards the window rule: a RUN with a heredoc after
its chain is no chain; and in a leading heredoc's script with CRLF line
ends, a `\\` escapes the `\\r` instead of continuing the line."""

import json
import random

from slimdock.model import validate_tree

from test_properties import assert_reread_is_fresh

SEED, FILES = 7, 600

_COMMANDS = [
    "apt-get install -y {}", "apt-get install --no-install-recommends -y {}",
    "tar -xzf {}", "gpg --verify {}.asc", "mkdir -p /usr/src/{}", "npm install",
    "gem update --system", "pip install {}", "apk add {}", "yarn install",
    "cd /src/{}", "make", "rm -rf /tmp/{}", "echo {} > /f",
]
_OPERANDS = ["a.tgz", "x", "'my file.tgz'", '"q r.tgz"', "*.tgz", "$V", "a\\ b", "x#y"]
_INLINE_GAPS = [" && ", "&&", " &&", "&& "]


def _chain(rng, gaps):
    commands = [
        rng.choice(_COMMANDS).format(rng.choice(_OPERANDS)) for _ in range(rng.randint(1, 5))
    ]
    return commands[0] + "".join(rng.choice(gaps) + command for command in commands[1:])


def _run(rng, escape):
    shape = rng.choices(["shell", "continued", "heredoc", "exec", "after"], [12, 8, 8, 6, 1])[0]
    flags = rng.choice(["", "", "--mount=type=cache,target=/var/cache/apt "])
    if shape == "heredoc":  # the shell reads the body, `\` and line ends included
        gaps = _INLINE_GAPS * 3 + [" \\\n  && ", " && \\\n  ", " &&\n  "]
        op, indent = rng.choice([("<<EOF", ""), ("<<-EOF", "\t"), ("<<'EOF'", "")])
        lines = _chain(rng, gaps).split("\n") + [""] * rng.randint(0, 1)
        body = "".join(indent + line + "\n" for line in lines)
        return f"RUN {flags}{op}\n{body}{indent}EOF"
    if shape == "exec":
        return f"RUN {json.dumps(['sh', '-c', _chain(rng, _INLINE_GAPS)])}"
    if shape == "after":
        return f"RUN {flags}{_chain(rng, _INLINE_GAPS)} && cat <<EOF > /f\nline\nEOF"
    gaps = _INLINE_GAPS
    if shape == "continued":
        gaps = [f" {escape}\n    && ", f" && {escape}\n    ", f"{escape}\n    &&"]
    return f"RUN {flags}{_chain(rng, gaps)}"


def reread_files(seed, count):
    """``count`` Dockerfiles, the same for the same ``seed``."""
    rng = random.Random(seed)
    for _ in range(count):
        escape = rng.choice(["\\", "\\", "\\", "`"])
        lines = ["# escape=`"] if escape == "`" else []
        lines.append(rng.choice(["FROM debian", "FROM python", "FROM ruby", "FROM node"]))
        lines += [_run(rng, escape) for _ in range(rng.randint(1, 3))]
        newline = rng.choice(["\n", "\n", "\n", "\r\n"])
        yield newline.join(lines).replace("\n", newline) + rng.choice([newline, ""])


def test_reread_is_fresh_parse_on_seeded_files():
    runs = [run for text in reread_files(SEED, FILES) for run in assert_reread_is_fresh(text)]
    for _, fresh, _ in runs:
        validate_tree(fresh)
    spliced = sum(windowed for _, _, windowed in runs)
    assert len(runs) > FILES and spliced >= 0.95 * len(runs)
