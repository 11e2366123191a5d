#!/usr/bin/env python3
"""Digest everything slimdock outputs, to check that a change keeps it.

For each input the script prints one line, ``<sha256>  <input>``, over:

* the lint tree (``analyze_text``): every node's kind, offsets,
  line/column positions, literal, annotations and props, in pre-order;
* the lint report: status, warnings, diagnostics and enrichment counts;
* the fix report (``fix_text``): repair statuses and reasons, fixed bytes,
  residual diagnostics, status and warnings.

A last line, ``TOTAL <sha256>``, digests all the lines before it.

The inputs are the Dockerfiles under ``tests/data`` plus, for each
``--seed``, every file of the ``perfbench/gen.py`` workloads (``corpus``,
``long_runs``, ``large_files``).  With
``--against FILE``, an earlier output of this script, it lists the inputs
whose digest differs instead and exits 1 if there are any.
``--drop-prop KIND:NAME`` (repeatable, and each takes several) leaves the
prop ``NAME`` of every node of kind ``KIND`` out of the digest, so that
sources without a prop that a change deletes can be digested as if they
never had it.

Run it from a checkout, against that checkout's sources::

    PYTHONPATH=src python3 scripts/output_digest.py --seed 9 --seed 10 > before.txt
    PYTHONPATH=src python3 scripts/output_digest.py --seed 9 --seed 10 --against before.txt

or run this script on other sources (``PYTHONPATH=other/src``), dropping
the props those sources have and these do not::

    PYTHONPATH=other/src python3 scripts/output_digest.py \\
        --drop-prop DOCKER-RUN:_line DOCKER-RUN:_flags_end > before.txt
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import os
import sys

from slimdock import analyze_text, fix_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_DIRS = ("tests/data/fixtures", "tests/data/roundtrip")
WORKLOADS = ("corpus", "long_runs", "large_files")


def _canon(value):
    """A JSON-ready, hash-order-independent form of a prop value."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if hasattr(value, "segments") and hasattr(value, "clean"):  # SegmentedText
        return {"segments": _canon(value.segments), "clean": value.clean,
                "anchor": value.anchor}
    return type(value).__name__


def _span(span):
    if span is None:
        return None
    return [span.start, span.end, span.start_line, span.start_col,
            span.end_line, span.end_col]


def _diagnostic(d):
    return [d.rule.value, d.line, d.column, d.fixable, _span(d.span), d.message]


def record(text: str, name: str, drop: frozenset = frozenset()) -> dict:
    """Everything lint and fix report for one input, less the props
    ``drop`` names as ``(kind, name)``."""
    ast, lint = analyze_text(text, name)
    nodes = [
        [node.kind.value, _span(node.span), node.literal, sorted(node.annotations),
         _canon({k: v for k, v in node.props.items() if (node.kind.value, k) not in drop}),
         len(node.children)]
        for node in ast.root.walk()
    ]
    fix = fix_text(text, name)
    return {
        "nodes": nodes,
        "lint": [lint.status, lint.warnings, [_diagnostic(d) for d in lint.diagnostics],
                 lint.enriched_commands, lint.total_commands],
        "fix": [fix.status, fix.warnings,
                [[o.diagnostic.rule.value, o.status, o.reason] for o in fix.repairs],
                fix.fixed, [_diagnostic(d) for d in fix.residual]],
    }


def digest(text: str, name: str, drop: frozenset = frozenset()) -> str:
    blob = json.dumps(record(text, name, drop), sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def inputs(seeds: list[int]):
    """(name, text) for every input, in a fixed order."""
    for directory in DATA_DIRS:
        full = os.path.join(ROOT, directory)
        for entry in sorted(os.listdir(full)):
            if entry.endswith(".Dockerfile"):
                with open(os.path.join(full, entry), encoding="utf-8", newline="") as fh:
                    yield f"{directory}/{entry}", fh.read()
    if not seeds:
        return
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    for seed in seeds:
        for workload in WORKLOADS:
            for case in gen.generate(workload, seed, ROOT):
                yield f"{workload}/{seed}/{case.name}", case.text


def read_digests(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            value, _, name = line.rstrip("\n").partition("  ")
            if name:
                out[name] = value
    return out


def kind_prop(value: str) -> tuple[str, str]:
    kind, colon, name = value.partition(":")
    if not (kind and colon and name):
        raise argparse.ArgumentTypeError(f"expected KIND:NAME, got {value!r}")
    return kind, name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", default=[],
                        help="add the generated workloads at this seed (repeatable)")
    parser.add_argument("--against", metavar="FILE",
                        help="an earlier output; list the inputs that differ from it")
    parser.add_argument("--drop-prop", type=kind_prop, nargs="+", action="extend", default=[],
                        metavar="KIND:NAME",
                        help="leave this prop of every node of this kind out (repeatable)")
    args = parser.parse_args(argv)

    drop = frozenset(args.drop_prop)
    lines = [f"{digest(text, name, drop)}  {name}" for name, text in inputs(args.seed)]
    if args.against is None:
        total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print("\n".join(lines))
        print(f"TOTAL {total}")
        return 0
    before = read_digests(args.against)
    now = dict(reversed(line.split("  ", 1)) for line in lines)
    differ = [name for name in now if before.get(name) != now[name]]
    differ += [name for name in before if name not in now]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(now)} inputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
