"""Seeded inputs for the benchmark's three workloads.

Every workload is a list of ``Case`` objects: a file name, its text, the
diagnostics expected in it (or ``None`` when no hand-written list exists)
and its size along the workload's scaling axis.  slimdock sees only the
text.  Expected diagnostics never come from slimdock:

* ``corpus`` copies of annotated fixtures take their list from
  ``tests/data/fixtures/manifest.json``; round-trip copies have no list.
* ``long_runs`` and ``large_files`` are assembled from the hand-written
  command table below.  Each template states the smells it raises and the
  cleanups it provides, and ``expected_diagnostics`` applies the rules'
  documented semantics (same-RUN "later cleanup", the file-wide gemrc
  setting, flag repairs always fixable, element repairs only in a single
  command or pure ``&&``-chain) to that table.  How often each template,
  flag and cleanup occurs comes from ``MIX``, which ``mix.py`` counts in
  the checked-in Dockerfiles.

What a file costs slimdock depends on its structure: its size, which
commands it holds, which flags and cleanups they have and where.  That
structure is fixed per size on a grid (drawn once from an RNG seeded by the
size), so every seed gives the same cost distribution and seed-to-seed
spread reflects the machine, not the draw.  ``--seed`` draws what does not
change the work: file order, images, identifiers and every generated name
(archives, directories, variables), so no two seeds give the same bytes.
The corpus works the same way: fixed copies, seeded order and markers.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field

# Rules whose repair adds a flag; they are fixable whatever the RUN shape.
FLAG_RULES = frozenset(
    {
        "pipUseNoCacheDir",
        "npmCacheCleanUseForce",
        "apkAddUseNoCache",
        "aptGetInstallUseNoRec",
    }
)

# Cleanup keys that are not file paths.
GEMRC = "gemrc"  # file-wide `echo 'gem: --no-document' > /etc/gemrc`
NPM_CLEAN = "npm-cache-clean"
YARN_CLEAN = "yarn-cache-clean"
# gem's cache in the image's root home, which `gem update --system` fills
ROOT_GEM = os.path.join("/", "root", ".gem")

# The command mix of the synthetic workloads: counts over the 128 distinct
# checked-in Dockerfiles (145 shell RUNs), as ``python3 perfbench/mix.py``
# derives them.  Yes/no rates are [hits, out of].  Most of those files are
# rule fixtures, so smells are more common here than in the wild.
MIX = {
    "files": 128,
    "runs": 145,
    "templates": {
        "apt_update": 21, "apt_install": 20, "apk_add": 11, "pip": 11, "npm_install": 7,
        "npm_clean_noforce": 2, "yarn_install": 2, "gem_install": 1, "gem_update": 5,
        "yum": 8, "tar": 11, "gpg": 5, "mkdir_usr_src": 3, "mkdir_other": 8, "mktemp": 2,
        "cd": 3, "filler": 129,
    },
    "flags": {"apt_install": [14, 20], "apk_add": [8, 11], "pip": [7, 11],
              "gem_update": [1, 5], "apt": [1, 20]},
    "keep": {"apt_install": [13, 20], "npm_install": [3, 7], "yarn_install": [1, 2],
             "gem_update": [3, 5], "yum": [3, 8], "tar": [6, 11], "gpg": [2, 5],
             "mkdir_usr_src": [1, 3], "mktemp": [1, 2]},
    "cleanup_step": [33, 43],
    "quoted": [1, 16],
    "variable": [1, 16],
    "spaced": [0, 16],
    "rm_extra": {"0": 33, "1": 1},
    "rm_flags": {"": 8, "-f": 0},
    "sequence": [9, 72],
    "run_lengths": {"1": 73, "2": 32, "3": 23, "4": 6, "5": 4, "6": 2, "7": 2, "8": 3},
    "kinds": {"RUN": 151, "ENV": 17, "COPY": 52, "LABEL": 4, "WORKDIR": 25, "ARG": 13,
              "EXPOSE": 23, "USER": 8, "#": 9},
    "gemrc": [2, 5],
}

CORPUS_COPIES = 8  # every checked-in Dockerfile appears this many times
LONG_RUN_LENGTHS = [10 + 3 * i for i in range(31)]  # commands per RUN, 10..100
LARGE_FILE_SIZES = [120 + 69 * i for i in range(8)]  # instructions, 120..603


@dataclass
class Cmd:
    """One shell command of a generated RUN.

    ``smells`` holds ``(rule, need)`` pairs: the rule fires unless ``need``
    is provided later in the same RUN (``None``: it always fires; ``GEMRC``:
    unless any RUN of the file configures gem).  ``cleans`` holds the keys
    this command provides: an ``rm`` operand path, ``("rm-r", path)`` when
    the rm is recursive, or one of the named keys above.
    """

    text: str
    smells: list = field(default_factory=list)
    cleans: set = field(default_factory=set)


@dataclass
class Case:
    name: str
    text: str
    expected: list | None  # sorted [(rule, line, fixable)] or None
    size: int  # commands per RUN, or instructions per file
    source: str  # where the text came from, for itemised failures
    path: str = ""  # where the run wrote it


# ---------------------------------------------------------------------------
# Hand-written command table
# ---------------------------------------------------------------------------

_PKGS = [
    "curl", "ca-certificates", "git", "build-essential", "libssl-dev",
    "zlib1g-dev", "python3-dev", "libffi-dev", "unzip", "xz-utils", "gnupg",
    "wget", "make", "gcc", "g++", "libpq-dev", "openssh-client", "jq",
    "less", "procps", "tzdata", "locales", "libxml2-dev", "pkg-config",
]
_PY = ["requests", "flask", "gunicorn", "numpy", "pyyaml", "click", "boto3",
       "psycopg2-binary", "uvicorn", "celery", "redis", "jinja2"]
_NODE = ["typescript", "pm2", "eslint", "webpack", "yarn", "nodemon", "serve"]
_GEMS = ["bundler", "rake", "rails", "puma", "nokogiri", "sass"]
_TOOLS = ["node", "go", "ruby", "python", "redis", "nginx", "protobuf",
          "cmake", "libsodium", "openssl", "zstd", "lua", "tini", "gosu"]
_EXT = [".tar.gz", ".tgz", ".tar.xz", ".tar.bz2"]
_TAR_FLAG = {".tar.gz": "-xzf", ".tgz": "-xzf", ".tar.xz": "-xJf", ".tar.bz2": "-xjf"}
_DIRS = ["/srv", "/usr/local", "/var/www", "/app", "/tmp/build"]
_VARS = ["VERSION", "NODE_VERSION", "APP_VERSION", "PKG"]
_FILLER = [
    "make -j\"$(nproc)\"", "make install", "./configure --prefix=/usr/local",
    "ldconfig", "chmod +x /usr/local/bin/entrypoint.sh",
    "useradd --create-home --shell /bin/bash app", "ln -sf /usr/local/bin/{t} /usr/bin/{t}",
    "echo 'export PATH=/usr/local/{t}/bin:$PATH' >> /etc/profile", "git clone --depth 1 https://github.com/example/{t}.git",
    "sed -i 's/^#\\s*en_US.UTF-8/en_US.UTF-8/' /etc/locale.gen", "locale-gen",
    "npm ci --omit=dev", "pip freeze", "{t} --version", "groupadd -r app",
    "cp -r /tmp/conf/. /etc/{t}/", "touch /var/log/{t}.log",
]


def _pkgs(rng: random.Random, pool: list[str], lo: int = 1, hi: int = 4) -> str:
    return " ".join(rng.sample(pool, rng.randint(lo, hi)))


class Draw:
    """Seeded draws without replacement.

    Each named decision (which template, add the flag, keep the cleanup)
    is dealt from its own shuffled deck that holds the exact proportions of
    ``MIX``, refilled when empty, so even a short RUN or a small file holds
    close to the table's mix of commands, flags and cleanups.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict[str, list] = {}

    def deal(self, key: str, cards: list):
        if not self.decks.get(key):
            self.decks[key] = list(cards)
            self.rng.shuffle(self.decks[key])
        return self.decks[key].pop()

    def chance(self, key: str, hits: int, out_of: int) -> bool:
        return self.deal(key, [True] * hits + [False] * (out_of - hits))

    def pick(self, key: str, weights: dict):
        """One key of ``weights``, in proportion to its count."""
        return self.deal(key, [k for k, n in weights.items() for _ in range(n)])


def marks(n: int, hits: int, out_of: int) -> list[bool]:
    """``n`` flags with ``hits`` in every ``out_of``, evenly spread."""
    return [(i * hits) % out_of < hits for i in range(n)]


SEQUENCE_LENGTHS = marks(len(LONG_RUN_LENGTHS), *MIX["sequence"])  # `set -eux;` first
GEMRC_SIZES = marks(len(LARGE_FILE_SIZES), *MIX["gemrc"])  # gem configured file-wide


class RunBuilder:
    """Draws commands for one RUN, with cleanups of earlier commands placed
    at random later positions (or left out, which leaves the smell).
    ``serial`` goes into every generated name."""

    def __init__(self, draw: Draw, serial: str):
        self.draw = draw
        self.rng = draw.rng
        self.serial = serial  # keeps generated names distinct within a file
        self.n = 0
        self.pending: list[tuple[str, object]] = []  # (kind, key)

    def _name(self, base: str) -> str:
        self.n += 1
        return f"{base}-{self.serial}{self.n}"

    def _flag(self, template: str) -> bool:
        return self.draw.chance(f"flag-{template}", *MIX["flags"][template])

    def _spaced(self) -> bool:
        # an operand with a space: the inserted `rm` does not quote it, so
        # the repair is rolled back
        return self.draw.chance("spaced", *MIX["spaced"])

    def _variable(self) -> bool:
        return self.draw.chance("variable", *MIX["variable"])

    def _operand(self, path: str) -> tuple[str, str]:
        """(shell text, path it names): mostly bare, sometimes double-quoted."""
        return (f'"{path}"', path) if self.draw.chance("quoted", *MIX["quoted"]) else (path, path)

    def _defer(self, template: str, kind: str, key) -> None:
        """Queue a cleanup of ``key`` for a later position, as often as the
        files keep one after ``template``."""
        if self.draw.chance(f"keep-{template}", *MIX["keep"][template]):
            self.pending.append((kind, key))

    def command(self) -> list[Cmd]:
        """One drawn template: one command, or a download/extract pair."""
        return _TEMPLATES[self.draw.pick("templates", MIX["templates"])](self)

    def cleanup(self) -> Cmd:
        """Emit pending cleanups: a cache-clean command, or one rm of one or
        more paths (recursive if any of them needs it)."""
        rng = self.rng
        kind, key = self.pending.pop(rng.randrange(len(self.pending)))
        if kind == "named":
            text = "npm cache clean --force" if key == NPM_CLEAN else "yarn cache clean"
            return Cmd(text, cleans={key})
        items = [(kind, key)]
        paths = [i for i, (k, _) in enumerate(self.pending) if k != "named"]
        extra = int(self.draw.pick("rm-extra", MIX["rm_extra"]))
        for i in sorted(rng.sample(paths, min(len(paths), extra)), reverse=True):
            items.append(self.pending.pop(i))
        recursive = any(k == "rm-r" for k, _ in items)
        cleans: set = set()
        for _, (_, path) in items:
            cleans.add(path)
            if recursive:
                cleans.add(("rm-r", path))
        flag = "-rf" if recursive else self.draw.pick("rm-flag", MIX["rm_flags"])
        words = ["rm", flag, *(text for _, (text, _) in items)]
        return Cmd(" ".join(w for w in words if w), cleans=cleans)

    def build(self, length: int) -> list[Cmd]:
        cmds: list[Cmd] = []
        while len(cmds) < length:
            if self.pending and self.draw.chance("cleanup", *MIX["cleanup_step"]):
                cmds.append(self.cleanup())
            else:
                cmds.extend(self.command())
        self.pending.clear()  # what was never cleaned stays a smell
        return cmds[:length]


# -- templates: each returns the commands it adds -----------------------------


def _t_apt_update(b: RunBuilder) -> list[Cmd]:
    return [Cmd("apt-get update")]


def _t_apt_install(b: RunBuilder) -> list[Cmd]:
    rng = b.rng
    norec = b._flag("apt_install")
    tool = "apt" if b._flag("apt") else "apt-get"
    flags = "-y --no-install-recommends" if norec else "-y"
    smells = [("aptGetInstallThenRemoveAptLists", ("rm-r", "/var/lib/apt/lists/*"))]
    if not norec:
        smells.insert(0, ("aptGetInstallUseNoRec", None))
    b._defer("apt_install", "rm-r", ("/var/lib/apt/lists/*", "/var/lib/apt/lists/*"))
    return [Cmd(f"{tool} install {flags} {_pkgs(rng, _PKGS)}", smells)]


def _t_apk_add(b: RunBuilder) -> list[Cmd]:
    rng = b.rng
    if b._flag("apk_add"):
        return [Cmd(f"apk add --no-cache {_pkgs(rng, _PKGS)}")]
    return [Cmd(f"apk add {_pkgs(rng, _PKGS)}", [("apkAddUseNoCache", None)])]


def _t_pip(b: RunBuilder) -> list[Cmd]:
    rng = b.rng
    tool = rng.choice(("pip", "pip3"))
    pkgs = " ".join(f"{p}=={rng.randint(1, 9)}.{rng.randint(0, 20)}"
                    for p in rng.sample(_PY, rng.randint(1, 3)))
    if b._flag("pip"):
        return [Cmd(f"{tool} install --no-cache-dir {pkgs}")]
    return [Cmd(f"{tool} install {pkgs}", [("pipUseNoCacheDir", None)])]


def _t_npm_install(b: RunBuilder) -> list[Cmd]:
    rng = b.rng
    text = rng.choice(("npm install", f"npm install -g {_pkgs(rng, _NODE, 1, 2)}"))
    b._defer("npm_install", "named", NPM_CLEAN)
    return [Cmd(text, [("npmCacheCleanAfterInstall", NPM_CLEAN)])]


def _t_npm_clean_noforce(b: RunBuilder) -> list[Cmd]:
    return [Cmd("npm cache clean", [("npmCacheCleanUseForce", None)], {NPM_CLEAN})]


def _t_yarn_install(b: RunBuilder) -> list[Cmd]:
    text = b.rng.choice(("yarn install --frozen-lockfile", "yarn install --production"))
    b._defer("yarn_install", "named", YARN_CLEAN)
    return [Cmd(text, [("yarnCacheCleanAfterInstall", YARN_CLEAN)])]


def _t_gem_install(b: RunBuilder) -> list[Cmd]:
    return [Cmd(f"gem install {_pkgs(b.rng, _GEMS, 1, 2)}")]


def _t_gem_update(b: RunBuilder) -> list[Cmd]:
    b._defer("gem_update", "rm-r", (ROOT_GEM, ROOT_GEM))
    smells = [("gemUpdateSystemRmRootGem", ("rm-r", ROOT_GEM))]
    if b._flag("gem_update"):
        return [Cmd("gem update --system --no-document", smells)]
    smells.append(("gemUpdateNoDocument", GEMRC))
    return [Cmd("gem update --system", smells)]


def _t_yum(b: RunBuilder) -> list[Cmd]:
    rng = b.rng
    tool = rng.choice(("yum", "yum", "dnf"))
    b._defer("yum", "rm-r", ("/var/cache/yum", "/var/cache/yum"))
    return [Cmd(f"{tool} install -y {_pkgs(rng, _PKGS)}",
                [("yumInstallRmVarCacheYum", ("rm-r", "/var/cache/yum"))])]


def _t_tar(b: RunBuilder) -> list[Cmd]:
    rng = b.rng
    ext = rng.choice(_EXT)
    base = b._name(rng.choice(_TOOLS))
    where = rng.choice(("", "/tmp/"))
    url = f"https://example.com/dist/{base}{ext}"
    if b._variable():
        var = rng.choice(_VARS)
        archive = f"{where}{base}-${{{var}}}{ext}"
        return [Cmd(f'curl -fsSL -o "{archive}" {url}'),
                Cmd(f'tar {_TAR_FLAG[ext]} "{archive}" -C {rng.choice(_DIRS)}')]
    path = f"{where}{base} src{ext}" if b._spaced() else f"{where}{base}{ext}"
    text, path = (f'"{path}"', path) if " " in path else b._operand(path)
    b._defer("tar", "rm", (text, path))
    dest = rng.choice(_DIRS)
    strip = " --strip-components=1" if rng.choice((True, False)) else ""
    return [Cmd(f"curl -fsSL -o {text} {url}"),
            Cmd(f"tar {_TAR_FLAG[ext]} {text} -C {dest}{strip}",
                [("tarSomethingRmTheSomething", path)])]


def _t_gpg(b: RunBuilder) -> list[Cmd]:
    rng = b.rng
    base = b._name(rng.choice(_TOOLS))
    asc = f"{base} sig.tar.gz.asc" if b._spaced() else f"{base}.tar.gz.asc"
    text, asc = (f'"{asc}"', asc) if " " in asc else b._operand(asc)
    b._defer("gpg", "rm", (text, asc))
    return [Cmd(f"gpg --batch --verify {text} {base}.tar.gz",
                [("gpgVerifyAscRmAsc", asc)])]


def _t_mkdir_usr_src(b: RunBuilder) -> list[Cmd]:
    rng = b.rng
    path = f"/usr/src/{b._name(rng.choice(_TOOLS))}"
    text, path = b._operand(path)
    b._defer("mkdir_usr_src", "rm-r", (text, path))
    return [Cmd(f"mkdir -p {text}", [("mkdirUsrSrcThenRemove", ("rm-r", path))])]


def _t_mkdir_other(b: RunBuilder) -> list[Cmd]:
    return [Cmd(f"mkdir -p {b.rng.choice(_DIRS)}/{b._name('data')}")]


def _t_mktemp(b: RunBuilder) -> list[Cmd]:
    var = f"TMPD{b.serial}{b.n}"
    b.n += 1
    b._defer("mktemp", "rm-r", (f'"${var}"', f"${var}"))
    return [Cmd(f"{var}=$(mktemp -d)", [("rmRecursiveAfterMktempD", ("rm-r", f"${var}"))])]


def _t_cd(b: RunBuilder) -> list[Cmd]:
    return [Cmd(f"cd {b.rng.choice(_DIRS)}")]


def _t_filler(b: RunBuilder) -> list[Cmd]:
    return [Cmd(b.rng.choice(_FILLER).format(t=b.rng.choice(_TOOLS)))]


# MIX["templates"] name -> template
_TEMPLATES = {
    "apt_update": _t_apt_update, "apt_install": _t_apt_install, "apk_add": _t_apk_add,
    "pip": _t_pip, "npm_install": _t_npm_install, "npm_clean_noforce": _t_npm_clean_noforce,
    "yarn_install": _t_yarn_install, "gem_install": _t_gem_install,
    "gem_update": _t_gem_update, "yum": _t_yum, "tar": _t_tar, "gpg": _t_gpg,
    "mkdir_usr_src": _t_mkdir_usr_src, "mkdir_other": _t_mkdir_other,
    "mktemp": _t_mktemp, "cd": _t_cd, "filler": _t_filler,
}


# ---------------------------------------------------------------------------
# Expected diagnostics from the table
# ---------------------------------------------------------------------------


@dataclass
class RunSpec:
    line: int  # line of the first command
    cmds: list[Cmd]
    insertable: bool  # single command or pure && chain


def expected_diagnostics(runs: list[RunSpec]) -> list[tuple[str, int, bool]]:
    """The table's prediction of slimdock's diagnostics for one file."""
    gemrc = any(GEMRC in c.cleans for run in runs for c in run.cmds)
    out = []
    for run in runs:
        for i, cmd in enumerate(run.cmds):
            for rule, need in cmd.smells:
                if need is None:
                    fires = True
                elif need == GEMRC:
                    fires = not gemrc
                else:
                    fires = not any(need in later.cleans for later in run.cmds[i + 1:])
                if fires:
                    out.append((rule, run.line + i, rule in FLAG_RULES or run.insertable))
    return sorted(out)


def render_run(cmds: list[Cmd], seq_prefix: bool) -> str:
    """A RUN instruction with one command per line.

    With ``seq_prefix`` the RUN starts with ``set -eux;`` on its own line,
    so its top level is a `;` sequence and element repairs are refused.
    """
    joined = " \\\n    && ".join(c.text for c in cmds)
    if seq_prefix:
        return f"RUN set -eux; \\\n    {joined}\n"
    return f"RUN {joined}\n"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

_DIRECTIVE = re.compile(r"#\s*[A-Za-z]+\s*=")


def _insert_marker(text: str, marker: str) -> tuple[str, int]:
    """Add a comment line after any parser directives; return the new text
    and the 1-based line the comment occupies (later lines shift by one)."""
    lines = text.splitlines(keepends=True)
    eol = "\r\n" if lines and lines[0].endswith("\r\n") else "\n"
    at = 0
    while at < len(lines) and _DIRECTIVE.match(lines[at]):
        at += 1
    lines.insert(at, f"# {marker}{eol}")
    return "".join(lines), at + 1


def corpus(seed: int, root: str) -> list[Case]:
    """Byte-distinct copies of every checked-in Dockerfile, seeded order."""
    rng = random.Random(f"corpus:{seed}")
    fixtures = os.path.join(root, "tests", "data", "fixtures")
    roundtrip = os.path.join(root, "tests", "data", "roundtrip")
    with open(os.path.join(fixtures, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    sources = []
    for directory in (fixtures, roundtrip):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".Dockerfile"):
                sources.append(os.path.join(directory, name))
    if not sources:
        raise FileNotFoundError(f"no Dockerfiles under {fixtures} or {roundtrip}")
    draws = [s for s in sources for _ in range(CORPUS_COPIES)]
    rng.shuffle(draws)
    cases = []
    for i, src in enumerate(draws):
        with open(src, encoding="utf-8", newline="") as fh:
            original = fh.read()
        text, at = _insert_marker(original, f"copy {i:04d} {rng.getrandbits(48):012x}")
        base = os.path.basename(src)
        expected = None
        if os.path.dirname(src) == fixtures:
            expected = sorted(
                (d["rule"], d["line"] + (d["line"] >= at), d["fixable"])
                for d in manifest[base]
            )
        size = sum(1 for line in original.splitlines() if line[:1].isalpha())
        cases.append(Case(f"c{i:04d}.Dockerfile", text, expected, size,
                          os.path.relpath(src, root)))
    return cases


_IMAGES = ["debian:bookworm-slim", "ubuntu:22.04", "alpine:3.19", "python:3.12-slim",
           "node:20-bookworm", "ruby:3.3", "rockylinux:9", "golang:1.22"]


def long_runs(seed: int, root: str | None = None) -> list[Case]:
    """One long &&-chain per file; lengths on a fixed grid."""
    rng = random.Random(f"long_runs:{seed}")
    lengths = list(LONG_RUN_LENGTHS)
    rng.shuffle(lengths)
    cases = []
    for i, length in enumerate(lengths):
        shape = Draw(random.Random(f"long_runs:{length}"))
        cmds = RunBuilder(shape, serial=f"{rng.getrandbits(20):05x}x").build(length)
        # as many RUNs start with `set -eux;` as in the checked-in files
        seq = SEQUENCE_LENGTHS[LONG_RUN_LENGTHS.index(length)]
        head = f"FROM {rng.choice(_IMAGES)}\nENV LANG=C.UTF-8 BUILD_ID={rng.getrandbits(32):08x}\n"
        first = 3 + (1 if seq else 0)
        text = head + render_run(cmds, seq) + 'WORKDIR /app\nCMD ["/bin/sh"]\n'
        expected = expected_diagnostics([RunSpec(first, cmds, not seq)])
        cases.append(Case(f"l{i:03d}.Dockerfile", text, expected, len(cmds),
                          f"long_runs seed {seed} #{i}"))
    return cases


def _large_file(rng: random.Random, tag: str, target: int, gemrc: bool) -> tuple[str, list[RunSpec]]:
    parts: list[str] = []
    runs: list[RunSpec] = []
    line = 1
    count = 0

    def emit(text: str) -> None:
        nonlocal line
        parts.append(text)
        line += text.count("\n")

    draw = Draw(rng)
    stages = rng.randint(2, 4)
    per_stage = max(1, target // stages)
    if gemrc:
        cmds = [Cmd("echo 'gem: --no-document' > /etc/gemrc", cleans={GEMRC})]
        emit(f"FROM {rng.choice(_IMAGES)} AS base-{tag}\n")
        runs.append(RunSpec(line, cmds, True))
        emit(render_run(cmds, False))
        count += 2
    while count < target:
        if count % per_stage == 0 or not parts:
            emit(f"FROM {rng.choice(_IMAGES)} AS stage{count}-{tag}\n")
            count += 1
            continue
        kind = draw.pick("kinds", MIX["kinds"])
        if kind == "RUN":
            builder = RunBuilder(draw, serial=f"{tag}{count}x")
            cmds = builder.build(int(draw.pick("run-length", MIX["run_lengths"])))
            seq = len(cmds) > 1 and draw.chance("sequence", *MIX["sequence"])
            runs.append(RunSpec(line + (1 if seq else 0), cmds, not seq))
            emit(render_run(cmds, seq))
        elif kind == "ENV":
            emit(f"ENV {rng.choice(_VARS)}_{count}={rng.randint(1, 99)}.{rng.randint(0, 9)}\n")
        elif kind == "COPY":
            emit(f"COPY {rng.choice(('--chown=app:app ', ''))}src/{count}/ /app/{count}/\n")
        elif kind == "LABEL":
            emit(f'LABEL org.example.step{count}="{tag}"\n')
        elif kind == "WORKDIR":
            emit(f"WORKDIR {rng.choice(_DIRS)}/w{count}\n")
        elif kind == "ARG":
            emit(f"ARG {rng.choice(_VARS)}_{count}\n")
        elif kind == "EXPOSE":
            emit(f"EXPOSE {rng.randint(1024, 9999)}\n")
        elif kind == "USER":
            emit(rng.choice(("USER app\n", "USER root\n")))
        else:
            emit(f"# step {count}\n")
            continue
        count += 1
    emit('CMD ["/bin/sh"]\n')
    return "".join(parts), runs


def large_files(seed: int, root: str | None = None) -> list[Case]:
    """Multi-stage files of mostly short RUNs; sizes on a fixed grid."""
    rng = random.Random(f"large_files:{seed}")
    sizes = list(LARGE_FILE_SIZES)
    rng.shuffle(sizes)
    cases = []
    for i, size in enumerate(sizes):
        # gem is configured file-wide in as many files as in the checked-in ones
        gemrc = GEMRC_SIZES[LARGE_FILE_SIZES.index(size)]
        shape = random.Random(f"large_files:{size}")
        text, runs = _large_file(shape, f"{rng.getrandbits(20):05x}", size, gemrc)
        instructions = sum(1 for ln in text.splitlines() if ln[:1].isalpha())
        cases.append(Case(f"x{i:03d}.Dockerfile", text, expected_diagnostics(runs),
                          instructions, f"large_files seed {seed} #{i}"))
    return cases


GENERATORS = {"corpus": corpus, "long_runs": long_runs, "large_files": large_files}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, root: str) -> list[Case]:
    return GENERATORS[workload](seed, root)


def write_cases(cases: list[Case], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for case in cases:
        with open(os.path.join(directory, case.name), "w", encoding="utf-8", newline="") as fh:
            fh.write(case.text)
