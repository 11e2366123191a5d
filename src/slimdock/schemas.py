"""Declarative command-line schemas used by the enrichment pass.

Each schema describes one tool: its name aliases, subcommand table, flag
table (short/long forms and whether a flag consumes a value), and the role
of positional arguments. The tables are data, not logic: ``LABELS``, the
annotation vocabulary, is every label they declare, and
``query.checked_label`` makes a rule that reads a label no schema
declares fail at import.

A schema lists what a rule reads and no more: the command and subcommand
names (the command names make the enrichment coverage figure, and a
subcommand name ends the walk into the words after it), the flags and
roles a rule reads, and every flag that takes a value, so that the value
is never mistaken for a positional (``mkdir -m 0755 /usr/src/app``).
Every schema's ``-abc`` word is read as a getopt cluster, which stops at
the first letter the schema does not know. So more flags stay because
the walk reads them:

* every ``tar`` flag with a short letter: ``tar xzvpf a.tgz`` is read as
  an old-style bundle only when every letter is a known short flag;
* every ``rm`` short letter, so that ``rm -fr`` reaches its ``-r``;
* ``yarn``'s ``--version`` and ``--help``, which mean a bare ``yarn`` is
  not ``yarn install``.

``WRAPPERS`` gives each wrapper (`sudo`, `env`, ...) a flag table of its
own options, looked up by basename (`/usr/bin/env pip ...` too). The walk
reads a wrapper's option words as it reads a schema's, clusters included
(`sudo -Eu app pip ...`), and takes its first operand as the command it
runs. A wrapper has no schema and declares no labels: it is never the
command that gets enriched. A tool is added by adding its schema to
``SCHEMAS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FlagSpec:
    names: tuple[str, ...]  # e.g. ("-f", "--force")
    canon: str  # label fragment: "FORCE" -> SC-NPM-F-FORCE
    takes_value: bool = False
    value_role: str | None = None  # role label for the consumed value word
    semantic: str | None = None  # extra label applied to the command word


@dataclass(frozen=True)
class SubSpec:
    canon: str  # label fragment, e.g. "INSTALL" or "CACHE-CLEAN"
    children: dict[str, "SubSpec"] = field(default_factory=dict)


@dataclass(frozen=True)
class CommandSchema:
    names: tuple[str, ...]
    label: str  # e.g. "APT-GET" -> command label SC-APT-GET
    subcommands: dict[str, SubSpec] = field(default_factory=dict)
    flags: tuple[FlagSpec, ...] = ()
    positional_role: str | None = None  # role of positionals; no subcommands
    old_style_first_word: bool = False  # tar's "tar xzf file"

    def command_label(self) -> str:
        return f"SC-{self.label}"

    def sub_label(self, canon: str) -> str:
        return f"SC-{self.label}-{canon}"

    def flag_label(self, canon: str) -> str:
        return f"SC-{self.label}-F-{canon}"

    def role_label(self, role: str) -> str:
        return f"SC-{self.label}-{role}"


def _sub(canon: str, **children: SubSpec) -> SubSpec:
    return SubSpec(canon, children)


_F = FlagSpec

SCHEMAS: tuple[CommandSchema, ...] = (
    CommandSchema(
        names=("apt-get",),
        label="APT-GET",
        subcommands={
            "install": _sub("INSTALL"),
            "update": _sub("UPDATE"),
            "upgrade": _sub("UPGRADE"),
            "dist-upgrade": _sub("DIST-UPGRADE"),
            "remove": _sub("REMOVE"),
            "purge": _sub("PURGE"),
            "autoremove": _sub("AUTOREMOVE"),
            "clean": _sub("CLEAN"),
            "autoclean": _sub("AUTOCLEAN"),
            "build-dep": _sub("BUILD-DEP"),
            "source": _sub("SOURCE"),
        },
        flags=(
            _F(("--no-install-recommends",), "NO-INSTALL-RECOMMENDS"),
            _F(("-t", "--target-release"), "TARGET-RELEASE", takes_value=True),
            _F(("-o", "--option"), "OPTION", takes_value=True),
            _F(("-c", "--config-file"), "CONFIG-FILE", takes_value=True),
        ),
    ),
    CommandSchema(
        names=("apt",),
        label="APT",
        subcommands={
            "install": _sub("INSTALL"),
            "update": _sub("UPDATE"),
            "upgrade": _sub("UPGRADE"),
            "full-upgrade": _sub("FULL-UPGRADE"),
            "remove": _sub("REMOVE"),
            "purge": _sub("PURGE"),
            "autoremove": _sub("AUTOREMOVE"),
            "clean": _sub("CLEAN"),
            "list": _sub("LIST"),
            "search": _sub("SEARCH"),
        },
        flags=(
            _F(("--no-install-recommends",), "NO-INSTALL-RECOMMENDS"),
            _F(("-o", "--option"), "OPTION", takes_value=True),
        ),
    ),
    CommandSchema(
        names=("apk",),
        label="APK",
        subcommands={
            "add": _sub("ADD"),
            "del": _sub("DEL"),
            "update": _sub("UPDATE"),
            "upgrade": _sub("UPGRADE"),
            "info": _sub("INFO"),
            "cache": _sub("CACHE"),
        },
        flags=(
            _F(("--no-cache",), "NO-CACHE"),
            _F(("-t", "--virtual"), "VIRTUAL", takes_value=True),
            _F(("--repository", "-X"), "REPOSITORY", takes_value=True),
        ),
    ),
    CommandSchema(
        names=("pip", "pip2", "pip3"),
        label="PIP",
        subcommands={
            "install": _sub("INSTALL"),
            "download": _sub("DOWNLOAD"),
            "uninstall": _sub("UNINSTALL"),
            "wheel": _sub("WHEEL"),
            "freeze": _sub("FREEZE"),
            "list": _sub("LIST"),
        },
        flags=(
            _F(("--no-cache-dir",), "NO-CACHE-DIR"),
            _F(("--cache-dir",), "CACHE-DIR", takes_value=True),
            _F(("-r", "--requirement"), "REQUIREMENT", takes_value=True),
            _F(("-c", "--constraint"), "CONSTRAINT", takes_value=True),
            _F(("-e", "--editable"), "EDITABLE", takes_value=True),
            _F(("-i", "--index-url"), "INDEX-URL", takes_value=True),
            _F(("--extra-index-url",), "EXTRA-INDEX-URL", takes_value=True),
            _F(("--trusted-host",), "TRUSTED-HOST", takes_value=True),
            _F(("-t", "--target"), "TARGET", takes_value=True),
            _F(("--upgrade-strategy",), "UPGRADE-STRATEGY", takes_value=True),
        ),
    ),
    CommandSchema(
        names=("npm",),
        label="NPM",
        subcommands={
            "install": _sub("INSTALL"),
            "i": _sub("INSTALL"),
            "add": _sub("INSTALL"),
            "ci": _sub("CI"),
            "cache": _sub("CACHE", clean=_sub("CACHE-CLEAN"), verify=_sub("CACHE-VERIFY")),
            "run": _sub("RUN"),
            "prune": _sub("PRUNE"),
            "rebuild": _sub("REBUILD"),
            "update": _sub("UPDATE"),
        },
        flags=(
            _F(("-f", "--force"), "FORCE"),
            _F(("--omit",), "OMIT", takes_value=True),
            _F(("--registry",), "REGISTRY", takes_value=True),
        ),
    ),
    CommandSchema(
        names=("yarn",),
        label="YARN",
        subcommands={
            "install": _sub("INSTALL"),
            "add": _sub("ADD"),
            "global": _sub("GLOBAL"),
            "run": _sub("RUN"),
            "build": _sub("BUILD"),
            "cache": _sub("CACHE", clean=_sub("CACHE-CLEAN")),
        },
        flags=(
            _F(("--network-timeout",), "NETWORK-TIMEOUT", takes_value=True),
            _F(("--cache-folder",), "CACHE-FOLDER", takes_value=True),
            _F(("--version",), "VERSION"),
            _F(("-h", "--help"), "HELP"),
        ),
    ),
    CommandSchema(
        names=("gem",),
        label="GEM",
        subcommands={
            "update": _sub("UPDATE"),
            "install": _sub("INSTALL"),
            "uninstall": _sub("UNINSTALL"),
            "cleanup": _sub("CLEANUP"),
            "build": _sub("BUILD"),
        },
        flags=(
            _F(("--system",), "SYSTEM"),
            _F(("-N", "--no-document"), "NO-DOCUMENT"),
        ),
    ),
    CommandSchema(
        names=("yum", "dnf", "microdnf"),
        label="YUM",
        subcommands={
            "install": _sub("INSTALL"),
            "localinstall": _sub("LOCALINSTALL"),
            "groupinstall": _sub("GROUPINSTALL"),
            "update": _sub("UPDATE"),
            "upgrade": _sub("UPGRADE"),
            "remove": _sub("REMOVE"),
            "erase": _sub("REMOVE"),
            "clean": _sub("CLEAN"),
            "makecache": _sub("MAKECACHE"),
        },
        flags=(
            _F(("--setopt",), "SETOPT", takes_value=True),
            _F(("--enablerepo",), "ENABLEREPO", takes_value=True),
            _F(("--disablerepo",), "DISABLEREPO", takes_value=True),
        ),
    ),
    CommandSchema(
        names=("tar",),
        label="TAR",
        flags=(
            _F(("-x", "--extract", "--get"), "EXTRACT", semantic="SC-TAR-EXTRACT"),
            _F(("-c", "--create"), "CREATE"),
            _F(("-t", "--list"), "LIST"),
            _F(("-f", "--file"), "FILE", takes_value=True, value_role="ARCHIVE"),
            _F(("-z", "--gzip", "--gunzip"), "GZIP"),
            _F(("-j", "--bzip2"), "BZIP2"),
            _F(("-J", "--xz"), "XZ"),
            _F(("-a", "--auto-compress"), "AUTO-COMPRESS"),
            _F(("-v", "--verbose"), "VERBOSE"),
            _F(("-C", "--directory"), "DIRECTORY", takes_value=True),
            _F(("-p", "--preserve-permissions"), "PRESERVE-PERMISSIONS"),
            _F(("--strip-components",), "STRIP-COMPONENTS", takes_value=True),
            _F(("--owner",), "OWNER", takes_value=True),
            _F(("--group",), "GROUP", takes_value=True),
            _F(("--exclude",), "EXCLUDE", takes_value=True),
            _F(("-k", "--keep-old-files"), "KEEP-OLD-FILES"),
            _F(("-m", "--touch"), "TOUCH"),
            _F(("-O", "--to-stdout"), "TO-STDOUT"),
        ),
        old_style_first_word=True,
    ),
    CommandSchema(
        names=("rm",),
        label="RM",
        flags=(
            _F(("-r", "-R", "--recursive"), "RECURSIVE"),
            _F(("-f",), "FORCE"),
            _F(("-i",), "INTERACTIVE"),
            _F(("-I",), "INTERACTIVE-ONCE"),
            _F(("-d",), "DIR"),
            _F(("-v",), "VERBOSE"),
        ),
        positional_role="PATH",
    ),
    CommandSchema(
        names=("mkdir",),
        label="MKDIR",
        flags=(_F(("-m", "--mode"), "MODE", takes_value=True),),
        positional_role="PATH",
    ),
    CommandSchema(
        names=("mktemp",),
        label="MKTEMP",
        flags=(
            _F(("-d", "--directory"), "D"),
            _F(("-p", "--tmpdir"), "TMPDIR", takes_value=True),
        ),
    ),
    CommandSchema(
        names=("gpg", "gpg2"),
        label="GPG",
        flags=(
            _F(("--verify",), "VERIFY"),
            _F(("--keyserver",), "KEYSERVER", takes_value=True),
            _F(("--homedir",), "HOMEDIR", takes_value=True),
            _F(("-o", "--output"), "OUTPUT", takes_value=True),
        ),
        positional_role="FILE",
    ),
    CommandSchema(names=("wget",), label="WGET"),
    CommandSchema(names=("curl",), label="CURL"),
    CommandSchema(names=("cd",), label="CD"),
    CommandSchema(names=("echo",), label="ECHO"),
)

#: Each wrapper's options, read like a schema's. A wrapper has no labels,
#: so its flags have no canon, but for LOOKUP: ``command -v yarn`` only
#: looks its operand up and runs nothing.
WRAPPERS: dict[str, tuple[FlagSpec, ...]] = {
    "sudo": (
        *(_F(("-" + ch,), "") for ch in "EHnSbiskK"),
        *(_F(("-" + ch,), "", takes_value=True) for ch in "pCrtU"),
        _F(("-u", "--user"), "", takes_value=True),
        _F(("-g", "--group"), "", takes_value=True),
    ),
    "env": (
        _F(("-i", "--ignore-environment"), ""),
        _F(("-0", "--null"), ""),
        _F(("-u", "--unset"), "", takes_value=True),
        _F(("-C", "--chdir"), "", takes_value=True),
        _F(("-S", "--split-string"), "", takes_value=True),
    ),
    "command": (_F(("-p",), ""), _F(("-v", "-V"), "LOOKUP")),
    "nice": (_F(("-n", "--adjustment"), "", takes_value=True),),
    "time": (_F(("-p",), ""),),
    # pipeline negation: skip it so `! pip install x` still enriches
    "!": (),
}

#: Applied to a bare ``yarn`` with no subcommand, which means ``yarn install``.
YARN_IMPLICIT_INSTALL = "SC-YARN-INSTALL"


def _labels_for(schema: CommandSchema) -> set[str]:
    labels = {schema.command_label()}

    def walk(subs: dict[str, SubSpec]) -> None:
        for sub in subs.values():
            labels.add(schema.sub_label(sub.canon))
            walk(sub.children)

    walk(schema.subcommands)
    for flag in schema.flags:
        labels.add(schema.flag_label(flag.canon))
        if flag.value_role:
            labels.add(schema.role_label(flag.value_role))
        if flag.semantic:
            labels.add(flag.semantic)
    if schema.positional_role:
        labels.add(schema.role_label(schema.positional_role))
    return labels


#: Every label enrichment may put on a node.
LABELS = frozenset(label for schema in SCHEMAS for label in _labels_for(schema))

_BY_NAME = {name: schema for schema in SCHEMAS for name in schema.names}


def schema_for(command: str) -> CommandSchema | None:
    return _BY_NAME.get(command)
