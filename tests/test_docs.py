"""Docs are code, first step: what the docs tell a reader to run exists.

Every ``python -m <module>`` of this repository that the prose, the
examples, the CI workflow or the verify skill names must import, every
``*.json`` / ``*.py`` / ``*.md`` file they name must be in the tree, and
every backticked ``Name.member`` of the public surface must resolve. A
deleted CLI, a renamed artifact or a removed method then fails here
instead of living on in a README paragraph.
"""

from __future__ import annotations

import fnmatch
import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # ``tools`` and ``perfbench`` live at the root
    sys.path.insert(0, str(ROOT))

DOCS = sorted(
    path
    for pattern in (
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", "examples/*.py",
        ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
    )
    for path in ROOT.glob(pattern)
)

#: Top-level packages whose modules live in this repository; ``-m pytest``
#: and the like are somebody else's to keep importable.
OWN_PACKAGES = ("repro", "tools", "perfbench")

#: Directories that runs write into; the docs name files there as outputs.
OUTPUT_DIRS = ("results/", "perfbench/out/")

MODULE = re.compile(r"(?<![\w-])-m\s+([A-Za-z_][\w.]*)")
PATH = re.compile(r"(?<![\w./*<>{}-])[\w./*-]*\w\.(?:json|py|md)\b(?![\w*<{])")


def doc_id(path: Path) -> str:
    return str(path.relative_to(ROOT))


def test_the_doc_set_is_not_empty():
    names = {doc_id(path) for path in DOCS}
    assert {"README.md", ".github/workflows/ci.yml", "docs/execution.md"} <= names


def resolves(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is not None
    except ModuleNotFoundError:  # find_spec imports the parent package
        return False


@pytest.mark.parametrize("doc", DOCS, ids=doc_id)
def test_named_modules_import(doc):
    modules = {
        name.rstrip(".")
        for name in MODULE.findall(doc.read_text())
        if name.split(".")[0] in OWN_PACKAGES
    }
    missing = sorted(m for m in modules if not resolves(m))
    assert not missing, f"{doc_id(doc)} names modules that do not import: {missing}"


#: Every source file of the tree as ``/``-rooted text, so that a name the
#: docs abbreviate (``bench/workloads.py``, ``bench_fig3_pqscan_impls.py``)
#: matches as a path suffix. Caches and run outputs are not sources.
TREE = [
    "/" + relative
    for relative in (
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*")
        if path.suffix in (".json", ".py", ".md")
    )
    if not relative.startswith(OUTPUT_DIRS)
    and not any(
        part.startswith(".") and part not in (".claude", ".github")
        for part in Path(relative).parts
    )
]


def exists(token: str) -> bool:
    return any(fnmatch.fnmatchcase(path, "*/" + token) for path in TREE)


@pytest.mark.parametrize("doc", DOCS, ids=doc_id)
def test_named_files_exist(doc):
    tokens = {
        token
        for token in PATH.findall(doc.read_text())
        if not token.startswith(("/", ".", *OUTPUT_DIRS))
    }
    missing = sorted(t for t in tokens if not exists(t))
    assert not missing, f"{doc_id(doc)} names files that do not exist: {missing}"


def public_exports() -> dict[str, list[object]]:
    """``__all__`` names of ``repro`` and of its subpackages."""
    import repro

    packages = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    exports: dict[str, list[object]] = {}
    for package in packages:
        for name in getattr(package, "__all__", ()):
            exports.setdefault(name, []).append(getattr(package, name))
    return exports


def defines(obj: object, member: str) -> bool:
    """``getattr`` finds it, or the class declares it: a dataclass field
    or another annotation, or an attribute a method assigns on ``self``."""
    if hasattr(obj, member):
        return True
    if not inspect.isclass(obj):
        return False
    assigned = re.compile(rf"\bself\.{member}\s*(?::[^=\n]+)?=(?!=)")
    return any(
        member in vars(klass).get("__annotations__", {})
        or assigned.search(inspect.getsource(klass))
        for klass in obj.__mro__
        if klass.__module__.startswith("repro")
    )


#: A ``Name.member`` inside a backticked span or a fenced block;
#: ``Name.prefix_*`` globs are not members.
BACKTICKED = re.compile(r"`[^`\n]+`|```.*?```", re.DOTALL)
MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)\b(?!\*)")


@pytest.mark.parametrize("doc", DOCS, ids=doc_id)
def test_named_members_resolve(doc):
    exports = public_exports()
    named = {
        (name, member)
        for span in BACKTICKED.findall(doc.read_text())
        for name, member in MEMBER.findall(span)
        if name in exports
    }
    unresolved = sorted(
        f"{name}.{member}"
        for name, member in named
        if not any(defines(obj, member) for obj in exports[name])
    )
    assert not unresolved, (
        f"{doc_id(doc)} names members that do not exist: {unresolved}"
    )


#: A Markdown heading outside fenced code, and a change number in one.
FENCED = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
HEADING = re.compile(r"^#{1,6} .*$", re.MULTILINE)
CHANGE_NUMBER = re.compile(r"PR \d+")


@pytest.mark.parametrize(
    "doc",
    [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))],
    ids=doc_id,
)
def test_no_heading_names_a_change(doc):
    """A section states the current design; which change made it is
    CHANGES.md's to record."""
    headings = HEADING.findall(FENCED.sub("", doc.read_text()))
    named = [heading for heading in headings if CHANGE_NUMBER.search(heading)]
    assert not named, f"{doc_id(doc)} has headings naming a change: {named}"


#: One row of ``docs/observability.md``'s family table: name, kind, labels.
FAMILY_ROW = re.compile(r"^\|\s*`(repro_\w+)`\s*\|\s*(\w+)\s*\|([^|]*)\|", re.MULTILINE)


def test_observability_doc_lists_the_declared_families():
    from repro.obs.families import FAMILIES

    declared = {(f.name, f.kind, f.labels) for f in FAMILIES.values()}
    documented = {
        (name, kind, tuple(re.findall(r"`(\w+)`", labels)))
        for name, kind, labels in FAMILY_ROW.findall(
            (ROOT / "docs" / "observability.md").read_text()
        )
    }
    assert sorted(documented - declared) == [], "documented, not declared"
    assert sorted(declared - documented) == [], "declared, not documented"
