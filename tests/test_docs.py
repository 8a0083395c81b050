"""Docs are code, first step: what the docs tell a reader to run exists.

Every ``python -m <module>`` of this repository that the prose, the
examples, the CI workflow or the verify skill names must import, and
every ``*.json`` / ``*.py`` / ``*.md`` file they name must be in the
tree. A deleted CLI or a renamed artifact then fails here instead of
living on in a README paragraph.
"""

from __future__ import annotations

import fnmatch
import importlib.util
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
