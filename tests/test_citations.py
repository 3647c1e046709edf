"""Every test the source and the docs cite exists.

A citation is a test file path under ``tests/``, optionally followed by
``::Class`` and ``::function`` names, as pytest prints a node id.  Each
one must name an existing file and, inside it, a chain of definitions
nested from the module's top level.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Where citations live: the package source and the prose documents.
SOURCES = ("src", "docs", "README.md", "DESIGN.md", "EXPERIMENTS.md")

CITATION = re.compile(r"tests/[\w/]+\.py(?:::\w+)*")


def citations() -> dict:
    """citation -> the first ``file:line`` that makes it."""
    found: dict = {}
    for source in SOURCES:
        top = ROOT / source
        paths = sorted(top.rglob("*")) if top.is_dir() else [top]
        for path in paths:
            if path.suffix not in (".py", ".md") or not path.is_file():
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, 1):
                for citation in CITATION.findall(line):
                    where = f"{path.relative_to(ROOT)}:{number}"
                    found.setdefault(citation, where)
    return found


CITED = citations()


def test_citations_found():
    assert len(CITED) >= 10


@pytest.mark.parametrize("citation", sorted(CITED))
def test_citation_resolves(citation):
    file, *names = citation.split("::")
    path = ROOT / file
    assert path.is_file(), f"{CITED[citation]} cites a missing file {file}"
    node = ast.parse(path.read_text(encoding="utf-8"))
    for depth, name in enumerate(names):
        defs = {
            child.name: child
            for child in node.body
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert name in defs, (
            f"{CITED[citation]} cites {citation}, but "
            f"{'::'.join([file, *names[:depth]])} defines no {name}"
        )
        node = defs[name]
