"""Only `groups` knows the normal form: no other module of the program
names the unchecked word builder `_from_checked`.

Every module under src/spheremotion/ is parsed and scanned for the name as
a bare name, an attribute, an imported name or a string.  Other modules cut
words with `FreeProductWord.span` and build them with the checked
constructors.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spheremotion"
MODULES = sorted(SRC.glob("*.py"))
BUILDER = "_from_checked"


def builder_uses(source: str) -> list[int]:
    """Lines that name the builder."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == BUILDER
                or isinstance(node, ast.Attribute) and node.attr == BUILDER
                or isinstance(node, ast.Constant) and node.value == BUILDER
                or isinstance(node, ast.ImportFrom)
                and any(a.name == BUILDER for a in node.names)):
            found.append(node.lineno)
    return sorted(found)


def test_the_scan_finds_each_kind():
    src = (
        "from .groups import _from_checked\n"
        "from . import groups\n"
        "a = groups._from_checked(base, ())\n"
        "b = _from_checked\n"
        "c = getattr(groups, '_from_checked')\n"
        "d = groups.from_checked\n"
    )
    assert builder_uses(src) == [1, 3, 4, 5]


def test_the_scan_covers_the_program():
    assert builder_uses((SRC / "groups.py").read_text())
    assert {p.name for p in MODULES} >= {"groups.py", "rewriting.py", "jsonio.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "groups.py"],
                         ids=lambda p: p.name)
def test_only_groups_names_the_builder(path):
    assert builder_uses(path.read_text()) == []
