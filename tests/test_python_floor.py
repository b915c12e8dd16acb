"""The program keeps to the Python floor that pyproject.toml declares.

Every module under src/spheremotion/ is parsed with the grammar of that
version, so syntax from a newer Python (such as `except*`, new in 3.11)
fails here even when the tests run on a newer interpreter.  The grammar
is all this checks: a newer standard-library name passes it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "spheremotion").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    return int(found[1]), int(found[2])


def test_the_floor_is_declared():
    assert declared_floor() == (3, 10)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs the 3.11 grammar")
def test_the_floor_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=declared_floor())


def test_the_scan_covers_the_program():
    assert {p.name for p in MODULES} >= {"motion.py", "comotion.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())
