"""Arithmetic stays exact: no module of the program touches floats.

Every module under src/spheremotion/ is parsed and scanned for float
literals, float(...) calls and math.isclose.  The one exception is the
fuzzers' draw probabilities, a float constant on the right of
`rng.random() <` in fuzzing.py, matched by that shape.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spheremotion"
MODULES = sorted(SRC.glob("*.py"))


def _draws_rng_random(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and not node.args
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "random"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "rng"
    )


def float_uses(source: str, draws_allowed: bool = False) -> list[tuple[int, str]]:
    """(line, what) for every float literal, float(...) call and isclose,
    leaving out `rng.random() < p` when draws_allowed."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if (draws_allowed and isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Lt) and _draws_rng_random(node.left)):
            allowed.add(id(node.comparators[0]))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            if id(node) not in allowed:
                found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((node.lineno, "float(...) call"))
        elif isinstance(node, ast.Attribute) and node.attr == "isclose":
            found.append((node.lineno, "isclose"))
        elif isinstance(node, ast.ImportFrom) and any(a.name == "isclose" for a in node.names):
            found.append((node.lineno, "isclose import"))
    return sorted(found)


def test_the_scan_finds_each_kind():
    src = (
        "from math import isclose\n"
        "import math\n"
        "a = 0.5\n"
        "b = float(a)\n"
        "c = math.isclose(a, b)\n"
        "d = rng.random() < 0.25\n"
        "e = 0.25 > rng.random()\n"
        "f = other.random() < 0.25\n"
    )
    assert [line for line, _ in float_uses(src, draws_allowed=True)] == [1, 3, 4, 5, 7, 8]
    assert [line for line, _ in float_uses(src)] == [1, 3, 4, 5, 6, 7, 8]


def test_the_scan_covers_the_program():
    assert {p.name for p in MODULES} >= {"motion.py", "comotion.py", "fuzzing.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_arithmetic(path):
    source = path.read_text()
    assert float_uses(source, draws_allowed=path.name == "fuzzing.py") == []
