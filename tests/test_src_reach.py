"""Every `def` and `class` in `src/spheremotion` is reached from what the
program runs.

A name graph over the modules' ASTs: a definition reaches every definition
whose name its body mentions, as a name, an attribute or an identifier
string.  A class reaches its dunder methods, which Python calls without
naming them.  Names are matched across modules, so the graph can only
over-approximate what is reached.  The roots are:

- `cli.main` and every `cmd_*` handler, which `main` looks up by string;
- the module-level statements other than imports;
- every name `perfbench/*.py` mentions: its jobs, and the span names its
  tracer looks up by string;
- every name `tests/test_acceptance.py` imports;
- the `Fraction` readers that the oracles compare against.

A definition that none of these reach is code only its own tests run.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spheremotion"

REFERENCE_READERS = ("position_at", "cotime_at", "lap_at", "parse_position")


def mentioned(nodes) -> set[str]:
    """Names, attributes and identifier strings anywhere under `nodes`."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value.isidentifier():
                    names.add(sub.value)
    return names


def is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def definitions():
    """(qualified name, simple name, mentioned names) for every module-level
    def and class and every method; and the module-level root names."""
    defs, roots = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not is_def(node):
                roots |= mentioned([node])
                continue
            qual = f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                body = [n for n in node.body if not is_def(n)]
                methods = [n for n in node.body if is_def(n)]
                dunders = {m.name for m in methods if m.name.startswith("__")}
                defs.append((qual, node.name,
                             mentioned(node.decorator_list + node.bases + body) | dunders))
                for m in methods:
                    defs.append((f"{qual}.{m.name}", m.name, mentioned([m])))
            else:
                defs.append((qual, node.name, mentioned([node])))
    return defs, roots


def perfbench_names() -> set[str]:
    return mentioned(ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py")))


def acceptance_imports() -> set[str]:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("spheremotion") for a in node.names}


def unreached() -> list[str]:
    defs, roots = definitions()
    roots |= {"main", *REFERENCE_READERS} | perfbench_names() | acceptance_imports()
    roots |= {name for _, name, _ in defs if name.startswith("cmd_")}
    mentions = {}
    for _, name, names in defs:
        mentions.setdefault(name, set()).update(names)
    reached, todo = set(), [n for n in roots if n in mentions]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for n in mentions[name] if n in mentions)
    return sorted(qual for qual, name, _ in defs if name not in reached)


def test_every_src_definition_is_reached():
    missing = unreached()
    assert not missing, "reached by nothing the program runs: " + ", ".join(missing)


def test_the_graph_sees_the_roots():
    defs, _ = definitions()
    quals = {qual for qual, _, _ in defs}
    assert {"cli.main", "cli.cmd_word", "motion.position_at",
            "jsonio.parse_position", "groups.FreeProductWord.conjugate_by"} <= quals
    assert "conjugate_by" in perfbench_names()
    assert "psi_progress" in acceptance_imports()
