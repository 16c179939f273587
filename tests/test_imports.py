"""Every imported name is used, and every package definition is used or
exported: guards against leftovers of deleted helpers.

Checks the package modules (``__init__.py`` re-exports by design), the tests
and the demos. The one allowed unused import is ``harness.event_rng``, which
the benchmark's tracer test reaches as an attribute of ``harness``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualmeas"
FILES = [
    *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
]
ALLOWED = {("src/dualmeas/harness.py", "event_rng")}


def _unused_imports(source: str, where: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported - used if (where, name) not in ALLOWED)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_imported_name_is_used(path):
    where = path.relative_to(ROOT).as_posix()
    assert _unused_imports(path.read_text(encoding="utf-8"), where) == []


def test_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom math import pi, tau\nprint(tau)\n"
    assert _unused_imports(source, "demos/probe.py") == ["os", "pi"]
    assert _unused_imports("from .dual import event_rng\n", "src/dualmeas/harness.py") == []


def _names(node) -> Counter:
    """How often each name is read or written under *node*, as a bare name or
    as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _orphans(sources: dict) -> list:
    """``module.name`` of every module-level function, class or constant in
    *sources* (module name -> text) that no code outside its own definition
    names, and that ``__init__`` does not import."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    exported = {a.asname or a.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for a in node.names}
    everywhere = sum(map(_names, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = _names(node)
            found += [f"{module}.{name}" for name in names
                      if name not in exported and everywhere[name] == inside[name]]
    return found


def test_every_definition_is_used_or_exported():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _orphans(sources) == []


def test_guard_sees_an_orphaned_definition():
    sources = {
        "__init__": "from .a import exported\n",
        "a": "LIMIT = 3\nSPARE = 4\ndef exported():\n    return LIMIT\n"
             "def recursive(n):\n    return recursive(n - 1)\nclass Spare:\n    pass\n",
        "b": "from . import a\nprint(a.exported)\n",
    }
    assert _orphans(sources) == ["a.SPARE", "a.recursive", "a.Spare"]
