"""Every imported name is used, every package definition is used by the
package, a demo or the bench, and every name the bench's tracer wraps exists:
guards against leftovers, and against the breakage, of deleted helpers.

Checks the imports of the package modules (``__init__.py`` re-exports by
design), the tests and the demos. The one allowed unused import is
``harness.event_rng``, which the benchmark's tracer test reaches as an
attribute of ``harness``.
"""

import ast
import importlib
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


def _names(node, strings=False) -> Counter:
    """How often each name is read or written under *node*, as a bare name or
    as an attribute, and with *strings* also as a string constant that names
    it, as ``"projector"`` or ``"core.projector"`` does."""
    found = Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute)))
    if strings:
        found.update(n.value.rpartition(".")[2] for n in ast.walk(node)
                     if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return found


def _orphans(sources: dict, users=()) -> list:
    """``module.name`` of every module-level function, class or constant in
    the package *sources* (module name -> text) that no code outside its own
    definition names. A name counts as used when package code outside its
    definition names it, or one of *users*, the texts of the demos and the
    bench files; there a string counts too, since the bench's tracer looks its
    targets up by name.
    A re-export in ``__init__`` does not count, and neither do the tests: an
    export kept only for tests is an orphan."""
    trees = {m: ast.parse(text) for m, text in sources.items() if m != "__init__"}
    everywhere = sum(map(_names, trees.values()), Counter())
    for text in users:
        everywhere += _names(ast.parse(text), strings=True)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = _names(node)
            found += [f"{module}.{name}" for name in names if everywhere[name] == inside[name]]
    return found


def test_every_definition_is_used_or_exported():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    users = [p.read_text(encoding="utf-8")
             for p in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")])]
    assert _orphans(sources, users) == []


def test_guard_sees_an_orphaned_definition():
    sources = {
        "__init__": "from .a import exported, tested, traced\n",
        "a": "LIMIT = 3\nSPARE = 4\ndef exported():\n    return LIMIT\n"
             "def recursive(n):\n    return recursive(n - 1)\nclass Spare:\n    pass\n"
             "def tested():\n    pass\ndef traced():\n    pass\n",
        "b": "from . import a\nprint(a.exported)\n",
    }
    users = ['TARGETS = {"a": ("traced",)}\n']
    assert _orphans(sources, users) == ["a.SPARE", "a.recursive", "a.Spare", "a.tested"]


def test_bench_tracer_targets_exist():
    # The traced bench sample looks up every TARGETS name with getattr, so a
    # deleted one crashes `bench/run.py --trace 1`. Read, not imported: the
    # tracer is bench code.
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    targets = ast.literal_eval(value)
    missing = [f"dualmeas.{module}.{name}" for module, names in targets.items() for name in names
               if not callable(getattr(importlib.import_module(f"dualmeas.{module}"), name, None))]
    assert targets and missing == []
