"""Every imported name is used: a guard against leftovers of deleted helpers.

Checks the package modules (``__init__.py`` re-exports by design), the tests
and the demos. The one allowed unused import is ``harness.event_rng``, which
the benchmark's tracer test reaches as an attribute of ``harness``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = [
    *sorted(p for p in (ROOT / "src" / "dualmeas").glob("*.py") if p.name != "__init__.py"),
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
