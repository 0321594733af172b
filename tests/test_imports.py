"""Every imported name is used.

A stdlib ``ast`` scan of the package, the tests, the demos and the tools:
a name bound by an import must appear somewhere else in its module, or be
listed in the module's ``__all__``.  ``perfbench/`` is left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos", "tools")
    for path in (ROOT / folder).rglob("*.py")
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports() -> None:
    assert "src/mecsched/config.py" in FILES and "tests/test_imports.py" in FILES
    found = {path: _unused_imports((ROOT / path).read_text(encoding="utf-8")) for path in FILES}
    assert {path: unused for path, unused in found.items() if unused} == {}


def test_scan_flags_an_unused_import() -> None:
    source = "import numpy as np\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert _unused_imports(source) == ["line 1: np", "line 2: path"]
