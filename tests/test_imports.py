"""Every imported name is used, and every exported name exists.

A stdlib ``ast`` scan of the package, the tests, the demos and the tools:
a name bound by an import must appear somewhere else in its module, or be
listed in the module's ``__all__``.  ``perfbench/`` is left out.  In the
package, every name in a module's ``__all__`` must be bound at the
module's top level; the import scan counts ``__all__`` names as used, so
a stale entry would otherwise keep a stale import alive unnoticed.
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
    used.update(_exports(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _exports(tree: ast.Module) -> list[str]:
    """The names a module's top-level ``__all__ = [...]`` lists."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return list(ast.literal_eval(node.value))
    return []


def _unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level definition, assignment or
    import of the module binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in _exports(tree) if name not in bound]


def test_no_unused_imports() -> None:
    assert "src/mecsched/config.py" in FILES and "tests/test_imports.py" in FILES
    found = {path: _unused_imports((ROOT / path).read_text(encoding="utf-8")) for path in FILES}
    assert {path: unused for path, unused in found.items() if unused} == {}


def test_scan_flags_an_unused_import() -> None:
    source = "import numpy as np\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert _unused_imports(source) == ["line 1: np", "line 2: path"]


def test_package_exports_only_bound_names() -> None:
    package = [path for path in FILES if path.startswith("src/mecsched/")]
    assert "src/mecsched/catalog.py" in package
    found = {path: _unbound_exports((ROOT / path).read_text(encoding="utf-8")) for path in package}
    assert {path: unbound for path, unbound in found.items() if unbound} == {}


def test_scan_flags_an_unbound_export() -> None:
    source = (
        "from os import sep\nLIMIT: int = 3\na, (b, c) = 1, (2, 3)\n"
        "class Kept:\n    pass\ndef run():\n    gone = 1\n"
        "__all__ = ['sep', 'LIMIT', 'a', 'c', 'Kept', 'run', 'gone', 'Removed']\n"
    )
    assert _unbound_exports(source) == ["gone", "Removed"]
