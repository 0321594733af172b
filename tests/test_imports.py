"""Every imported name is used, and every exported name exists.

A stdlib ``ast`` scan of the package, the tests, the demos and the tools:
a name bound by an import must appear somewhere else in its module, or be
listed in the module's ``__all__``.  ``perfbench/`` is left out.  In the
package, every name in a module's ``__all__`` must be bound at the
module's top level; the import scan counts ``__all__`` names as used, so
a stale entry would otherwise keep a stale import alive unnoticed.

Two more scans guard the package's boundaries: no package module imports
an underscore name from another one, and only ``workload`` draws, that is,
refers to ``np.random``, the task streams or the kernel's draw entries
(declaring their ``argtypes`` and ``restype`` in ``_kernel`` draws
nothing).
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
PACKAGE = [path for path in FILES if path.startswith("src/mecsched/")]
DRAWS = {"np.random", "numpy.random", "task_streams", "mecsched_draw_tasks", "mecsched_estimate_slots"}


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


def _private_imports(source: str) -> list[str]:
    """Underscore names imported from a package module, as ``from .x
    import _name`` or ``from mecsched.x import _name``."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module and (node.level or node.module.startswith("mecsched."))
        for alias in node.names
        if alias.name.startswith("_")
    ]


def _draws(source: str) -> list[str]:
    """References to a name in ``DRAWS``: a name, an attribute or an
    import.  An attribute whose ``argtypes`` or ``restype`` is taken
    declares a kernel function's signature and is not counted."""
    tree = ast.parse(source)
    declared = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("argtypes", "restype")
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute) and id(node) not in declared:
            prefix = f"{node.value.id}." if isinstance(node.value, ast.Name) else ""
            names = [node.attr, prefix + node.attr]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [name for alias in node.names for name in (alias.name, f"{node.module}.{alias.name}")]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in DRAWS]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_package_exports_only_bound_names() -> None:
    assert "src/mecsched/catalog.py" in PACKAGE
    found = {path: _unbound_exports((ROOT / path).read_text(encoding="utf-8")) for path in PACKAGE}
    assert {path: unbound for path, unbound in found.items() if unbound} == {}


def test_scan_flags_an_unbound_export() -> None:
    source = (
        "from os import sep\nLIMIT: int = 3\na, (b, c) = 1, (2, 3)\n"
        "class Kept:\n    pass\ndef run():\n    gone = 1\n"
        "__all__ = ['sep', 'LIMIT', 'a', 'c', 'Kept', 'run', 'gone', 'Removed']\n"
    )
    assert _unbound_exports(source) == ["gone", "Removed"]


def test_package_imports_no_private_name_of_another_module() -> None:
    found = {path: _private_imports((ROOT / path).read_text(encoding="utf-8")) for path in PACKAGE}
    assert {path: private for path, private in found.items() if private} == {}


def test_scan_flags_a_private_import() -> None:
    source = (
        "from . import _kernel\nfrom .workload import _check, draw\nfrom mecsched.catalog import _edges\n"
        "from ._kernel import lib\nfrom os import _exit\nfrom mecsched import _kernel\n"
    )
    assert _private_imports(source) == ["line 2: _check", "line 3: _edges"]


def test_only_workload_draws() -> None:
    assert _draws((ROOT / "src/mecsched/workload.py").read_text(encoding="utf-8"))
    others = [path for path in PACKAGE if path != "src/mecsched/workload.py"]
    found = {path: _draws((ROOT / path).read_text(encoding="utf-8")) for path in others}
    assert {path: draws for path, draws in found.items() if draws} == {}


def test_scan_flags_a_draw() -> None:
    source = (
        "import numpy as np\nrng = np.random.default_rng(0)\nfrom .workload import task_streams\n"
        "lib.mecsched_estimate_slots(words)\nlib.mecsched_draw_tasks.argtypes = []\n"
        "lib.mecsched_estimate_slots.restype = None\nrandom = rng.random()\nfrom numpy import random\n"
    )
    assert _draws(source) == [
        "line 2: np.random", "line 3: task_streams", "line 4: mecsched_estimate_slots", "line 8: numpy.random",
    ]
