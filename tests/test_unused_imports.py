"""Every name a library module imports is used in that module, and every
private module-level name is used somewhere in the package.

No linter ships with the project, so this walks the syntax trees of the
modules under ``src/schurmult`` instead.  ``__init__.py`` is checked
apart: its imports are the package's re-exports, so each must be listed
in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import schurmult

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schurmult"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imports(tree: ast.Module) -> dict[str, int]:
    """Each imported name with the line that imports it."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = _imports(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_unused_import_is_reported():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\n\nprint(lcm(2, 3))\n")
    assert _unused_imports(tree) == ["gcd (line 1)", "os (line 2)"]


def test_package_exports_match_its_imports():
    missing = [name for name in schurmult.__all__ if not hasattr(schurmult, name)]
    assert missing == []
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert sorted(set(_imports(tree)) - set(schurmult.__all__)) == []


def _private_names(statement: ast.stmt) -> list[str]:
    """Names with one leading underscore that a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _references(statement: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private top-level names that no other top-level statement of any
    module refers to, so a name used only in its own definition counts."""
    statements = [
        (label, statement) for label, tree in trees.items() for statement in tree.body
    ]
    references = [(statement, _references(statement)) for _, statement in statements]
    return [
        f"{name} ({label}:{statement.lineno})"
        for label, statement in statements
        for name in _private_names(statement)
        if not any(name in refs for other, refs in references if other is not statement)
    ]


def test_every_private_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_names(trees) == []


def test_dead_private_name_is_reported():
    helper = ast.parse(
        "_used = 1\n_dead: int = 2\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
    )
    caller = ast.parse("from helper import _used\n\nprint(_used, _imported_elsewhere)\n")
    assert _dead_private_names({"helper.py": helper, "caller.py": caller}) == [
        "_dead (helper.py:2)",
        "_recursive (helper.py:4)",
    ]
