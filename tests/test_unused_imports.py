"""Every name a library module imports is used in that module, and every
private module-level name and private method is used somewhere in the
package.

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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


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
    return [name for name in names if _is_private(name)]


def _private_methods(statement: ast.stmt) -> list[ast.FunctionDef]:
    """Methods with one leading underscore in a top-level class body."""
    if not isinstance(statement, ast.ClassDef):
        return []
    return [
        member
        for member in statement.body
        if isinstance(member, ast.FunctionDef) and _is_private(member.name)
    ]


def _parts(statement: ast.stmt) -> list[ast.AST]:
    """The parts of a top-level statement whose references are taken apart:
    each member of a class body, and its decorators and bases; any other
    statement whole."""
    if isinstance(statement, ast.ClassDef):
        return [*statement.body, *statement.decorator_list, *statement.bases, *statement.keywords]
    return [statement]


def _references(part: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(part):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private top-level names that no other top-level statement of any
    module refers to, and private methods that no other method or
    statement refers to, so a name used only in its own definition counts."""
    parts = [
        (statement, part, _references(part))
        for tree in trees.values()
        for statement in tree.body
        for part in _parts(statement)
    ]
    definitions = [
        (label, definition, name)
        for label, tree in trees.items()
        for statement in tree.body
        for definition, name in [
            *((statement, name) for name in _private_names(statement)),
            *((method, method.name) for method in _private_methods(statement)),
        ]
    ]
    return [
        f"{name} ({label}:{definition.lineno})"
        for label, definition, name in definitions
        if not any(
            name in refs
            for statement, part, refs in parts
            if definition is not statement and definition is not part
        )
    ]


def test_every_private_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_names(trees) == []


def test_dead_private_name_is_reported():
    helper = ast.parse(
        "_used = 1\n_dead: int = 2\n\ndef _recursive(n):\n    return _recursive(n - 1)\n"
        "\nclass Shape:\n    def area(self):\n        return self._side()\n"
        "    def _side(self):\n        return 1\n"
        "    def _leftover(self):\n        return self._leftover()\n"
    )
    caller = ast.parse("from helper import _used\n\nprint(_used, _imported_elsewhere)\n")
    assert _dead_private_names({"helper.py": helper, "caller.py": caller}) == [
        "_dead (helper.py:2)",
        "_recursive (helper.py:4)",
        "_leftover (helper.py:12)",
    ]
