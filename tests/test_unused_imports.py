"""Every name a library module imports is used in that module, every
private module-level name and private method is used somewhere in the
package, and every public function, class and method has a caller
outside the tests.

No linter ships with the project, so this walks the syntax trees of the
modules under ``src/schurmult`` instead.  ``__init__.py`` is checked
apart: its imports are the package's re-exports, so each must be listed
in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import schurmult

from helpers import readme_block

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schurmult"
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


def _unreferenced(definitions: list, trees: dict[str, ast.Module]) -> list[str]:
    """Each ``(label, definition, name)`` that no top-level statement or
    class member of ``trees`` other than the definition itself refers to,
    so a name used only in its own definition counts."""
    parts = [
        (statement, part, _references(part))
        for tree in trees.values()
        for statement in tree.body
        for part in _parts(statement)
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


def _dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Private top-level names and private methods that nothing else in
    ``trees`` refers to."""
    definitions = [
        (label, definition, name)
        for label, tree in trees.items()
        for statement in tree.body
        for definition, name in [
            *((statement, name) for name in _private_names(statement)),
            *((method, method.name) for method in _private_methods(statement)),
        ]
    ]
    return _unreferenced(definitions, trees)


def _public_definitions(statement: ast.stmt) -> list[ast.AST]:
    """A public top-level function or class, and the public methods and
    properties of a top-level class."""
    if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return []
    found = [statement] if not statement.name.startswith("_") else []
    if isinstance(statement, ast.ClassDef):
        found += [
            member
            for member in statement.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        ]
    return found


def _public_names_without_caller(
    library: dict[str, ast.Module], callers: dict[str, ast.Module]
) -> list[str]:
    """Public names defined in ``library`` that nothing in ``callers``
    refers to, apart from their own definitions."""
    definitions = [
        (label, definition, definition.name)
        for label, tree in library.items()
        for statement in tree.body
        for definition in _public_definitions(statement)
    ]
    return _unreferenced(definitions, callers)


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


def test_every_public_name_has_a_caller():
    callers = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    callers.update(
        (f"perfbench/{path.name}", ast.parse(path.read_text()))
        for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    callers["README.md"] = ast.parse(readme_block("Library use", "python"))
    # oracle.py's names are the audit's references: the tests call every
    # one of them, the library only some
    library = {path.name: callers[path.name] for path in SOURCES if path.name != "oracle.py"}
    assert _public_names_without_caller(library, callers) == []


def test_public_name_without_caller_is_reported():
    library = ast.parse(
        "def used():\n    return 1\n\ndef unused(n):\n    return unused(n - 1)\n"
        "\nclass Shape:\n    def area(self):\n        return self.side\n"
        "    @property\n    def side(self):\n        return 1\n"
        "    def scaled(self):\n        return 2\n"
        "    def __len__(self):\n        return 0\n"
        "\nclass _Hidden:\n    def shown(self):\n        return 3\n"
    )
    caller = ast.parse("from library import used\n\nprint(used(), Shape().area())\n")
    assert _public_names_without_caller(
        {"library.py": library}, {"library.py": library, "caller.py": caller}
    ) == ["unused (library.py:4)", "scaled (library.py:13)", "shown (library.py:19)"]
