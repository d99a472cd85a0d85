"""Every name a library module imports is used in that module.

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
