"""Every name a library module imports is used in that module.

No linter ships with the project, so this walks the syntax trees of the
modules under ``src/schurmult`` instead.  ``__init__.py`` is skipped: its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "src" / "schurmult").glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_unused_import_is_reported():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\n\nprint(lcm(2, 3))\n")
    assert _unused_imports(tree) == ["gcd (line 1)", "os (line 2)"]
