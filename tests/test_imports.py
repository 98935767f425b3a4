"""Every name a cfrank module imports is used in that module.

No linter ships with the project, so this parses each module with `ast`.
The package `__init__` is skipped: its imports are the public exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cfrank"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert {"cli.py", "mathcore.py", "rankers.py", "simulator.py"} <= {
        p.name for p in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = (
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = 0\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "field")]
