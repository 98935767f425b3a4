"""Static checks over the cfrank modules.

Every name a module imports is used in that module, and only `mathcore`
sorts or partitions for a ranking (its `top_k` holds the tie rule; a
`sorted(..., key=...)` call counts as a ranking sort) or scatters with a
`ufunc.at` call (its `scatter_add` takes the flat fast path). No linter
ships with the project, so this parses each module with `ast`.
The package `__init__` is skipped by the import check: its imports are the
public exports.
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


RANKING_SORTS = {"argpartition", "argsort", "lexsort"}


def ranking_sorts(source: str) -> list:
    """(line, name) of every call of a ranking sort, as `np.f(...)`,
    `x.f(...)` or a bare `f(...)`, and of every `sorted(...)` with a key."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            keyed = name == "sorted" and any(kw.arg == "key" for kw in node.keywords)
            if name in RANKING_SORTS or keyed:
                found.append((node.lineno, name))
    return sorted(found)


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


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "mathcore.py"),
    ids=lambda p: p.name,
)
def test_ranking_sorts_only_in_mathcore(path):
    assert ranking_sorts(path.read_text(encoding="utf-8")) == []


def test_detects_a_ranking_sort():
    source = (
        "import numpy as np\n"
        "from numpy import lexsort\n"
        "order = np.argsort(x, kind='stable')\n"
        "top = x.argpartition(3)\n"
        "rows = lexsort((a, b))\n"
        "fine = np.sort(x)\n"
        "also_fine = sorted(pos)\n"
        "slots = sorted(range(n), key=lambda t: (-p[t], t))\n"
    )
    assert ranking_sorts(source) == [
        (3, "argsort"), (4, "argpartition"), (5, "lexsort"), (8, "sorted")
    ]


def ufunc_at_calls(source: str) -> list:
    """Lines of every `<expr>.at(...)` call, such as `np.add.at(...)`."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "at"
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "mathcore.py"),
    ids=lambda p: p.name,
)
def test_ufunc_at_only_in_mathcore(path):
    assert ufunc_at_calls(path.read_text(encoding="utf-8")) == []


def test_detects_a_ufunc_at_call():
    source = (
        "import numpy as np\n"
        "from numpy import add\n"
        "np.add.at(g, u, v)\n"
        "add.at(g, u, v)\n"
        "np.maximum.at(x, i, 1.0)\n"
        "fine = x.attr(1) + np.add(a, b)\n"
    )
    assert ufunc_at_calls(source) == [3, 4, 5]
