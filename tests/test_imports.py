"""Static checks over the cfrank modules.

Every name a module imports is used in that module, and only `mathcore`
sorts or partitions for a ranking (its `top_k` holds the tie rule; a
`sorted(..., key=...)` call counts as a ranking sort) or scatters with a
`ufunc.at` call (its `scatter_add` takes the flat fast path). Only the
fork helper in `cli` (`_Forked`) forks a process, only the two functions
that check the overlap gate start one, and only `cli` pickles, for what a
child sends back through its pipe. In `cli`, a checkpoint loader is only
ever the `load` argument of `_Run.take`, so a pipeline reads no checkpoint
it could be handed, and no module names the retired `.f64` twin. Only `cli`
touches `ctypes`, and only to call glibc's `mallopt` and `malloc_trim` in
one helper each, which `main` and `run_pipeline` call. No linter ships with
the project, so this parses each module with `ast`. The package `__init__`
is skipped by the import check: its imports are the public exports.
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


FORKS = {"fork", "forkpty"}


def fork_calls(source: str, names=FORKS) -> list:
    """(line, enclosing class or function) of every call of a name in
    `names`, as `x.name(...)` or a bare `name(...)`: by default `os.fork`,
    `os.forkpty` or `fork`. The module scope is ""."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if not scope else f"{scope}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name in names:
                    found.append((child.lineno, scope))
            visit(child, inner)

    visit(ast.parse(source), "")
    return sorted(found)


def name_uses(source: str, targets) -> list:
    """Lines that import a module in `targets` or name one of `targets`, as
    a bare name or an attribute."""
    tree = ast.parse(source)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if any(name.split(".")[0] in targets for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def pickle_uses(source: str) -> list:
    """Lines that import `pickle` (or `_pickle`) or name it."""
    return name_uses(source, {"pickle", "_pickle"})


MALLOC = {"ctypes", "mallopt", "malloc_trim"}
# the cli helpers that call glibc's malloc functions -> their one caller
MALLOC_HELPERS = {"_pin_malloc_thresholds": "main", "_release_free_heap": "run_pipeline"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_fork_only_in_the_cli_helper(path):
    calls = fork_calls(path.read_text(encoding="utf-8"))
    if path.name == "cli.py":
        assert [scope for _, scope in calls] == ["_Forked.__init__"]
    else:
        assert calls == []


def test_children_start_only_behind_the_overlap_gate():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    starts = {scope for _, scope in fork_calls(source, {"_Forked"})}
    assert starts == {"_beside", "_Run.start_child"}
    assert starts <= {scope for _, scope in fork_calls(source, {"_overlap_possible"})}


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"),
    ids=lambda p: p.name,
)
def test_pickle_only_in_cli(path):
    assert pickle_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py"),
    ids=lambda p: p.name,
)
def test_ctypes_only_in_cli(path):
    assert name_uses(path.read_text(encoding="utf-8"), MALLOC) == []


def test_malloc_calls_only_in_the_cli_helpers():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    helpers = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in MALLOC_HELPERS
    ]
    imports = {
        node.lineno for node in tree.body
        if isinstance(node, ast.Import) and node.names[0].name == "ctypes"
    }
    outside = [
        line for line in name_uses(source, MALLOC)
        if line not in imports
        and not any(f.lineno <= line <= f.end_lineno for f in helpers)
    ]
    assert len(helpers) == len(MALLOC_HELPERS)
    assert len(imports) == 1 and outside == []
    for helper, caller in MALLOC_HELPERS.items():
        assert [scope for _, scope in fork_calls(source, {helper})] == [caller]


def test_detects_a_fork_outside_the_helper():
    source = (
        "import os\n"
        "from os import fork\n"
        "pid = os.fork()\n"
        "class _Forked:\n"
        "    def __init__(self):\n"
        "        self.pid = os.fork()\n"
        "def worker():\n"
        "    def inner():\n"
        "        return fork()\n"
        "    return os.forkpty()\n"
        "fine = os.getpid() + forked(1)\n"
    )
    assert fork_calls(source) == [
        (3, ""), (6, "_Forked.__init__"), (9, "worker.inner"), (10, "worker")
    ]


def test_detects_pickle_use():
    source = (
        "import os, pickle\n"
        "from pickle import dumps\n"
        "import _pickle as fast\n"
        "data = pickle.dumps(x)\n"
        "fine = unpickle(x) + os.pickled\n"
    )
    assert pickle_uses(source) == [1, 2, 3, 4]


def test_detects_ctypes_use():
    source = (
        "import ctypes\n"
        "from ctypes import CDLL\n"
        "libc = CDLL(None)\n"
        "libc.mallopt(-3, 1)\n"
        "libc.malloc_trim(0)\n"
        "size = ctypes.sizeof(x)\n"
        "fine = malloc(1) + cfrank.ctypes_like\n"
    )
    assert name_uses(source, MALLOC) == [1, 2, 4, 5, 6]


CHECKPOINT_LOADERS = {"load_sim_params", "load_posterior", "load_model"}


def loader_uses(source: str) -> list:
    """(line, name) of every checkpoint loader named or imported anywhere
    but as the `load` argument (the second) of a `.take(...)` call."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take"
        ):
            allowed.update(id(arg) for arg in node.args[1:2])
            allowed.update(id(kw.value) for kw in node.keywords if kw.arg == "load")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if name in CHECKPOINT_LOADERS and id(node) not in allowed
        ]
    return sorted(found)


def test_checkpoint_loaders_only_as_take_arguments():
    assert loader_uses((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_detects_a_loader_outside_take():
    source = (
        "from .rankers import load_model\n"
        "a = run.take('sim.txt', simulator.load_sim_params)\n"
        "b = run.take('target.txt', load=rankers.load_model)\n"
        "c = simulator.load_posterior(path)\n"
        "d = run.take(rankers.load_model, 'target.txt')\n"
        "e = take('x', load_model)\n"
        "fine = run.take('x', load) + simulator.load_posteriors\n"
    )
    assert loader_uses(source) == [
        (1, "load_model"), (4, "load_posterior"), (5, "load_model"), (6, "load_model")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_binary_twin(path):
    assert ".f64" not in path.read_text(encoding="utf-8")
