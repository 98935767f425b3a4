"""Static checks over the cfrank modules.

Every name a module imports is used in that module, and only `mathcore`
sorts or partitions for a ranking (its `top_k` holds the tie rule; a
`sorted(..., key=...)` call counts as a ranking sort) or scatters with a
`ufunc.at` call (its `scatter_add` takes the flat fast path). Only the
fork helper in `cli` (`_Forked`) forks a process, only the two functions
that check the overlap gate start one, and only `cli` pickles, for what a
child sends back through its pipe. In `cli`, a checkpoint loader is only
ever the `load` argument of `_load_checkpoint`, so every checkpoint a stage
reads passes its user, item and list-length check, and no module names the
retired `.f64` twin. Only `cli` touches `ctypes`, and only to call glibc's
`mallopt` and `malloc_trim` in one helper each, which `main` and
`run_pipeline` call. Every class and function is reached: code that runs,
in the package or the benchmark, names it; and every attribute the package
stores is read by name there. No linter ships with the project, so this
parses each module with `ast`. The import check covers the test and
benchmark files too. The package `__init__` is only its docstring, so each
name has one import path, its module.
"""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cfrank"
PERFBENCH = TESTS.parent / "perfbench"
MODULES = sorted(PACKAGE.glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    MODULES + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_init_is_only_its_docstring():
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 1 and isinstance(body[0].value, ast.Constant)


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
    assert starts == {"_beside", "_fork_fit"}
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
    but as the `load` argument (the third) of a `_load_checkpoint(...)`
    call."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_load_checkpoint"
        ):
            allowed.update(id(arg) for arg in node.args[2:3])
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


def test_checkpoint_loaders_only_through_the_size_check():
    assert loader_uses((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def test_detects_a_loader_outside_the_size_check():
    source = (
        "from .rankers import load_model\n"
        "a = _load_checkpoint(out, 'sim.txt', simulator.load_sim_params, log)\n"
        "b = _load_checkpoint(out, 'target.txt', load=rankers.load_model, log=log)\n"
        "c = simulator.load_posterior(path)\n"
        "d = _load_checkpoint(out, rankers.load_model, 'target.txt', log)\n"
        "e = run._load_checkpoint(out, 'x', load_model, log)\n"
        "fine = _load_checkpoint(out, 'x', load, log) + simulator.load_posteriors\n"
    )
    assert loader_uses(source) == [
        (1, "load_model"), (4, "load_posterior"), (5, "load_model"), (6, "load_model")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_binary_twin(path):
    assert ".f64" not in path.read_text(encoding="utf-8")


def _benchmark_sources():
    """The text of every non-test `perfbench/` file."""
    return [
        p.read_text(encoding="utf-8")
        for p in sorted(PERFBENCH.glob("*.py"))
        if not p.name.startswith("test_")
    ]


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# Definitions no `cfrank` command calls that stay, each for its reason. The
# tracer's `LAYERS` entry already counts as a use of the first three; they
# are listed so that they leave with that entry.
UNREACHED_ALLOWED = {
    "counterfactual_select": "pinned by perfbench: the tracer wraps it by name",
    "slot_probs": "pinned by perfbench: only counterfactual_select calls it",
    "sample_beta": "pinned by perfbench: only counterfactual_select calls it",
    "sample_alpha": "the tests' per-episode reference round draws alpha with it",
    "log_prob": "the tests' per-episode policy references score actions with it",
}


def _owned_uses(node, nested=False):
    """(names, attrs, calls) that `node` names, outside the definitions
    nested in it unless `nested`: bare and attribute names; attribute names;
    and called attribute names. Each part of a string constant that is a
    dotted name counts in all three, so `("cfrank.mathcore",
    "RandomStream.normal")` names `RandomStream` and `normal`."""
    names, attrs, calls = set(), set(), set()
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, DEFINITIONS) and not nested:
            # decorators and defaults run where the definition stands
            stack += child.decorator_list
            if not isinstance(child, ast.ClassDef):
                args = child.args
                stack += args.defaults + [d for d in args.kw_defaults if d is not None]
            continue
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
            attrs.add(child.attr)
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            calls.add(child.func.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            if DOTTED.fullmatch(child.value):
                for part in (names, attrs, calls):
                    part.update(child.value.split("."))
        stack += list(ast.iter_child_nodes(child))
    return names, attrs, calls


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _property(node):
    return any(getattr(d, "id", None) == "property" for d in node.decorator_list)


def unreached_definitions(sources: dict, roots=()) -> list:
    """(module, qualified name) of every non-dunder class or function in
    `sources` (module -> text) that no reached code names. Module-level
    code and all of the `roots` sources are reached; so is the body of a
    reached definition, but not the definition's own name inside it, and
    the body of a dunder whose class is reached. A bare name never refers
    to a method, so a method is reached through a call of its attribute
    name (any attribute, for a property), and only if its class is."""
    defs = []  # (module, qualname, node, enclosing definition or None)
    reached = []  # (owner node or None, names, attrs, calls) of reached code

    def visit(module, node, scope, outer):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                name = f"{scope}.{child.name}" if scope else child.name
                defs.append((module, name, child, outer))
                visit(module, child, name, child)
            else:
                visit(module, child, scope, outer)

    for module, source in sources.items():
        tree = ast.parse(source)
        reached.append((None, *_owned_uses(tree)))
        visit(module, tree, "", None)
    for source in roots:
        reached.append((None, *_owned_uses(ast.parse(source), nested=True)))
    live = set()
    grew = True
    while grew:
        grew = False
        for _, _, node, outer in defs:
            if id(node) in live or (outer is not None and id(outer) not in live):
                continue
            if not isinstance(outer, ast.ClassDef):
                slot = 0  # a function or class: any name
            else:
                slot = 1 if _property(node) else 2
            if _dunder(node.name) or any(
                owner is not node and node.name in used[slot]
                for owner, *used in reached
            ):
                live.add(id(node))
                reached.append((node, *_owned_uses(node)))
                grew = True
    return sorted(
        (module, name)
        for module, name, node, _ in defs
        if id(node) not in live and not _dunder(node.name)
    )


def test_every_definition_is_reached():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    roots = _benchmark_sources()
    assert roots
    unreached = unreached_definitions(sources, roots)
    defined = {
        node.name
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, DEFINITIONS)
    }
    assert set(UNREACHED_ALLOWED) <= defined  # no entry outlives its definition
    extra = [d for d in unreached if d[1].split(".")[-1] not in UNREACHED_ALLOWED]
    assert not extra, f"no caller reaches {extra}"


def test_detects_an_unreached_definition():
    source = (
        "class Log:\n"
        "    def rows(self):\n"
        "        return helper()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return Row(1)\n"
        "    def again(self):\n"
        "        return self.again()\n"
        "    def __len__(self):\n"
        "        return inner_only()\n"
        "class Row:\n"
        "    pass\n"
        "def helper():\n"
        "    return 1\n"
        "def inner_only():\n"
        "    return 2\n"
        "def traced():\n"
        "    def nested():\n"
        "        return 3\n"
        "    return nested\n"
        "def dead():\n"
        "    return Log().rows()\n"
        "log = Log()\n"
        "NOTE = 'dead calls helper'\n"
    )
    roots = ["LAYERS = [('cfrank.mod', 'traced')]\nsize = 1\n"]
    assert unreached_definitions({"mod": source}, roots) == [
        ("mod", "Log.again"),  # only names itself
        ("mod", "Log.rows"),  # only an unreached function calls it
        ("mod", "Log.size"),  # a bare name never refers to a property
        ("mod", "Row"),  # only an unreached property names it
        ("mod", "dead"),  # prose naming it is not a use
        ("mod", "helper"),  # only an unreached method calls it
    ]


def _is_dataclass(decorator):
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def attribute_stores(source: str) -> list:
    """(line, name) of every field of a `@dataclass` class and every
    attribute stored through `self` (`self.name = ...`, `+=` and unpacking
    included; `self.name[i] = ...` reads `name`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            found += [
                (item.lineno, item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (t.lineno, t.attr)
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                and isinstance(t.value, ast.Name) and t.value.id == "self"
            ]
    return sorted(found)


def attribute_reads(source: str) -> set:
    """Every name `source` reads as an attribute (`x.name` in a load)."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_stored_attribute_is_read():
    """A field or `self` attribute of the package that nothing reads is
    dead weight. The check goes by name, as the reach test does, over the
    package and the benchmark: a store is read if any attribute of that
    name is, so `ItemPop.counts`' reads would hide an unread `counts`
    field of another class."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    reads = set().union(*map(attribute_reads, [*sources.values(), *_benchmark_sources()]))
    unread = [
        (module, line, name)
        for module, source in sources.items()
        for line, name in attribute_stores(source)
        if name not in reads
    ]
    assert not unread, f"stored but never read: {unread}"


def test_detects_a_write_only_attribute():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    hr: float\n"
        "    metadata: dict\n"
        "    KIND = 'report'\n"
        "class Model:\n"
        "    def __init__(self):\n"
        "        self.sim = 0\n"
        "        self.pid, self.code = 1, 2\n"
        "        self.steps += 1\n"
        "        self.table[0] = 3\n"
        "        other.ignored = 4\n"
        "def use(report, model):\n"
        "    return report.hr + model.sim + model.pid\n"
    )
    assert attribute_stores(source) == [
        (4, "hr"), (5, "metadata"), (9, "sim"), (10, "code"), (10, "pid"), (11, "steps")
    ]
    assert attribute_reads(source) >= {"hr", "sim", "pid", "table"}
    assert {"metadata", "code", "steps", "ignored"}.isdisjoint(attribute_reads(source))
