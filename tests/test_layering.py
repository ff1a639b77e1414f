"""Every polytrs module imports at module level, uses what it imports, and
none caches globally; every public name it defines has a caller.

The modules are layered, each importing only from the layers before it:
base; terms; parser, semantics, ordering and qi; callgraph, blind and bc;
wordnorm; report; cli.  So no import cycle needs to be broken by importing
inside a function.  A module uses every name it imports; only
``__init__.py`` imports names to re-export them.  No function is wrapped in
``functools.lru_cache`` or ``functools.cache``: such a cache is
process-global and, unbounded, keeps every argument alive.  Memo tables
belong to one computation instead.  No module imports ``dataclasses``, whose
class generation would cost every command at start-up.  The test helpers that hold code moved
out of the package keep these rules.

The package ships only what a command, a script or the benchmark runs.  So
each public function, class and method is referred to from another
package module, from itself outside its own body, from ``perfbench`` or
from ``scripts``.  What only the tests reach, such as the paper's lemma
bounds, lives beside the tests.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polytrs"
MODULES = sorted(SRC.glob("*.py"))
TESTS = pathlib.Path(__file__).resolve().parent
MOVED = [TESTS / "bounds.py", TESTS / "oracles.py", TESTS / "reference.py"]


def function_local_imports(tree: ast.AST) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out.append(f"line {node.lineno} in {fn.name}")
    return out


def unused_imports(tree: ast.AST) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in imported if name not in used]


GLOBAL_CACHES = {"lru_cache", "cache"}


def globally_cached_functions(tree: ast.AST) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in GLOBAL_CACHES:
                out.append(f"line {fn.lineno}: {fn.name}")
    return out


def test_modules_found():
    assert {"terms.py", "report.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES + MOVED, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert function_local_imports(tree) == []


def test_guard_sees_a_nested_import():
    tree = ast.parse("class C:\n    def m(self):\n        import os\n")
    assert function_local_imports(tree) == ["line 3 in m"]


@pytest.mark.parametrize(
    "path", [m for m in MODULES + MOVED if m.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def test_import_guard_sees_every_spelling():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import sys as system\n"
        "from .terms import App, Term as T, Var\n"
        "def f(x: T) -> None:\n"
        "    return system.argv, Var\n"
    )
    found = unused_imports(ast.parse(source))
    assert found == ["line 2: os", "line 3: os", "line 5: App"]


@pytest.mark.parametrize("path", MODULES + MOVED, ids=lambda p: p.name)
def test_no_global_function_caches(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert globally_cached_functions(tree) == []


def test_cache_guard_sees_every_spelling():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(x): return x\n"
        "@lru_cache\ndef b(x): return x\n"
        "@functools.lru_cache(maxsize=8)\ndef c(x): return x\n"
        "@functools.cache\ndef d(x): return x\n"
        "class K:\n    @cache\n    def e(self): return 1\n"
        "@staticmethod\ndef f(x): return x\n"
    )
    found = globally_cached_functions(ast.parse(source))
    assert [entry.split(": ")[1] for entry in found] == ["a", "b", "c", "d", "e"]


# No package module imports ``dataclasses``: each @dataclass generates and
# execs its methods when the module is imported, which cost a sixth of the
# start-up of every command.  Records are NamedTuples or slotted classes.


def dataclass_imports(tree: ast.AST) -> list[str]:
    """The line of each import of the ``dataclasses`` module, in any spelling."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        out += [f"line {node.lineno}" for n in names if n.partition(".")[0] == "dataclasses"]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert dataclass_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_dataclass_guard_sees_every_spelling():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import os, dataclasses as dc\n"
        "def f():\n    from dataclasses import replace\n"
        "from typing import NamedTuple\n"
    )
    assert dataclass_imports(ast.parse(source)) == ["line 1", "line 2", "line 3", "line 5"]


def test_importing_the_cli_leaves_dataclasses_out():
    code = "import sys, polytrs.cli; sys.exit('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Terms, symbols, variables, equations, programs and QI nodes are
# hash-consed: one object per value, so object identity is their equality
# and the address their hash, both in C.  A Python-level __hash__ or __eq__ on any class of these two
# modules would put a Python call back on every intern-table lookup, and
# weakref.KeyedRef builds each intern reference through Python-level
# __new__ and __init__.
HASH_CONSED = ("terms.py", "qi.py")
VALUE_METHODS = {"__hash__", "__eq__"}


def value_methods(tree: ast.AST) -> list[str]:
    """``Class.name`` of each __hash__ or __eq__ a class body defines or assigns."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [f"{cls.name}.{name}" for name in names if name in VALUE_METHODS]
    return out


@pytest.mark.parametrize("name", HASH_CONSED)
def test_hash_consed_classes_keep_object_identity(name):
    tree = ast.parse((SRC / name).read_text(), filename=name)
    assert value_methods(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_keyed_ref(path):
    # referenced_names sees a name, an attribute and an imported name.
    assert "KeyedRef" not in referenced_names(ast.parse(path.read_text(), filename=str(path)))


def test_identity_guard_sees_every_spelling():
    source = (
        "class A:\n    def __hash__(self): return 0\n"
        "class B:\n    __eq__ = object.__eq__\n"
        "class C:\n    class D:\n        __hash__: object = None\n"
        "    def __lt__(self, other): return False\n"
    )
    assert value_methods(ast.parse(source)) == ["A.__hash__", "B.__eq__", "D.__hash__"]


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name a source refers to, as a bare name, an attribute or an
    imported name, outside the ``skip`` subtree."""
    out = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        todo.extend(ast.iter_child_nodes(node))
    return out


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, definition) of each public top-level function or class, and of
    each public method of a top-level class, named ``Class.method``."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{m.name}", m)
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
    return out


def names_without_a_caller(tree: ast.Module, elsewhere: set[str]) -> list[str]:
    """The public definitions of a module whose name is not in ``elsewhere``,
    the names its callers refer to, and that the module itself refers to
    only inside their own body."""
    return [
        name
        for name, node in public_definitions(tree)
        if node.name not in elsewhere and node.name not in referenced_names(tree, node)
    ]


ROOT = SRC.parent.parent
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


@pytest.fixture(scope="module")
def references() -> dict:
    """Each package module and caller, with the names it refers to."""
    return {
        path: referenced_names(ast.parse(path.read_text(), filename=str(path)))
        for path in MODULES + CALLERS
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path, references):
    elsewhere = set().union(*(names for p, names in references.items() if p != path))
    tree = ast.parse(path.read_text(), filename=str(path))
    assert names_without_a_caller(tree, elsewhere) == []


def test_caller_guard_sees_every_spelling():
    module = ast.parse(
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def by_tests(): pass\n"
        "def by_attribute(): pass\n"
        "def by_name(): pass\n"
        "def in_module(): pass\n"
        "class Box:\n"
        "    def method(self): pass\n"
        "    def loop(self):\n        return self.loop()\n"
        "    def _private(self): pass\n"
        "def main():\n    return in_module(), Box()\n"
    )
    callers = {
        "by_attribute": "import m\nm.by_attribute()\n",
        "by_name": "from m import *\nby_name()\n",
        "Box.method": "def f(box):\n    return box.method()\n",
        "main": "from m import main\n",
    }
    tests = "from m import by_tests\nby_tests()\n"  # a test is no caller
    elsewhere = set().union(*(referenced_names(ast.parse(c)) for c in callers.values()))
    assert "by_tests" in referenced_names(ast.parse(tests))
    assert names_without_a_caller(module, elsewhere) == ["recursive", "by_tests", "Box.loop"]
    for name in callers:
        others = [c for n, c in callers.items() if n != name]
        elsewhere = set().union(*(referenced_names(ast.parse(c)) for c in others))
        assert name in names_without_a_caller(module, elsewhere), name
