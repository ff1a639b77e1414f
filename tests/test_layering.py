"""Every polytrs module imports at module level, uses what it imports, and
none caches globally.

The modules are layered, each importing only from the layers before it:
base; terms; parser, semantics, ordering and qi; callgraph, blind and bc;
wordnorm; report; cli.  So no import cycle needs to be broken by importing
inside a function.  ``bounds`` holds the paper's lemma bounds, which state
what is proved rather than decide a verdict: it imports from wordnorm and
below, and no other module imports it.  A module uses every name it
imports; only ``__init__.py`` imports names to re-export them.  No
function is wrapped in ``functools.lru_cache`` or ``functools.cache``:
such a cache is process-global and, unbounded, keeps every argument
alive.  Memo tables belong to one computation instead.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "polytrs"
MODULES = sorted(SRC.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert function_local_imports(tree) == []


def test_guard_sees_a_nested_import():
    tree = ast.parse("class C:\n    def m(self):\n        import os\n")
    assert function_local_imports(tree) == ["line 3 in m"]


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name != "__init__.py"], ids=lambda p: p.name
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


def imported_modules(tree: ast.AST) -> set[str]:
    """The polytrs modules a source imports, however the import is spelled."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("polytrs."))
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            if package in (".", "polytrs"):
                out.update(a.name for a in node.names)
            elif package.startswith((".", "polytrs.")):
                out.add(package.lstrip(".").removeprefix("polytrs.").split(".")[0])
    return out


@pytest.mark.parametrize(
    "path", [m for m in MODULES if m.name not in ("bounds.py", "__init__.py")], ids=lambda p: p.name
)
def test_no_module_imports_bounds(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "bounds" not in imported_modules(tree)


def test_bounds_guard_sees_every_spelling():
    spellings = (
        "from .bounds import rank_stats\n",
        "from . import bounds\n",
        "from polytrs.bounds import rank_stats\n",
        "from polytrs import bounds as b\n",
        "import polytrs.bounds\n",
        "def f():\n    from .bounds import rank_stats\n",
    )
    for source in spellings:
        assert "bounds" in imported_modules(ast.parse(source)), source
    others = "from .callgraph import call_dag\nimport os.path\nfrom os import path\n"
    assert imported_modules(ast.parse(others)) == {"callgraph"}
