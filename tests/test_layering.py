"""Every polytrs module imports at module level.

The modules are layered terms -> semantics -> ordering -> qi -> callgraph ->
blind -> wordnorm -> report -> cli, so no import cycle needs to be broken by
importing inside a function.
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


def test_modules_found():
    assert {"terms.py", "report.py", "cli.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert function_local_imports(tree) == []


def test_guard_sees_a_nested_import():
    tree = ast.parse("class C:\n    def m(self):\n        import os\n")
    assert function_local_imports(tree) == ["line 3 in m"]
