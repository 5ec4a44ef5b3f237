"""No function in ``smg`` calls itself by name.

Python allows about a thousand nested frames, so recursion over nodes,
generators or colour classes fails on diagrams of realistic size; the
library walks iteratively instead.
"""

import ast
from pathlib import Path

import smg

SRC = Path(smg.__file__).resolve().parent


def self_calls(tree: ast.AST) -> list[str]:
    """Names of the functions in ``tree`` that call themselves by bare name."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                   and c.func.id == fn.name for c in ast.walk(fn)):
                found.append(fn.name)
    return found


def test_self_calls_are_found():
    tree = ast.parse("def walk(n):\n    def down(k):\n        return down(k - 1)\n"
                     "    return walk(n - 1) + down(n)\n")
    assert sorted(self_calls(tree)) == ["down", "walk"]


def test_no_function_calls_itself():
    found = [f"{path.name} {name}" for path in sorted(SRC.glob("*.py"))
             for name in self_calls(ast.parse(path.read_text()))]
    assert not found, f"recursive functions: {found}"
