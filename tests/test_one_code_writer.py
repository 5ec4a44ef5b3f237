"""Canonical codes are written by one function.

A diagram's code (``Diagram._canonical_code``) and a rewrite's code on
integer darts (``moves._pieces_code``) must be equal byte for byte, so both
hand their parts to ``diagram._code``, the one place that writes the bytes
as ``repr(...).encode()``.  A second writer could drift from it unnoticed.
"""

import ast
from pathlib import Path

import smg

SRC = Path(smg.__file__).resolve().parent


def code_writers(tree: ast.AST) -> list[tuple[str, int]]:
    """``(enclosing function, line)`` of each ``repr(...).encode()`` in
    ``tree``; the function is "" at module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", where)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "encode" and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "repr"):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_code_writers_are_found():
    tree = ast.parse("x = repr(1).encode()\n"
                     "def f(a):\n"
                     "    def g():\n"
                     "        return repr((a, [])).encode()\n"
                     "    return str(a).encode(), repr(a), g\n")
    assert code_writers(tree) == [("", 1), ("g", 4)]


def test_one_function_writes_code_bytes():
    found = {path.name: code_writers(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert [where for where, _ in found.pop("diagram.py")] == ["_code"]
    assert all(not writers for writers in found.values()), found
