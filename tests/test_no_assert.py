"""No ``assert`` statement in ``smg``.

``python -O`` strips asserts, so a check written as one vanishes exactly
when someone runs the library optimised; the library raises typed errors
instead.
"""

import ast
from pathlib import Path

import smg

SRC = Path(smg.__file__).resolve().parent


def assert_lines(tree: ast.AST) -> list[int]:
    """Line numbers of the ``assert`` statements in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_asserts_are_found():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'positive'\n"
                     "    return [y for y in x]\nassert True\n")
    assert assert_lines(tree) == [3, 5]


def test_no_assert_in_the_library():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in assert_lines(ast.parse(path.read_text()))]
    assert not found, f"assert statements: {found}"
