"""Quandle colourings are counted by one route.

Every colouring count runs a compiled kernel from ``groups._compiled``;
Alexander tables once had a second route through Smith normal forms.  The
abelianization keeps its Smith form, but ``quandles`` imports neither of
the library's two Smith-form functions, so a second colouring route cannot
come back unnoticed.
"""

import ast
from pathlib import Path

import smg

QUANDLES = Path(smg.__file__).resolve().parent / "quandles.py"
SMITH = {"_diagonal", "smith_normal_form"}


def smith_imports(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that import a Smith-form function, by name or
    with ``*``, or read one as an attribute of a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [node.lineno for a in node.names if a.name in SMITH | {"*"}]
        elif isinstance(node, ast.Attribute) and node.attr in SMITH:
            found.append(node.lineno)
    return sorted(found)


def test_smith_imports_are_found():
    tree = ast.parse("from .groups import _check_square, _diagonal\n"
                     "from . import groups\n"
                     "x = groups.smith_normal_form([[2]])\n"
                     "from .groups import *\n"
                     "from .groups import smith_normal_form as snf\n")
    assert smith_imports(tree) == [1, 3, 4, 5]
    assert smith_imports(ast.parse("from .groups import _compiled\n")) == []


def test_quandles_has_no_second_counting_route():
    assert smith_imports(ast.parse(QUANDLES.read_text())) == []
