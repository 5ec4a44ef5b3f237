"""Every bounded search takes its sites and codes from one place each.

A search's rewrites are the sites that ``moves._rewrites`` walks, one per
orbit of the host's automorphisms (``moves._unrepeated``), and a rewrite is
coded, on integer darts (``moves._rewrite_pieces``, ``moves._pieces_code``)
or by building it, in ``moves._coded``.  A second site walk or coder could
skip other sites or code otherwise unnoticed, so no other function in
``src/smg`` names these helpers, nor imports them.
"""

import ast
from pathlib import Path

import smg

SRC = Path(smg.__file__).resolve().parent

#: helper -> the one function that may name it, as (file, function)
OWNERS = {
    "_rewrite_pieces": ("moves.py", "_coded"),
    "_pieces_code": ("moves.py", "_coded"),
    "_unrepeated": ("moves.py", "_rewrites"),
}


def references(tree: ast.AST) -> list[tuple[str, str, int]]:
    """``(helper, enclosing function, line)`` of each name, attribute or
    import of a helper of OWNERS in ``tree``; the function is "" at module
    level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", where)
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        found.extend((name, where, node.lineno) for name in names if name in OWNERS)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_references_are_found():
    tree = ast.parse("from .moves import _unrepeated, find_sites\n"
                     "def f(d):\n"
                     "    def g():\n"
                     "        return moves._pieces_code(d)\n"
                     "    return map(_rewrite_pieces, d), g\n")
    assert references(tree) == [("_unrepeated", "", 1), ("_pieces_code", "g", 4),
                                ("_rewrite_pieces", "f", 5)]


def test_one_function_names_each_rewrite_helper():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for name, where, line in references(ast.parse(path.read_text())):
            if (path.name, where) != OWNERS[name]:
                stray.append((path.name, where, line, name))
    assert not stray
