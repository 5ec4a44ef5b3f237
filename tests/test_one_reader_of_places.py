"""Places are read in one place: ``diagram.Faces``.

A corner on a piece's outward orbit names the face that piece is placed in,
and ``Faces.host`` follows that rule for the faces, the canonical code and
the splice's place rule alike.  A second reader of ``Faces.outward`` could
follow it otherwise unnoticed, so in ``src/smg`` only the methods of
``diagram.Faces`` name ``outward``.  A piece's automorphism generators are
the last field of its ``Diagram._piece_canon`` record, and nothing names the
``_piece_gens`` attribute they used to be set on.
"""

import ast
from pathlib import Path

import smg

SRC = Path(smg.__file__).resolve().parent

#: name -> the one (file, class) whose methods may name it, or None: none may
OWNERS = {"outward": ("diagram.py", "Faces"), "_piece_gens": None}


def references(tree: ast.AST) -> list[tuple[str, str, int]]:
    """``(name, enclosing class, line)`` of each name, attribute, argument,
    keyword or import of a name of OWNERS in ``tree``; the class is "" outside
    every class."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.ClassDef):
            where = node.name
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.keyword):
            names = [node.arg]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        found.extend((name, where, node.lineno)
                     for name in names if name in OWNERS)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_references_are_found():
    tree = ast.parse("from .diagram import _piece_gens\n"
                     "class Faces:\n"
                     "    def host(self, outward):\n"
                     "        return self.outward\n"
                     "def f(faces):\n"
                     "    return g(outward=faces.outward)\n")
    assert references(tree) == [("_piece_gens", "", 1), ("outward", "Faces", 3),
                                ("outward", "Faces", 4), ("outward", "", 6),
                                ("outward", "", 6)]


def test_only_faces_reads_outward_orbits():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for name, where, line in references(ast.parse(path.read_text())):
            if (path.name, where) != OWNERS[name]:
                stray.append((path.name, where, line, name))
    assert not stray
