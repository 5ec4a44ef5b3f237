"""No broad ``except`` in ``smg`` beyond the conversions that need one.

An ``except`` naming ``ValueError``, ``KeyError`` or ``Exception``, or a
bare one, also catches what a bug raises, and turns it into an answer or
an input error.  The library raises typed errors instead, and the CLI
reports only those.  Such a clause may guard only a ``try`` whose body
calls ``int(...)`` or ``.index(...)``, whose one way to fail is that
``ValueError``.
"""

import ast
from pathlib import Path

import smg

SRC = Path(smg.__file__).resolve().parent
BROAD = {"ValueError", "KeyError", "Exception", "BaseException"}


def _names(node) -> set:
    """The exception class names an ``except`` clause's type names."""
    if node is None:
        return {"BaseException"}
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id if isinstance(n, ast.Name) else getattr(n, "attr", "") for n in items}


def _converts(body) -> bool:
    """Whether ``body`` calls ``int(...)`` or ``<x>.index(...)``."""
    return any(isinstance(n, ast.Call)
               and ((isinstance(n.func, ast.Name) and n.func.id == "int")
                    or (isinstance(n.func, ast.Attribute) and n.func.attr == "index"))
               for stmt in body for n in ast.walk(stmt))


def broad_handlers(tree: ast.AST) -> list[int]:
    """Line numbers of the broad ``except`` clauses in ``tree`` that guard
    no conversion."""
    return sorted(h.lineno for t in ast.walk(tree) if isinstance(t, ast.Try)
                  for h in t.handlers if _names(h.type) & BROAD and not _converts(t.body))


def test_broad_handlers_are_found():
    tree = ast.parse(
        "try:\n    n = int(s)\nexcept ValueError:\n    n = -1\n"           # 3: a conversion
        "try:\n    f()\nexcept (OSError, ValueError):\n    pass\n"         # 7
        "try:\n    i = xs.index(x)\nexcept ValueError:\n    i = None\n"    # 11: a conversion
        "try:\n    g()\nexcept KeyError:\n    pass\n"                      # 15
        "try:\n    g()\nexcept:\n    pass\n"                               # 19
        "try:\n    g()\nexcept OSError:\n    pass\n")                      # 23: not broad
    assert broad_handlers(tree) == [7, 15, 19]


def test_no_broad_except_in_the_library():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in broad_handlers(ast.parse(path.read_text()))]
    assert not found, f"broad except clauses: {found}"
