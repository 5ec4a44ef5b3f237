"""Every private helper in ``smg`` is used by the library itself.

A private function, class, method or constant (``_name``, not a dunder)
that nothing in ``src/smg`` reads is dead code, even when a test still
calls it: a test of a helper the library no longer uses keeps a second
implementation alive and tested for nothing.  Imports do not count as
reads, and neither do a helper's reads of itself.
"""

import ast
from pathlib import Path

import smg

SRC = Path(smg.__file__).resolve().parent


def private(name: str) -> bool:
    return name.startswith("_") and name != "_" and not (
        name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """``(name, node)`` of each private function, class and method of
    ``tree``, and of each private constant assigned at module or class
    level."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                           [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                for t in targets:
                    found += [(x.id, stmt) for x in ast.walk(t) if isinstance(x, ast.Name)]
    return sorted([(name, node) for name, node in found if private(name)],
                  key=lambda found: found[1].lineno)


def reads(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """``(name, node)`` of each read of a name or an attribute in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, node))
    return found


def dead_helpers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """``(file, name)`` of each private helper defined in ``sources`` (file
    name -> text) that no read in them reaches from outside its own
    definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = {}
    for tree in trees.values():
        for name, node in reads(tree):
            read.setdefault(name, set()).add(node)
    dead = []
    for path, tree in trees.items():
        for name, node in definitions(tree):
            inside = set(ast.walk(node))
            if not read.get(name, set()) - inside:
                dead.append((path, name))
    return dead


def test_dead_helpers_are_found():
    sources = {
        "a.py": "def _used(): pass\n"
                "def _self(): return _self()\n"
                "_K, _L = 1, 2\n"
                "_L += _used()\n"
                "class _C:\n"
                "    _slot: int = 0\n"
                "    def _m(self): return self._n\n"
                "    def _n(self): pass\n"
                "    def __len__(self): return 0\n"
                "    def _paired(self): return self._paired()\n",
        "b.py": "from a import _self, _K\n"
                "import a\n"
                "a._C\n"
                "_ = a._L\n",
    }
    assert dead_helpers(sources) == [("a.py", "_self"), ("a.py", "_K"), ("a.py", "_slot"),
                                     ("a.py", "_m"), ("a.py", "_paired")]


def test_every_private_helper_is_read_by_the_library():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources) == []
