"""Cached attributes in ``smg`` come from one descriptor.

``diagram._cached`` keeps a lazily computed value in the instance
``__dict__``, as ``functools.cached_property`` does, but without the lock
that one takes on every first read in Python 3.11.  ``functools``'s own is
imported nowhere in the library, so each cached attribute is one kind of
thing.
"""

import ast
from pathlib import Path

import smg

SRC = Path(smg.__file__).resolve().parent


def cached_property_uses(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that import ``cached_property`` from
    ``functools`` or read it as an attribute of ``functools``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for a in node.names if a.name in ("cached_property", "*")]
        elif (isinstance(node, ast.Attribute) and node.attr == "cached_property"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.lineno)
    return sorted(found)


def test_cached_property_uses_are_found():
    tree = ast.parse("import functools\nfrom functools import lru_cache\n"
                     "from functools import cached_property as c\n"
                     "class A:\n    x = functools.cached_property(len)\n"
                     "from functools import *\n")
    assert cached_property_uses(tree) == [3, 5, 6]


def test_no_functools_cached_property_in_the_library():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := cached_property_uses(ast.parse(path.read_text())))}
    assert found == {}
