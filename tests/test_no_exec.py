"""Generated code in ``smg`` is written from integers and fixed names only.

The counting kernels are Python source compiled at run time.  ``exec``,
``eval`` and ``compile`` appear in the library only in the one function
that compiles a kernel, and every kernel source holds nothing but its
variables ``a<k>``, its tables ``t<k>`` and ``u<k>``, its function ``f0``,
fixed names (among them the dicts ``w`` and ``v`` of its cuts, their
methods ``get`` and ``items`` and the weight ``e``), integers, keywords and
punctuation: no node, edge or file name can reach ``exec``.
"""

import ast
import io
import keyword
import re
import tokenize
from pathlib import Path

from test_transforms import clasped_circles

import smg
from smg.diagram import enumerate_orientations, parse_smg, serialize
from smg.fixtures import fixture, fixture_names
from smg.groups import _search_homs, symmetric_group, wirtinger_presentation
from smg.quandles import FOUR_QUANDLE, _search_count, colorings, small_quandles

SRC = Path(smg.__file__).resolve().parent
RUNNERS = {"exec", "eval", "compile"}
NUMBERED = re.compile(r"[atuf][0-9]+")
FIXED = {"n", "M", "B", "I", "x", "s", "c", "out", "push", "append", "range",
         "w", "v", "e", "get", "items"}

#: a kink whose diagram, node and edge names are Python names and code
HOSTILE = "diagram exec\nnode __import__ X os.system eval eval os.system\nend\n"


def runner_uses(tree: ast.AST) -> list[str]:
    """The enclosing function of each use of ``exec``, ``eval`` or
    ``compile`` in ``tree``: a bare name, or an attribute of anything but
    the ``re`` module, whose ``compile`` builds a regular expression."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "re"):
            name = node.attr
        else:
            continue
        if name in RUNNERS:
            while node in parents and not isinstance(node, ast.FunctionDef):
                node = parents[node]
            found.append(getattr(node, "name", "<module>"))
    return found


def test_runner_uses_are_found():
    tree = ast.parse("import re\nP = re.compile('x')\nexec('1')\n"
                     "def f(s):\n    def g():\n        return eval(s)\n    return g\n"
                     "def h(t):\n    return t.compile()\n")
    assert sorted(runner_uses(tree)) == ["<module>", "g", "h"]


def test_only_the_kernel_compiler_runs_code():
    found = [(path.name, fn) for path in sorted(SRC.glob("*.py"))
             for fn in runner_uses(ast.parse(path.read_text()))]
    assert found == [("groups.py", "_compiled")]


def bad_tokens(source: str) -> list[str]:
    """The tokens of ``source`` that are none of the kernel's names,
    integers, keywords and punctuation."""
    bad = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            ok = tok.string in FIXED or keyword.iskeyword(tok.string) \
                or NUMBERED.fullmatch(tok.string) is not None
        elif tok.type == tokenize.NUMBER:
            ok = tok.string.isdecimal()
        else:
            ok = tok.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER)
        if not ok:
            bad.append(tok.string)
    return bad


def test_bad_tokens_are_found():
    assert bad_tokens("def f0(n, t0):\n    s = 0\n    for a1 in range(n):\n"
                      "        x = t0[a1][0]\n        push((a1, ))\n    return s\n") == []
    assert bad_tokens("x = os.system('k') # e\nc = 1.5\n") == ["os", "system", "'k'", "# e", "1.5"]


def test_kernel_sources_hold_only_whitelisted_tokens():
    """The colouring kernels, counting and listing, and the hom kernel of
    every fixture, of a kink named like code and of a chain of clasped
    circles, whose counts are cut along the plan."""
    texts = [serialize(fixture(name)) for name in fixture_names()] + [HOSTILE]
    texts.append(serialize(clasped_circles(6)))
    oriented = next(q for q in small_quandles(4) if not q.is_involutory())
    sources = []
    for text in texts:
        d = parse_smg(text)
        _search_count(d, oriented, enumerate_orientations(d)[0])
        colorings(d, FOUR_QUANDLE)
        p = wirtinger_presentation(d)
        _search_homs(p, symmetric_group(3))
        sources += list(d._colouring.sources.values()) + [p._kernel_source]
    assert len(sources) == 3 * len(texts)
    assert "w.items()" in sources[-3]
    for source in sources:
        assert bad_tokens(source) == [], source
