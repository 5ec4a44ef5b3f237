"""Semi-invariant transforms, split-insensitive profiles, and Kirby export.

``semi_transform`` turns a singular marked diagram into a classical one by
erasing every marker with a fixed smoothing and replacing every double point
by a smoothing-with-clasp; the two flavours differ in which smoothing the
marker takes, and each is blind to exactly one of the two marker-singular
slide moves.  ``profile`` is the computable shadow used to compare the
results: linking data plus a panel of small-quandle coloring rates, both
insensitive to disjoint unknotted circles.  ``export_exterior`` builds the
handle diagram of the complement: dotted negative-resolution components,
one 0-framed circle per band, and a commutator circle per double point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Optional

from .diagram import (MARKER, SINGULAR, Diagram, SMGSemanticError, _first_orientation,
                      _lines, _require, _require_diagram, _strand)
from .groups import Presentation, cyclic_reduce
from .moves import Pattern, parse_pattern
from .quandles import QuandleTable, coloring_count, small_quandles
from .resolution import (_SMOOTHING, _component_index, _require_classical, _substitute,
                         classical_components, crossing_sign, linking_matrix)

M5 = "M5"
M6 = "M6"


def _parse_tangles(text: str) -> dict[str, tuple[Pattern, tuple[str, ...]]]:
    out = {}
    name = None
    buf: list[str] = []
    framed: tuple[str, ...] = ()
    for _, toks in _lines(text):
        if toks[0] == "tangle":
            name, buf, framed = toks[1], [], ()
        elif toks[0] == "endtangle":
            out[name] = (parse_pattern("\n".join(buf)), framed)
        elif toks[0] == "framed":
            framed = tuple(toks[1:])
        else:
            buf.append(" ".join(toks))
    return out


@lru_cache(maxsize=None)
def _tangles() -> dict[str, tuple[Pattern, tuple[str, ...]]]:
    text = resources.files("smg.data").joinpath("transform_tangles.smg").read_text()
    return _parse_tangles(text)


def _replace_all(d: Diagram, tangles: dict[str, tuple[Pattern, tuple[str, ...]]], suffix: str,
                 turn: int = 0) -> tuple[Diagram, set[str]]:
    """Substitute every marker/singular vertex by the tangle of its kind,
    turned by its attribute plus ``turn`` ports; returns the classical
    diagram and the ids of the tangles' framed edges."""
    subs = {nd.id: (tangles[nd.kind][0], nd.attr + turn) for nd in d.nodes if nd.kind in tangles}
    out, ids = _substitute(d, subs, f"{d.name}_{suffix}", places=True)
    return out, {ids[v][1][e] for v in subs for e in tangles[d.node(v).kind][1]}


def semi_transform(d: Diagram, kind: str) -> Diagram:
    """The marker/singular replacement underlying the two semi-invariants.
    f^M6 is f^M5 with every tangle turned back by one port, so that a marker
    takes its negative smoothing instead of its positive one."""
    _require_diagram(d, "semi_transform")
    if kind not in (M5, M6):
        raise SMGSemanticError(f"kind must be M5 or M6, got {kind!r}")
    tangles = {MARKER: (_SMOOTHING, ()), SINGULAR: _tangles()["clasp"]}
    return _replace_all(d, tangles, kind.lower(), 0 if kind == M5 else 3)[0]


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class Profile:
    """Sorted nonzero |linking| entries plus per-quandle coloring rates.

    The rate for a quandle table is its number of colorings summed over all
    orientations, divided by ``(2n)**components`` for order n.  That is the
    count by Q over ``|Q|**components`` on any one orientation, where Q is
    the table itself when it is involutory and its doubled quandle (order
    2n) otherwise.  Both ingredients are blind to disjoint unknotted
    circles, realizing values taken modulo split sums with trivial pieces.
    """

    linking: tuple[int, ...]
    rates: tuple[tuple[str, str], ...]   # (quandle tag, rate as fraction str)

    def is_trivial(self) -> bool:
        return not self.linking and all(r == "1" for _, r in self.rates)


def profile(c: Diagram, panel: Optional[tuple[QuandleTable, ...]] = None) -> Profile:
    """Profile of a classical diagram; deterministic and unchanged by
    disjoint union with crossingless loops."""
    _require_classical(c, "profile")
    if panel is None:
        panel = small_quandles(4)
    for q in panel:
        _require(q, QuandleTable, "profile")
    comps = len(classical_components(c))
    od = _first_orientation(c)
    lk = linking_matrix(od)
    linking = tuple(sorted(abs(lk[i][j])
                           for i in range(len(lk)) for j in range(i + 1, len(lk))
                           if lk[i][j]))
    rates = []
    for idx, q in enumerate(panel):
        # an involutory count is orientation-free (op_inv == op); the
        # doubled table sums any other over all orientations
        table = q if q.is_involutory() else q._doubled
        count = coloring_count(c, table, od)
        rates.append((f"q{q.n}.{idx}", str(Fraction(count, table.n ** comps))))
    return Profile(linking, tuple(rates))


# ---------------------------------------------------------------------------
# Kirby diagrams of exteriors


@dataclass(frozen=True)
class KirbyDiagram:
    """Classical diagram with dotted (1-handle) and 0-framed (2-handle)
    components."""

    diagram: Diagram
    framed: tuple[frozenset, ...]
    dotted: tuple[frozenset, ...]

    def counts(self) -> tuple[int, int]:
        return len(self.dotted), len(self.framed)

    def serialize(self) -> str:
        from .diagram import serialize as ser

        body = ser(self.diagram).rstrip().rsplit("\n", 1)[0]
        lines = [body]
        for comp in self.dotted:
            lines.append(f"dot {min(comp)}")
        for comp in self.framed:
            lines.append(f"frame {min(comp)} 0")
        lines.append("end")
        return "\n".join(lines) + "\n"


def export_exterior(d: Diagram) -> KirbyDiagram:
    """Handle diagram of the complement: dot every negative-resolution
    component, add one 0-framed circle per band and a commutator circle per
    double point."""
    _require_diagram(d, "export_exterior")
    tangles = _tangles()
    out, framed_edges = _replace_all(
        d, {MARKER: tangles["ext_marker"], SINGULAR: tangles["ext_singular"]}, "ext")
    comps = classical_components(out)
    framed = tuple(c for c in comps if c & framed_edges)
    dotted = tuple(c for c in comps if not (c & framed_edges))
    return KirbyDiagram(out, framed, dotted)


def kirby_group(k: KirbyDiagram) -> Presentation:
    """Generators from dotted circles; one relator per framed component,
    letters collected when the framed strand passes under a dotted one."""
    _require(k, KirbyDiagram, "kirby_group")
    c = k.diagram
    od = _first_orientation(c)
    if od is None:
        raise SMGSemanticError("degenerate embedding: diagram is not orientable")
    comps = classical_components(c)
    comp_of = _component_index(comps)
    dotted_index: dict[int, int] = {}
    for gi, comp in enumerate(k.dotted):
        dotted_index[comps.index(comp)] = gi

    relators = []
    for comp in k.framed:
        if all(e in c.loops for e in comp):
            relators.append(())
            continue
        # walk the framed circuit in flow direction
        start = min(e for e in comp if e not in c.loops)
        word: list[int] = []
        for _, (nid, p) in _strand(c, start, od.head_map[start]):
            if p in (0, 2):  # we arrive on the under-strand
                over_comp = comp_of[c.node(nid).ports[1]]
                if over_comp in dotted_index:
                    g = dotted_index[over_comp] + 1
                    word.append(crossing_sign(od, nid) * g)
        relators.append(cyclic_reduce(tuple(word)))
    rels = tuple(w for w in relators if w)
    return Presentation(len(k.dotted), rels)
