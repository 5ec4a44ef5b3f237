"""Resolutions, bounded Reidemeister simplification, and admissibility.

The positive/negative resolution smooths every marker and resolves every
singular vertex into a classical crossing; what remains is a classical link
diagram.  It is one vertex substitution (``_substitute``, shared with the
semi-invariant transforms and the Kirby export), which turns each port of a
replaced vertex into a leg of the one splice that moves use too
(``moves._splice``); the splice's place rule by faces (``_places``) lives
here.  Triviality of classical diagrams is semi-decided, in this order: a
greedy pass of crossing-removing R1/R2 moves whose trace, when it clears
every crossing, certifies YES; cheap obstructions (linking numbers, Fox
3-colorings), computed only when it does not, which give certified NO
answers; and a bounded search over the classical Reidemeister moves from
where the greedy pass stopped, which gives certified YES answers, with
budget exhaustion reported as UNKNOWN.  A diagram caches its two
resolutions, so every caller of :func:`resolve` shares one substitution per
diagram and sign.  The diagrams that the splice derives from one diagram
share its memo of greedy tails by shape, so a greedy state that recurs up
to the names of its edges and loops is cleared once; a classical
diagram's two resolutions are equal, and admissibility proves them once.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from .diagram import (
    CROSSING,
    MARKER,
    SINGULAR,
    _ROWS,
    Diagram,
    OrientedDiagram,
    SMGError,
    SMGSemanticError,
    UnionFind,
    _cached,
    _first_orientation,
    _port_classes,
    _require,
    _require_count,
    _require_diagram,
    _ties,
)
from .moves import (
    FORWARD,
    HUB,
    REVERSE,
    MoveSequence,
    MoveSpec,
    MoveStep,
    Pattern,
    _path,
    _sites,
    _splice,
    _unrepeated,
    apply_move,
    code_digest,
)

POSITIVE = "positive"
NEGATIVE = "negative"

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


def smoothing_pairs(axis: int, sign: str) -> tuple[tuple[int, int], tuple[int, int]]:
    a = axis
    if sign == POSITIVE:
        return ((a % 4, (a + 1) % 4), ((a + 2) % 4, (a + 3) % 4))
    return (((a + 1) % 4, (a + 2) % 4), ((a + 3) % 4, a % 4))


def _singular_rotation(side: int, sign: str) -> int:
    # the resolved crossing keeps the under-strand at ports (0,2); rotate by
    # one when the (0,2)-strand of the vertex has to end up on top
    over_02 = (side == 0) == (sign == POSITIVE)
    return 1 if over_02 else 0


@dataclass
class Resolution:
    """A classical resolution; ``snode_rot`` gives, per singular vertex, the
    rotation that turned it into a crossing (port ``p`` of the vertex is
    port ``p + rot`` of the crossing)."""

    diagram: Diagram
    sign: str
    snode_rot: dict[str, int]

    @_cached
    def components(self) -> list[frozenset]:
        return classical_components(self.diagram)

    def component_count(self) -> int:
        return len(self.components)


def _require_classical(c: Diagram, what: str) -> None:
    _require_diagram(c, what)
    if not c.is_classical():
        raise SMGSemanticError(
            f"{what} needs a classical diagram; {c.name!r} has markers or double points")


def classical_components(c: Diagram) -> list[frozenset]:
    """Strand components of a classical diagram (edges pass straight through
    crossings); loops are singleton components.  They are found once per
    diagram, as ``Diagram._components``; each call returns a new list."""
    _require_classical(c, "classical_components")
    return list(c._components)


def _build_components(c: Diagram) -> tuple[frozenset, ...]:
    """Built once per classical diagram, as ``Diagram._components``."""
    groups: dict[int, set] = {}
    for x, i in _port_classes(c, lambda nd: _ties(nd, False)).items():
        groups.setdefault(i, set()).add(x)
    return tuple(sorted(map(frozenset, groups.values()), key=min))


def _component_index(comps: list[frozenset]) -> dict[str, int]:
    """Each edge and loop of ``comps`` mapped to its component's index."""
    return {e: i for i, comp in enumerate(comps) for e in comp}


#: the positive smoothing of a marker as a tangle: at rotation ``a``, the
#: marker's axis, it joins ports ``(a, a+1)`` and ``(a+2, a+3)``; turned by
#: one port either way it is the negative smoothing (see :func:`smoothing_pairs`)
_SMOOTHING = Pattern((), ("p", "p", "q", "q"))


def resolve(d: Diagram, sign: str) -> Resolution:
    """Smooth every marker and resolve every singular vertex.  ``d`` keeps
    the result for each sign; every call returns a fresh ``Resolution``."""
    _require_diagram(d, "resolve")
    if sign not in (POSITIVE, NEGATIVE):
        raise SMGSemanticError(f"bad sign {sign!r}")
    if sign not in d._resolutions:
        snode_rot, subs = {}, {}
        for nd in d.nodes:
            if nd.kind == SINGULAR:
                snode_rot[nd.id] = _singular_rotation(nd.attr, sign)
            elif nd.kind == MARKER:
                subs[nd.id] = (_SMOOTHING, nd.attr + (sign == NEGATIVE))
        d._resolutions[sign] = (_substitute(d, subs, d.name, snode_rot)[0], snode_rot)
    c, snode_rot = d._resolutions[sign]
    return Resolution(c, sign, dict(snode_rot))


#: the ports of a vertex, from the one that leg 1 of a tangle turned by ``r`` sits on
_TURNS = tuple(tuple((k + r) % 4 for k in range(4)) for r in range(4))


def _substitute(d: Diagram, subs: dict[str, tuple[Pattern, int]], name: str,
                turned: Optional[dict[str, int]] = None, places: bool = False):
    """Replace each node ``v`` of ``subs`` by its tangle in one splice
    (:func:`moves._splice`), with leg ``k`` on port ``(k - 1 + rot) % 4`` of
    ``v`` for ``subs[v] = (tangle, rot)``: each port of ``v`` is a leg.

    Every edge of ``d`` is cut, so every edge of the result is new, named
    ``r<i>`` in ``d.edges`` order: a strand at its first edge that ends at
    a node port, a closed strand (a new loop) at its first edge.  A node of
    ``turned`` becomes a crossing whose port ``p + turned[v]`` was its port
    ``p``.  Places are dropped unless ``places``.  Returns the validated
    result and, per replaced node, its tangle's node and interior edge
    names mapped to their new ids."""
    tangles, bare = {}, set()       # bare: the vertices whose tangle has bare strands only
    for v, (pat, rot) in subs.items():
        p0, p1, p2, p3 = _TURNS[rot % 4]
        tangles[v] = (pat, ((v, p0), (v, p1), (v, p2), (v, p3)))
        if not pat.nodes:
            bare.add(v)
    outer, order, loops, edge_ends = {}, [], [], d.edge_ends
    for e in d.edges:
        a, b = edge_ends[e]
        if a[0] in subs:
            outer[a] = b
        if b[0] in subs:
            outer[b] = a
        if a[0] in bare:
            loops.append(a)
            if b[0] in bare:
                continue    # an edge inside a strand
            a, b = b, a
        # the strand ending at ``a``: entered at a leg, or the edge itself
        order.append(a if a[0] in subs else b if b[0] in subs else e)
    order += loops
    out, _, ids = _splice(d, name, set(subs), tangles, outer, order, "r", turned,
                          outer if places else None)
    return out, ids


def _places(d: Diagram, nodes, cut, tangles, ids, made, through, beyond) -> tuple:
    """Places for :func:`_splice`'s result, by faces.  Host faces that one
    face of a tangle touches between its legs, or that lie either side of a
    new loop (loops are transparent), become one face.  A place keeps its
    corner while the corner survives off the component, on the piece that
    holds the face, in a face that no two faces of one tangle split.
    Otherwise it goes to the first result corner of its face off the
    component, as each new loop does, or else to the outer face.  A
    component follows its surviving nodes and the strands through its legs,
    so every part of a split piece keeps its place; a part that joins
    components drops any place that lay inside one of them."""
    faces = d.faces()
    uf = UnionFind(range(-1, len(faces.orbits)))

    def face(leg) -> int:       # the host face just after ``leg``, counterclockwise
        b = beyond[leg]
        return faces.face_of_loop(b) if type(b) is str else faces.face_of_dart(b)

    host_face = {}      # pasted corner -> the host face it lies in
    split = set()       # host faces at the gaps of two faces of one tangle
    for key, (pat, legs) in tangles.items():
        seen, last = set(), pat.K - 1
        for pf in pat.faces:    # hub dart (HUB, t) opens the gap after leg K - t
            gaps = [face(legs[last - t]) for n, t in pf if n == HUB]
            split |= seen.intersection(gaps)
            seen.update(gaps)
            for g in gaps[1:]:
                uf.union(g, gaps[0])
            if gaps:    # dart (n, p) lies in the face of corner (n, p - 1)
                host_face.update({(ids[key][0][n], (p - 1) % 4): gaps[0]
                                  for n, p in pf if n != HUB})
    rings = {}          # new loop -> its first leg
    for leg, i in through.items():
        if made[i][1] is None:
            rings.setdefault(made[i][0], leg)
            if type(beyond[leg]) is not str:    # the cut edge's two sides become one
                uf.union(face(leg), faces.face_of_dart(d.alpha(beyond[leg])))
    # per face of the result that a place or a new loop asks for, its corners
    # in order: first the surviving ones of the piece that holds the face,
    # then those of a host piece's outward face, which only alias the face
    # that piece is in, then pasted ones
    find, outward = uf.find, set(faces.outward.values())
    asked = [face(leg) for leg in rings.values()]
    asked += [faces.face_of_corner(a) for _, a in d.anchors if a is not None]
    corners = {find(f): ([], [], []) for f in asked}
    for nd in nodes:
        survives = nd.id in d.node_map
        for k in range(4):
            c = (nd.id, k)
            f = faces.face_of_corner(c) if survives else host_face.get(c)
            ranked = corners.get(find(f)) if f is not None else None
            if ranked is not None:
                ranked[faces.orbit_of_corner_index(c) in outward if survives else 2].append(c)

    def settle(f: int, own=()) -> Optional[tuple[str, int]]:
        return next((c for cs in corners.get(uf.find(f), ()) for c in cs if c[0] not in own), None)

    def holder(corner) -> Optional[str]:
        """The host piece with ``corner``'s face as an inner face, or None
        for the outer face (an outward face is where its piece is placed)."""
        for _ in d.anchors:
            pid = faces.piece_of_corner(corner)
            if faces.orbit_of_corner_index(corner) != faces.outward[pid]:
                return pid
            corner = d.anchor_map.get(pid)
            if corner is None:
                break
        return None

    places, lands = {}, {}  # host component -> the result pieces it lands in
    if d.anchors:
        piece_of = {n: p for p in Diagram(d.name, tuple(nodes)).graph_pieces for n in p}
        host_pid = {n: min(p) for p in d.graph_pieces for n in p}
        for p in d.graph_pieces:
            lands[min(p)] = {piece_of[n] for n in p if n in piece_of}
        for leg, i in through.items():
            _, a, b = made[i]
            on = beyond[leg]
            if a is not None:
                lands.setdefault(on if type(on) is str else host_pid[on[0]], set()).update(
                    (piece_of[a[0]], piece_of[b[0]]))
    for pid, anchor in d.anchors:
        if anchor is None:
            continue
        up, f = holder(anchor), faces.face_of_corner(anchor)
        if pid in d.loops and pid not in cut:
            own, parts = (), [pid]
        else:
            mine = set(lands.get(pid, ()))
            if up is not None:      # a part that took in its holder is not inside it
                mine -= lands[up]
            own, parts = set().union(*mine), sorted(min(p) for p in mine)
        if anchor[0] in cut or anchor[0] in own or f in split or (
                up != faces.piece_of_corner(anchor)):   # an outward face's corner
            anchor = settle(f, own)
        if anchor is not None:
            for part in parts:
                places.setdefault(part, anchor)
    for loop, leg in rings.items():
        anchor = settle(face(leg))
        if anchor is not None:
            places[loop] = anchor
    return tuple(places.items())


# ---------------------------------------------------------------------------
# linking numbers


def linking_matrix(od: OrientedDiagram) -> list[list[int]]:
    """Linking numbers between components: half the sum of signs of
    inter-component crossings."""
    _require(od, OrientedDiagram, "linking_matrix")
    c = od.base
    comps = classical_components(c)
    comp_of = _component_index(comps)
    n = len(comps)
    twice = [[0] * n for _ in range(n)]
    for nd in c.nodes:
        i = comp_of[nd.ports[0]]
        j = comp_of[nd.ports[1]]
        if i == j:
            continue
        sign = od._flows[nd.id][2]
        twice[i][j] += sign
        twice[j][i] += sign
    if any(v % 2 for row in twice for v in row):
        raise SMGError("linking_matrix: two components cross an odd number of times")
    return [[v // 2 for v in row] for row in twice]


def crossing_sign(od: OrientedDiagram, node_id: str) -> int:
    """+1 or -1, the sign of crossing ``node_id`` under ``od``."""
    _require(od, OrientedDiagram, "crossing_sign")
    flows = od._flows.get(node_id)
    if flows is None:
        raise SMGSemanticError(f"crossing_sign needs a crossing of the diagram, not {node_id}")
    return flows[2]


# ---------------------------------------------------------------------------
# triviality search


@dataclass
class Budget:
    """Crossing ceiling is ``input crossings + extra``."""

    extra_crossings: int = 2
    max_states: int = 100_000


@dataclass
class TriState:
    value: str                      # yes / no / unknown
    components: Optional[int] = None
    trace: Optional[MoveSequence] = None
    obstruction: Optional[str] = None

    def __bool__(self) -> bool:
        return self.value == YES

    def serialize(self) -> str:
        lines = [f"answer {self.value}"]
        if self.components is not None:
            lines.append(f"components {self.components}")
        if self.obstruction:
            lines.append(f"obstruction {self.obstruction}")
        if self.trace is not None:
            lines.append("trace")
            if len(self.trace):
                lines.append(self.trace.serialize())
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _rmoves() -> tuple[tuple[MoveSpec, ...], tuple[MoveSpec, ...]]:
    """R1, R2 and R3, and those of them that the greedy pass applies."""
    from .catalog import catalog_map

    cat = catalog_map("unoriented")
    moves = (cat["O1"], cat["O2"], cat["O3"])
    return moves, tuple(m for m in moves if _removes_crossings(m))


def _removes_crossings(m: MoveSpec) -> bool:
    """True when every variant of ``m``, applied in reverse, puts in fewer
    crossings than it takes out, so that every reverse site removes some."""
    def crossings(pat) -> int:
        return sum(nd.kind == CROSSING for nd in pat.nodes)

    return all(crossings(m.other_side(v, REVERSE)) < crossings(m.side(v, REVERSE))
               for v in range(len(m.variants)))


#: tails a family's ``Diagram._tails`` keeps, the oldest dropped first
_FAMILY_CAP = 128

#: (kind, attribute) -> one byte, for every valid pair
_ROW_BYTE = {row: i for i, row in enumerate(_ROWS)}


def _shape(c: Diagram) -> tuple:
    """``c`` up to the names of its edges and loops: its node ids, kinds and
    attributes in ``c.nodes`` order, each piece's integer dart pairing
    (``Diagram._darts``, packed, with the piece's node ids when there is
    more than one piece), its number of loops, and its places with each
    loop named by its index.  The greedy pass takes sites in ``c.nodes``
    order, and faces and orbits are numbered from the darts, so the pass
    takes the same steps on two diagrams of one shape: edge and loop names
    only name its results, and its digests come from canonical codes.
    Node ids and their order stay in the key, because the steps depend on
    them."""
    nodes, darts = c.nodes, c._darts
    pieces = tuple(array("i", alpha).tobytes() for _, alpha, _ in darts)
    if len(darts) > 1:
        pieces += tuple(tuple([nd.id for nd in mine]) for mine, _, _ in darts)
    places = ()
    if c.anchors:
        index = {loop: i for i, loop in enumerate(c.loops)}
        places = tuple((index.get(pid, pid), anchor) for pid, anchor in c.anchors)
    # rows are all alike when every node is a crossing, as in every greedy state
    rows = b"" if c.counts[0] == len(nodes) else bytes([_ROW_BYTE[nd.kind, nd.attr]
                                                         for nd in nodes])
    return tuple([nd.id for nd in nodes]), rows, pieces, len(c.loops), places


def _greedy_reduce(c: Diagram, tails: Optional[dict] = None) -> tuple[Optional[Diagram], tuple]:
    """Apply the first reverse site of the first crossing-removing move
    until none has one; returns the diagram reached and the steps.

    ``tails``, a family's ``Diagram._tails``, maps shapes (:func:`_shape`)
    to the steps that clear them.  With it, a state whose shape it holds
    takes those steps as the rest of the trace, and the diagram returned is
    None: the trace clears every crossing.  A run that clears every
    crossing stores the tails of the last ``_FAMILY_CAP`` states it
    visited, the oldest tails dropped first past that many; a stuck run
    stores nothing."""
    steps: tuple = ()
    cur = c
    visited = deque(maxlen=_FAMILY_CAP)     # (shape, steps before it) per state
    while cur.counts[0] > 0:
        if tails is not None:
            shape = _shape(cur)
            tail = tails.get(shape)
            if tail is not None:
                cur, steps = None, steps + tail
                break
            visited.append((shape, len(steps)))
        for m in _rmoves()[1]:
            site = next(_sites(cur, m, REVERSE, kept=True), None)
            if site is not None:
                cur = apply_move(cur, m, site)
                steps += (MoveStep(m.id, site.variant, REVERSE, code_digest(cur)),)
                break
        else:
            return cur, steps
    if tails is not None:
        tails.update((shape, steps[i:]) for shape, i in visited)
        while len(tails) > _FAMILY_CAP:
            del tails[next(iter(tails))]
    return cur, steps


def _require_budget(budget, what: str) -> Budget:
    """``budget``, or the default for None; an SMGSemanticError naming
    ``what`` unless its fields are counts."""
    if budget is None:
        return Budget()
    _require(budget, Budget, what)
    _require_count(budget.extra_crossings, what)
    _require_count(budget.max_states, what)
    return budget


def reidemeister_simplify(c: Diagram, budget: Optional[Budget] = None):
    """Greedy-first bounded search over R1/R2/R3; returns the diagram with
    the fewest crossings found and a replayable trace to it."""
    _require_classical(c, "reidemeister_simplify")
    budget = _require_budget(budget, "reidemeister_simplify")
    start, presteps = _greedy_reduce(c)
    if start.counts[0] == 0:
        return start, MoveSequence(presteps)
    return _heap_search(c, start, presteps, budget)


def _heap_search(c: Diagram, start: Diagram, presteps: tuple, budget: Budget):
    """Best-first search over R1/R2/R3 from ``start``, which the greedy pass
    reached from ``c`` by ``presteps``, finishing greedily from every new
    state.  As in ``search_equivalence``, states are codes with parent links
    and the trace is read once, and sites in one orbit of a state's
    automorphisms are applied once; returns the best diagram found and its
    trace.  It makes at most ``budget.max_states`` states, the start among them."""
    ceiling = c.counts[0] + budget.extra_crossings
    here = start.canonical_code()
    # code -> (parent code, move id, variant, direction), None at the start
    parents: dict[bytes, Optional[tuple]] = {here: None}
    best = (start, here, ())
    heap = [(start.counts[0], 0, here, start)]

    def answer(tail: Diagram, code: bytes, tailsteps: tuple):
        return tail, MoveSequence(presteps + _path(parents, code) + tailsteps)

    while heap and len(parents) < budget.max_states:
        _, _, here, d = heapq.heappop(heap)
        for m in _rmoves()[0]:
            for direction in (REVERSE, FORWARD):
                for site in _unrepeated(d, _sites(d, m, direction, kept=True)):
                    nxt = apply_move(d, m, site)
                    if nxt.counts[0] > ceiling:
                        continue
                    code = nxt.canonical_code()
                    if code in parents:
                        continue
                    parents[code] = (here, m.id, site.variant, direction)
                    tail, tailsteps = _greedy_reduce(nxt)
                    if tail.counts[0] < best[0].counts[0]:
                        best = (tail, code, tailsteps)
                    if tail.counts[0] == 0:
                        return answer(*best)
                    if len(parents) >= budget.max_states:
                        return answer(*best)
                    heapq.heappush(heap, (nxt.counts[0], len(parents), code, replace(nxt)))
    return answer(*best)


def _fox3_count(c: Diagram) -> int:
    from .quandles import coloring_count, dihedral_quandle

    return coloring_count(c, dihedral_quandle(3))


def is_trivial_unlink(c: Diagram, budget: Optional[Budget] = None) -> TriState:
    """YES with a simplification trace, NO with an invariant obstruction,
    or UNKNOWN when the budget runs out.  A greedy pass that clears every
    crossing is the certificate; only a diagram it leaves crossed has its
    linking numbers and Fox 3-colorings counted (neither refutes an unlink)
    and then goes on to the heap search.  The diagrams derived from one
    diagram share the tails of its greedy passes, keyed by shape
    (:func:`_greedy_reduce`), so a state that an earlier pass cleared costs
    no move; a pass that gets stuck stores nothing, and is made again."""
    _require_classical(c, "is_trivial_unlink")
    budget = _require_budget(budget, "is_trivial_unlink")
    ncomp = len(classical_components(c))
    start, presteps = _greedy_reduce(c, c._tails)
    if start is None or start.counts[0] == 0:
        return TriState(YES, components=ncomp, trace=MoveSequence(presteps))
    lk = linking_matrix(_first_orientation(c))
    for i in range(len(lk)):
        for j in range(i + 1, len(lk)):
            if lk[i][j] != 0:
                return TriState(NO, components=ncomp,
                                obstruction=f"linking({i},{j})={lk[i][j]}")
    fox = _fox3_count(c)
    if fox != 3 ** ncomp:
        return TriState(NO, components=ncomp,
                        obstruction=f"fox3={fox}!=3^{ncomp}")
    simp, trace = _heap_search(c, start, presteps, budget)
    if simp.counts[0] == 0:
        return TriState(YES, components=ncomp, trace=trace)
    return TriState(UNKNOWN, components=ncomp)


def is_admissible(d: Diagram, budget: Optional[Budget] = None) -> dict:
    """Both resolutions must be trivial unlink diagrams.  The negative one
    is proven only when it differs from the positive one: a classical
    diagram's two are equal, and its negative answer is a copy."""
    _require_diagram(d, "is_admissible")
    budget = _require_budget(budget, "is_admissible")
    pos, neg = resolve(d, POSITIVE).diagram, resolve(d, NEGATIVE).diagram
    res = {POSITIVE: is_trivial_unlink(pos, budget)}
    res[NEGATIVE] = replace(res[POSITIVE]) if neg == pos else is_trivial_unlink(neg, budget)
    values = {res[POSITIVE].value, res[NEGATIVE].value}
    if values == {YES}:
        verdict = YES
    elif NO in values:
        verdict = NO
    else:
        verdict = UNKNOWN
    return {"verdict": verdict, POSITIVE: res[POSITIVE], NEGATIVE: res[NEGATIVE]}
