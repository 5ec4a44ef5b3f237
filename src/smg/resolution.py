"""Resolutions, bounded Reidemeister simplification, and admissibility.

The positive/negative resolution smooths every marker and resolves every
singular vertex into a classical crossing; what remains is a classical link
diagram.  It is one pass of the vertex substitution that the semi-invariant
transforms and the Kirby export share (``_substitute``).  Triviality of
classical diagrams is semi-decided, in this order: a greedy pass of
crossing-removing R1/R2 moves whose trace, when it clears every crossing,
certifies YES; cheap obstructions (linking numbers, Fox 3-colorings),
computed only when it does not, which give certified NO answers; and a
bounded search over the classical Reidemeister moves from where the greedy
pass stopped, which gives certified YES answers, with budget exhaustion
reported as UNKNOWN.  A diagram caches its two resolutions, so every caller
of :func:`resolve` shares one substitution per diagram and sign.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional

from .diagram import (
    CROSSING,
    MARKER,
    SINGULAR,
    Dart,
    Diagram,
    Node,
    OrientedDiagram,
    SMGError,
    SMGSemanticError,
    UnionFind,
    _crossing_flow,
    _first_orientation,
    _fresh_ids,
)
from .moves import (
    FORWARD,
    HUB,
    REVERSE,
    MoveSequence,
    MoveSpec,
    MoveStep,
    Pattern,
    _sites,
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

    @cached_property
    def components(self) -> list[frozenset]:
        return classical_components(self.diagram)

    @cached_property
    def component_of(self) -> dict[str, int]:
        return _component_index(self.components)

    def component_count(self) -> int:
        return len(self.components)


def _require_diagram(d, what: str) -> None:
    if not isinstance(d, Diagram):
        raise SMGSemanticError(f"{what} needs an unoriented Diagram, not {type(d).__name__}")


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
    uf = UnionFind(c.edges)
    for nd in c.nodes:
        for p in (0, 1):
            uf.union(nd.ports[p], nd.ports[p + 2])
    groups: dict[str, set] = {}
    for e in c.edges:
        groups.setdefault(uf.find(e), set()).add(e)
    comps = [frozenset(v) for v in groups.values()]
    comps += [frozenset([l]) for l in c.loops]
    return tuple(sorted(comps, key=min))


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


@lru_cache(maxsize=None)
def _leg_ends(pat: Pattern, rot: int) -> tuple:
    """``(p, n, q)`` per leg of ``pat`` turned by ``rot``: the leg sits on
    port ``p`` of the vertex, and its edge ends at port ``q`` of tangle node
    ``n`` or, when ``n`` is HUB, at the vertex's port ``q``."""
    ends = [pat.alpha(pat.hub_dart_of_leg(k)) for k in range(1, 5)]
    return tuple(((k + rot) % 4, n, (3 - q + rot) % 4 if n == HUB else q)
                 for k, (n, q) in enumerate(ends))


def _substitute(d: Diagram, subs: dict[str, tuple[Pattern, int]], name: str,
                turned: Optional[dict[str, int]] = None, places: bool = False):
    """Replace each node ``v`` of ``subs`` by its tangle in one pass, with leg
    ``k`` on port ``(k - 1 + rot) % 4`` of ``v`` for ``subs[v] = (tangle, rot)``.

    Tangle nodes and interior edges get fresh ids.  Each strand through the
    tangles' bare strands becomes one new edge, named in ``d.edges`` order,
    or a new loop when it closes.  A node of ``turned`` becomes a crossing
    whose port ``p + turned[v]`` was its port ``p``.  Places are dropped
    unless ``places``.  Returns the validated result and, per replaced
    node, its tangle's interior edges mapped to their new ids."""
    turned = turned or {}
    node_map, edge_ends = d.node_map, d.edge_ends
    fresh = _fresh_ids(set(edge_ends) | set(d.loops) | set(node_map))
    succ: dict[Dart, Dart] = {}     # host end of a bare strand -> its other end
    stop: dict[Dart, Dart] = {}     # host end -> result node port, where they differ
    edge_at: dict[Dart, str] = {}   # result node port -> its edge
    ids, interior = {}, {}
    for v, r in turned.items():
        stop.update({(v, p): (v, (p + r) % 4) for p in range(4)})
    for v, (pat, rot) in subs.items():
        new = ids[v] = {nd.id: fresh("q") for nd in pat.nodes}
        inner = interior[v] = {e: fresh("t") for e in pat.interior_edges}
        edge_at.update({(new[t.id], q): inner[e]
                        for t in pat.nodes for q, e in enumerate(t.ports) if e in inner})
        for p, n, q in _leg_ends(pat, rot):
            if n == HUB:
                succ[(v, p)] = (v, q)
            else:
                stop[(v, p)] = (new[n], q)

    seen: set[str] = set()

    def cross(dart: Dart) -> Dart:
        e = node_map[dart[0]].ports[dart[1]]
        seen.add(e)
        a, b = edge_ends[e]
        return b if a == dart else a

    for e in d.edges:
        if e in seen:
            continue
        start, end = edge_ends[e]
        if start in succ:
            if end in succ:
                continue    # an edge inside a strand
            start = end
        end = cross(start)
        while end in succ:
            end = cross(succ[end])
        edge_at[stop.get(start, start)] = edge_at[stop.get(end, end)] = fresh("r")
    closed = []     # per new loop, the host end its walk leaves each edge from
    for e in d.edges:
        if e not in seen:
            dart, darts = edge_ends[e][0], []
            while node_map[dart[0]].ports[dart[1]] not in seen:
                darts.append(dart)
                dart = succ[cross(dart)]
            closed.append(darts)
    new_loops = tuple([fresh("c") for _ in closed])

    heads = []      # (id, kind, attr) of the result's nodes
    for nd in d.nodes:
        if nd.id in subs:
            heads += [(ids[nd.id][t.id], t.kind, t.attr) for t in subs[nd.id][0].nodes]
        else:
            heads.append((nd.id, CROSSING, None) if nd.id in turned else (nd.id, nd.kind, nd.attr))
    nodes = tuple([Node(n, kind, attr, (edge_at[(n, 0)], edge_at[(n, 1)], edge_at[(n, 2)],
                                        edge_at[(n, 3)])) for n, kind, attr in heads])
    anchors = ()
    if places and (d.anchors or new_loops):
        anchors = _carry_places(d, subs, ids, nodes, closed, new_loops)
    out = Diagram(name, nodes, d.loops + new_loops, anchors)
    rep = out.validate()
    if not rep.ok:
        raise SMGError(f"substitution produced an invalid diagram: {rep}")
    return out, interior


def _carry_places(d: Diagram, subs, ids, nodes, closed, new_loops) -> tuple:
    """Places for :func:`_substitute`'s result.  Faces of ``d`` that one face
    of a tangle touches, or that lie either side of a new loop (loops are
    transparent), become one face.  A place at a replaced corner moves to
    the first result corner in its face that is not on the component itself,
    and so does each new loop; with none it goes to the outer face.  A
    component follows its surviving and tangle nodes, and a piece that
    splits gives its place to every part."""
    faces = d.faces()
    uf = UnionFind(range(-1, len(faces.orbits)))
    host_corner = {}    # tangle node corner -> a corner of ``d`` in its face
    for v, (pat, rot) in subs.items():
        for face in pat.faces:
            # the gap after leg k = 4 - t, at hub dart (HUB, t), is a corner of v
            gaps = [(v, (3 - t + rot) % 4) for n, t in face if n == HUB]
            for g in gaps[1:]:
                uf.union(faces.face_of_corner(g), faces.face_of_corner(gaps[0]))
            if gaps:    # dart (n, p) lies in the face of corner (n, p - 1)
                host_corner.update({(ids[v][n], (p - 1) % 4): gaps[0] for n, p in face if n != HUB})
    for darts in closed:
        for x in darts:
            uf.union(faces.face_of_dart(x), faces.face_of_dart(d.alpha(x)))
    corners: dict[int, list] = {}   # face of the result -> its corners in order
    for nd in nodes:
        for k in range(4):
            c = (nd.id, k) if nd.id in d.node_map else host_corner.get((nd.id, k))
            if c is not None:
                corners.setdefault(uf.find(faces.face_of_corner(c)), []).append((nd.id, k))

    def settle(face: int, own=()) -> Optional[tuple[str, int]]:
        return next((c for c in corners.get(uf.find(face), ()) if c[0] not in own), None)

    piece_of = {n: min(p) for p in Diagram(d.name, nodes).graph_pieces for n in p}
    places = {}
    for pid, anchor in d.anchors:
        own, parts = (), [pid]
        if pid in d.node_map:
            piece = next(p for p in d.graph_pieces if min(p) == pid)
            own = {x for n in piece for x in (ids[n].values() if n in ids else (n,))}
            parts = sorted({piece_of[x] for x in own})
        if anchor is not None and anchor[0] in subs:
            anchor = settle(faces.face_of_corner(anchor), own)
        if anchor is not None:
            places.update(dict.fromkeys(parts, anchor))
    for loop, darts in zip(new_loops, closed):
        anchor = settle(faces.face_of_dart(darts[0]))
        if anchor is not None:
            places[loop] = anchor
    return tuple(places.items())


# ---------------------------------------------------------------------------
# linking numbers


def linking_matrix(od: OrientedDiagram) -> list[list[int]]:
    """Linking numbers between components: half the sum of signs of
    inter-component crossings."""
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
        sign = _crossing_flow(od, nd.id)[2]
        twice[i][j] += sign
        twice[j][i] += sign
    if any(v % 2 for row in twice for v in row):
        raise SMGError("linking_matrix: two components cross an odd number of times")
    return [[v // 2 for v in row] for row in twice]


def crossing_sign(od: OrientedDiagram, node_id: str) -> int:
    """+1 or -1, the sign of crossing ``node_id`` under ``od``."""
    return _crossing_flow(od, node_id)[2]


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


def _greedy_reduce(c: Diagram) -> tuple[Diagram, tuple]:
    """Apply the first reverse site of the first crossing-removing move
    until none has one."""
    steps: tuple = ()
    cur = c
    while cur.counts[0] > 0:
        for m in _rmoves()[1]:
            site = next(_sites(cur, m, REVERSE, kept=True), None)
            if site is not None:
                cur = apply_move(cur, m, site)
                steps += (MoveStep(m.id, site.variant, REVERSE, code_digest(cur)),)
                break
        else:
            break
    return cur, steps


def reidemeister_simplify(c: Diagram, budget: Optional[Budget] = None):
    """Greedy-first bounded search over R1/R2/R3; returns the diagram with
    the fewest crossings found and a replayable trace to it."""
    _require_classical(c, "reidemeister_simplify")
    start, presteps = _greedy_reduce(c)
    if start.counts[0] == 0:
        return start, MoveSequence(presteps)
    return _heap_search(c, start, presteps, budget or Budget())


def _heap_search(c: Diagram, start: Diagram, presteps: tuple, budget: Budget):
    """Best-first search over R1/R2/R3 from ``start``, which the greedy pass
    reached from ``c`` by ``presteps``, finishing greedily from every new
    state; returns the fewest-crossing diagram found and its trace."""
    ceiling = c.counts[0] + budget.extra_crossings
    best = (start.counts[0], start, MoveSequence(presteps))
    seen = {start.canonical_code()}
    heap = [(start.counts[0], 0, start, presteps)]
    counter = 0
    states = 1
    while heap and states < budget.max_states:
        x, _, d, steps = heapq.heappop(heap)
        for m in _rmoves()[0]:
            for direction in (REVERSE, FORWARD):
                for site in _sites(d, m, direction, kept=True):
                    nxt = apply_move(d, m, site)
                    if nxt.counts[0] > ceiling:
                        continue
                    code = nxt.canonical_code()
                    if code in seen:
                        continue
                    seen.add(code)
                    states += 1
                    tail, tailsteps = _greedy_reduce(nxt)
                    step = MoveStep(m.id, site.variant, direction, code_digest(nxt))
                    nsteps = steps + (step,)
                    full = nsteps + tailsteps
                    nx = tail.counts[0]
                    if nx < best[0]:
                        best = (nx, tail, MoveSequence(full))
                    if nx == 0:
                        return tail, MoveSequence(full)
                    counter += 1
                    heapq.heappush(heap, (nxt.counts[0], counter, replace(nxt), nsteps))
                    if states >= budget.max_states:
                        break
    return best[1], best[2]


def _fox3_count(c: Diagram) -> int:
    from .quandles import coloring_count, dihedral_quandle

    return coloring_count(c, dihedral_quandle(3))


def is_trivial_unlink(c: Diagram, budget: Optional[Budget] = None) -> TriState:
    """YES with a simplification trace, NO with an invariant obstruction,
    or UNKNOWN when the budget runs out.  A greedy pass that clears every
    crossing is the certificate; only a diagram it leaves crossed has its
    linking numbers and Fox 3-colorings counted (neither refutes an unlink)
    and then goes on to the heap search."""
    _require_classical(c, "is_trivial_unlink")
    ncomp = len(classical_components(c))
    start, presteps = _greedy_reduce(c)
    if start.counts[0] == 0:
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
    simp, trace = _heap_search(c, start, presteps, budget or Budget())
    if simp.counts[0] == 0:
        return TriState(YES, components=ncomp, trace=trace)
    return TriState(UNKNOWN, components=ncomp)


def is_admissible(d: Diagram, budget: Optional[Budget] = None) -> dict:
    """Both resolutions must be trivial unlink diagrams."""
    _require_diagram(d, "is_admissible")
    res = {}
    for sign in (POSITIVE, NEGATIVE):
        r = resolve(d, sign)
        res[sign] = is_trivial_unlink(r.diagram, budget)
    values = {res[POSITIVE].value, res[NEGATIVE].value}
    if values == {YES}:
        verdict = YES
    elif NO in values:
        verdict = NO
    else:
        verdict = UNKNOWN
    return {"verdict": verdict, POSITIVE: res[POSITIVE], NEGATIVE: res[NEGATIVE]}
