"""Resolutions, bounded Reidemeister simplification, and admissibility.

The positive/negative resolution smooths every marker and resolves every
singular vertex into a classical crossing; what remains is a classical link
diagram.  Triviality of classical diagrams is semi-decided: cheap
obstructions (linking numbers, Fox 3-colorings) give certified NO answers,
a bounded search over the classical Reidemeister moves gives certified YES
answers, and budget exhaustion reports UNKNOWN.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .diagram import (
    CROSSING,
    MARKER,
    SINGULAR,
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
    REVERSE,
    MoveSequence,
    MoveSpec,
    MoveStep,
    _sites,
    apply_move,
    code_digest,
    find_sites,
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


def _require_classical(c: Diagram, what: str) -> None:
    if not c.is_classical():
        raise SMGSemanticError(
            f"{what} needs a classical diagram; {c.name!r} has markers or double points")


def classical_components(c: Diagram) -> list[frozenset]:
    """Strand components of a classical diagram (edges pass straight through
    crossings); loops are singleton components."""
    _require_classical(c, "classical_components")
    uf = UnionFind(c.edges)
    for nd in c.nodes:
        for p in (0, 1):
            uf.union(nd.ports[p], nd.ports[p + 2])
    groups: dict[str, set] = {}
    for e in c.edges:
        groups.setdefault(uf.find(e), set()).add(e)
    comps = [frozenset(v) for v in groups.values()]
    comps += [frozenset([l]) for l in c.loops]
    return sorted(comps, key=min)


def _component_index(comps: list[frozenset]) -> dict[str, int]:
    """Each edge and loop of ``comps`` mapped to its component's index."""
    return {e: i for i, comp in enumerate(comps) for e in comp}


def resolve(d: Diagram, sign: str) -> Resolution:
    """Smooth every marker and resolve every singular vertex."""
    if sign not in (POSITIVE, NEGATIVE):
        raise ValueError(f"bad sign {sign!r}")
    keep_nodes: list[Node] = []
    snode_rot: dict[str, int] = {}
    for nd in d.nodes:
        if nd.kind == CROSSING:
            keep_nodes.append(nd)
        elif nd.kind == SINGULAR:
            snode_rot[nd.id] = _singular_rotation(nd.attr, sign)
            keep_nodes.append(nd)

    # chain original edges through the marker smoothings
    succ: dict[tuple, tuple] = {}   # (node, port) joined to (node, port)
    for nd in d.nodes:
        if nd.kind != MARKER:
            continue
        for p, q in smoothing_pairs(nd.attr, sign):
            succ[(nd.id, p)] = (nd.id, q)
            succ[(nd.id, q)] = (nd.id, p)

    marker_ids = {nd.id for nd in d.nodes if nd.kind == MARKER}

    def is_terminal(dart) -> bool:
        return dart[0] not in marker_ids

    visited: set[str] = set()
    fresh = _fresh_ids(set(d.edges) | set(d.loops) | {nd.id for nd in d.nodes})

    def segment_at(dart):
        return d.node(dart[0]).ports[dart[1]]

    # open chains, one per pair of terminal ends
    port_sub: dict[tuple, str] = {}
    for e in d.edges:
        if e in visited:
            continue
        d0, d1 = d.edge_ends[e]
        if not (is_terminal(d0) or is_terminal(d1)):
            continue
        start = d0 if is_terminal(d0) else d1
        dart = start
        while True:
            visited.add(segment_at(dart))
            end = d.alpha(dart)
            if is_terminal(end):
                break
            dart = succ[end]
        eid = fresh("r")
        port_sub[start] = eid
        port_sub[end] = eid

    # closed chains entirely through markers become loops
    new_loops: list[str] = []
    for e in d.edges:
        if e in visited:
            continue
        dart = d.edge_ends[e][0]
        while (seg := segment_at(dart)) not in visited:
            visited.add(seg)
            dart = succ[d.alpha(dart)]
        new_loops.append(fresh("c"))

    final_nodes = []
    for nd in keep_nodes:
        r = snode_rot.get(nd.id, 0)
        # rotating by one puts the old (0,2)-strand on top at ports (1,3)
        ports = tuple(port_sub[(nd.id, (p - r) % 4)] for p in range(4))
        final_nodes.append(Node(nd.id, CROSSING, None, ports))

    loops = tuple(d.loops) + tuple(new_loops)
    out = Diagram(d.name, tuple(final_nodes), loops, ())
    rep = out.validate()
    if not rep.ok:
        raise ValueError(f"resolution produced invalid diagram: {rep}")
    return Resolution(out, sign, snode_rot)


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


def _rmoves():
    from .catalog import catalog_map

    cat = catalog_map("unoriented")
    return [cat["O1"], cat["O2"], cat["O3"]]


def _removes_crossings(m: MoveSpec) -> bool:
    """True when every variant of ``m``, applied in reverse, puts in fewer
    crossings than it takes out, so that every reverse site removes some."""
    def crossings(pat) -> int:
        return sum(nd.kind == CROSSING for nd in pat.nodes)

    return all(crossings(m.other_side(v, REVERSE)) < crossings(m.side(v, REVERSE))
               for v in range(len(m.variants)))


def _greedy_reduce(c: Diagram, moves) -> tuple[Diagram, tuple]:
    """Apply the first reverse site of the first crossing-removing move
    until none has one."""
    steps: tuple = ()
    cur = c
    while cur.counts[0] > 0:
        for m in moves:
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
    budget = budget or Budget()
    _require_classical(c, "reidemeister_simplify")
    moves = _rmoves()
    greedy = [m for m in moves if _removes_crossings(m)]
    start, presteps = _greedy_reduce(c, greedy)
    if start.counts[0] == 0:
        return start, MoveSequence(presteps)
    ceiling = c.counts[0] + budget.extra_crossings
    best = (start.counts[0], start, MoveSequence(presteps))
    seen = {start.canonical_code()}
    heap = [(start.counts[0], 0, start, presteps)]
    counter = 0
    states = 1
    while heap and states < budget.max_states:
        x, _, d, steps = heapq.heappop(heap)
        for m in moves:
            for direction in (REVERSE, FORWARD):
                for site in find_sites(d, m, direction):
                    if site.variant not in m._kept:
                        continue
                    nxt = apply_move(d, m, site)
                    if nxt.counts[0] > ceiling:
                        continue
                    code = nxt.canonical_code()
                    if code in seen:
                        continue
                    seen.add(code)
                    states += 1
                    # finish greedily from every new state
                    tail, tailsteps = _greedy_reduce(nxt, greedy)
                    step = MoveStep(m.id, site.variant, direction, code_digest(nxt))
                    nsteps = steps + (step,)
                    full = nsteps + tailsteps
                    nx = tail.counts[0]
                    if nx < best[0]:
                        best = (nx, tail, MoveSequence(full))
                    if nx == 0:
                        return tail, MoveSequence(full)
                    counter += 1
                    heapq.heappush(heap, (nxt.counts[0], counter, nxt, nsteps))
                    if states >= budget.max_states:
                        break
    return best[1], best[2]


def _fox3_count(c: Diagram) -> int:
    from .quandles import coloring_count, dihedral_quandle

    return coloring_count(c, dihedral_quandle(3))


def is_trivial_unlink(c: Diagram, budget: Optional[Budget] = None) -> TriState:
    """YES with a simplification trace, NO with an invariant obstruction,
    or UNKNOWN when the budget runs out."""
    budget = budget or Budget()
    _require_classical(c, "is_trivial_unlink")
    ncomp = len(classical_components(c))
    if c.counts[0] == 0:
        return TriState(YES, components=ncomp, trace=MoveSequence(()))
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
    simp, trace = reidemeister_simplify(c, budget)
    if simp.counts[0] == 0:
        return TriState(YES, components=ncomp, trace=trace)
    return TriState(UNKNOWN, components=ncomp)


def is_admissible(d: Diagram, budget: Optional[Budget] = None) -> dict:
    """Both resolutions must be trivial unlink diagrams."""
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
