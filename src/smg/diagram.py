"""Singular marked graph diagrams as combinatorial maps on the sphere.

A diagram is a 4-valent graph with a rotation system (counterclockwise port
order at every node), vertices decorated as classical crossings, markers or
singular points, plus a set of crossingless loop components.  Sphere embedding
is part of the data: each connected piece must satisfy Euler's formula for its
traced faces, and disconnected pieces carry face anchors saying where they sit
relative to the already placed pieces.

Port conventions
----------------
* crossing ``X``: the under-strand occupies ports 0 and 2, the over-strand
  ports 1 and 3;
* marker ``M`` with axis ``a``: the marker bar spans ports ``a`` and ``a+2``;
* singular ``S`` with side ``s``: the strand through ports ``(s, s+2)`` is the
  one passing over in the positive resolution.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional

CROSSING = "X"
MARKER = "M"
SINGULAR = "S"
KINDS = (CROSSING, MARKER, SINGULAR)

Dart = tuple[str, int]


class _cached:
    """A lazily computed attribute, kept in the instance ``__dict__`` under
    its own name: ``functools.cached_property`` without the class-wide lock
    it takes on every first read in Python 3.11.  Two threads that read a
    value at once may both compute it, and the last one stays.  ``__dict__``
    is written directly, so frozen dataclasses take it; ``replace()``
    drops the values and pickling keeps them."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class SMGError(ValueError):
    """Base class for diagram format errors."""


class SMGSyntaxError(SMGError):
    """A malformed text; ``line`` is None for formats without lines."""

    def __init__(self, message: str, line: Optional[int] = None, col: int = 0):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.col = col


class SMGSemanticError(SMGError):
    pass


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    attr: Optional[int]
    ports: tuple[str, str, str, str]


@dataclass(frozen=True)
class Issue:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class ValidationReport:
    def __init__(self, issues: Iterable[Issue]):
        self.issues = tuple(issues)

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok

    def __iter__(self) -> Iterator[Issue]:
        return iter(self.issues)

    def __str__(self) -> str:
        return "ok" if self.ok else "; ".join(map(str, self.issues))


class _Malformed(SMGSemanticError):
    """Structure that no face can be traced on; ``issues`` lists what
    :meth:`Diagram.validate` reports for it."""

    def __init__(self, issues: list[Issue]):
        super().__init__(str(ValidationReport(issues)))
        self.issues = issues


@dataclass(frozen=True)
class Diagram:
    """An immutable singular marked graph diagram.

    ``anchors`` maps piece ids (smallest node id of a graph piece, or the loop
    id) to either ``None``/absent (outer face) or a corner ``(node_id, k)``
    naming the face of an already placed piece the component sits in.
    """

    name: str
    nodes: tuple[Node, ...]
    loops: tuple[str, ...] = ()
    anchors: tuple[tuple[str, Optional[tuple[str, int]]], ...] = ()

    # -- basic structure -------------------------------------------------

    @_cached
    def node_map(self) -> dict[str, Node]:
        return {nd.id: nd for nd in self.nodes}

    def node(self, nid: str) -> Node:
        return self.node_map[nid]

    @_cached
    def edge_ends(self) -> dict[str, tuple[Dart, ...]]:
        ends: dict[str, list[Dart]] = {}
        for nd in self.nodes:
            for p, e in enumerate(nd.ports):
                ends.setdefault(e, []).append((nd.id, p))
        return {e: tuple(v) for e, v in ends.items()}

    @_cached
    def edges(self) -> tuple[str, ...]:
        return tuple(sorted(self.edge_ends))

    @_cached
    def anchor_map(self) -> dict[str, Optional[tuple[str, int]]]:
        return dict(self.anchors)

    def alpha(self, dart: Dart) -> Dart:
        """The other end of the edge carrying ``dart``."""
        nid, p = dart
        e = self.node(nid).ports[p]
        a, b = self.edge_ends[e]
        return b if a == dart else a

    @_cached
    def counts(self) -> tuple[int, int, int]:
        """(crossings, markers, singular vertices)."""
        kinds = [nd.kind for nd in self.nodes]
        return kinds.count(CROSSING), kinds.count(MARKER), kinds.count(SINGULAR)

    def is_classical(self) -> bool:
        return all(nd.kind == CROSSING for nd in self.nodes)

    # -- components -------------------------------------------------------

    @_cached
    def graph_pieces(self) -> tuple[frozenset[str], ...]:
        """Connected components of the node-bearing graph, in the order of
        their least node id."""
        return tuple(frozenset(nd.id for nd in nodes) for nodes, _, _ in self._darts)

    @_cached
    def piece_ids(self) -> tuple[str, ...]:
        return tuple(nodes[0].id for nodes, _, _ in self._darts) + self.loops

    # -- validation -------------------------------------------------------

    def validate(self) -> ValidationReport:
        try:
            darts = self._darts
        except _Malformed as exc:
            return ValidationReport(exc.issues)

        # Euler check, per connected piece: V - E + F = 2, where E = 2V
        # because every edge has its two ends.
        issues: list[Issue] = []
        for nodes, _, orbit in darts:
            v, f = len(nodes), len(set(orbit))
            e = 2 * v
            if v - e + f != 2:
                issues.append(
                    Issue("non-spherical embedding",
                          f"piece {nodes[0].id}: V-E+F = {v}-{e}+{f} = {v - e + f}"))

        known, placed = set(self.piece_ids), set()
        for pid, anchor in self.anchors:
            if pid not in known:
                issues.append(Issue("bad placement", f"unknown piece {pid}"))
            elif pid in placed:
                issues.append(Issue("bad placement", f"piece {pid} placed twice"))
            placed.add(pid)
            if anchor is not None:
                nid, k = anchor
                if nid not in self.node_map or not 0 <= k <= 3:
                    issues.append(Issue("bad placement", f"bad corner {anchor}"))
                elif any(nid in piece and pid == min(piece) for piece in self.graph_pieces):
                    issues.append(Issue("bad placement", f"piece {pid} anchored to itself"))
        return ValidationReport(issues)

    def _structure_issues(self, paired: bool) -> list[Issue]:
        """The issues that make face tracing unsafe: repeated ids, bad
        kinds or attributes, and, unless every edge is ``paired`` (has
        exactly two ends), the edges that are not, in order of appearance."""
        issues: list[Issue] = []
        ids = [nd.id for nd in self.nodes]
        if len(set(ids)) != len(ids):
            issues.append(Issue("duplicate id", "repeated node id"))
        if self.loops:
            if len(set(self.loops)) != len(self.loops):
                issues.append(Issue("duplicate id", "repeated loop id"))
            if set(ids) & set(self.loops):
                issues.append(Issue("duplicate id", "node id reused as loop id"))
        for nd in self.nodes:
            if (nd.kind, nd.attr) in _ROWS:
                continue
            if nd.kind not in KINDS:
                issues.append(Issue("bad kind", f"node {nd.id} kind {nd.kind!r}"))
            elif nd.kind == CROSSING:
                issues.append(Issue("bad attribute", f"crossing {nd.id} carries an attribute"))
            else:
                issues.append(Issue("bad attribute", f"node {nd.id} needs axis/side 0 or 1"))
        if not paired:
            for e, k in Counter(e for nd in self.nodes for e in nd.ports).items():
                if k == 1:
                    issues.append(Issue("unpaired edge", f"edge {e} has a single endpoint"))
                elif k > 2:
                    issues.append(Issue("port collision", f"edge {e} attached {k} times"))
        return issues

    @_cached
    def _darts(self) -> tuple[tuple[list[Node], list[int], list[int]], ...]:
        """:func:`_pieces` of the nodes sorted by id, whose darts one pass
        numbers, pairing the two ends of every edge.  Nothing here refers
        back to the diagram, which caches it.  On structure that orbits
        cannot be traced on, raises ``SMGSemanticError`` naming the issues
        (see :meth:`validate`)."""
        nodes = sorted(self.nodes, key=attrgetter("id"))
        ports = [e for nd in nodes for e in nd.ports]
        alpha, first = [-1] * len(ports), {}
        for x, e in enumerate(ports):
            y = first.setdefault(e, x)
            if y != x:
                alpha[x], alpha[y] = y, x
        # with as many edges as half the darts and no dart left unpaired,
        # every edge has exactly two ends
        issues = self._structure_issues(2 * len(first) == len(ports) and -1 not in alpha)
        if issues:
            raise _Malformed(issues)

        return tuple(_pieces(nodes, alpha))

    # -- canonical form ---------------------------------------------------

    #: piece id -> generators of the piece's automorphism group (see
    #: :func:`_canonise`).  ``_piece_canon`` sets it on a diagram only when
    #: some piece has an automorphism, so that the many asymmetric diagrams
    #: a search holds store nothing for it.  Nothing mutates it.
    _piece_gens = {}

    @_cached
    def _piece_canon(self) -> dict[str, tuple]:
        """piece id -> (signature, tuple of minimizing root darts)."""
        out, gens = {}, {}
        for nodes, alpha, _ in self._darts:
            best, roots, found = _canonise(_canon_table(nodes, alpha))
            out[nodes[0].id] = (best, tuple((nodes[r >> 2].id, r & 3) for r in roots))
            if found:
                gens[nodes[0].id] = found
        if gens:
            self.__dict__["_piece_gens"] = gens
        return out

    def _canonical_face_name(self, pid: str, darts: tuple[int, ...]) -> tuple:
        """Automorphism-invariant name of a face orbit of the piece ``pid``,
        given by its integer darts: the least over the piece's minimizing
        roots of the darts renumbered as the root's signature numbers them.

        Every minimizing root numbers the nodes as the first one does after
        an automorphism of the piece, so this is the least name the first
        root gives the face's images under the automorphisms; the
        generators ``_canonise`` found reach every image."""
        nodes, alpha, orbit = next(t for t in self._darts if t[0][0].id == pid)
        n, p = self._piece_canon[pid][1][0]
        i = next(i for i, nd in enumerate(nodes) if nd.id == n)
        _, labels, rots = _signature(_canon_table(nodes, alpha), 4 * i + p)
        members, gens = self.faces().orbits, self._piece_gens.get(pid, ())
        images, seen = [darts], {orbit[darts[0]]}
        for face in images:
            x = face[0]
            for img, shift in gens:
                o = orbit[4 * img[x >> 2] + (x + shift[x >> 2]) % 4]
                if o not in seen:
                    seen.add(o)
                    images.append(members[o])
        return min(tuple(sorted((labels[x >> 2], (x - rots[x >> 2]) % 4) for x in face))
                   for face in images)

    def canonical_code(self) -> bytes:
        """Byte string equal exactly for isomorphic decorated sphere maps."""
        return self._canonical_code

    @_cached
    def _canonical_code(self) -> bytes:
        # faces only name the places of anchored components: a search codes
        # many more diagrams than it expands, so the rest skip them
        faces = self.faces() if any(a is not None for _, a in self.anchors) else None
        # Anchors are resolved into piece-signature-relative face names.  A
        # corner on the host's outward orbit lies in the face the host sits
        # in, so it is named by the host's own place.
        def resolve(pid: str):
            anchor, seen = self.anchor_map.get(pid), {pid}
            while anchor is not None:
                host = faces.piece_of_corner(anchor)
                if host in seen or faces.orbit_of_corner_index(anchor) != faces.outward[host]:
                    return (self._piece_canon[host][0],
                            self._canonical_face_name(host, faces.orbit_of_corner(anchor)))
                seen.add(host)
                anchor = self.anchor_map.get(host)
            return "outer"

        return _code([(sig, resolve(pid)) for pid, (sig, _) in self._piece_canon.items()],
                     map(resolve, self.loops))

    # -- faces --------------------------------------------------------------

    def faces(self) -> "Faces":
        return self._faces

    @_cached
    def _faces(self) -> "Faces":
        return Faces(self)

    # -- orientations and colourings -----------------------------------------

    @_cached
    def _orientations(self) -> tuple:
        """The heads of the strict orientation of each choice of strand-class
        bits, in the order of ``StrandParity.assignments``, shared by every
        ``enumerate_orientations`` call."""
        sp = StrandParity(self.edge_ends, self.nodes)
        return tuple(map(sp.heads, sp.assignments()))

    @_cached
    def _flows_by_heads(self) -> dict:
        """heads -> ``OrientedDiagram._flows``, for every orientation of this
        diagram that was asked for them.  Plain data: an ``OrientedDiagram``
        here would refer back to this diagram in a cycle."""
        return {}

    @_cached
    def _colouring(self):
        """Colour classes and counting plan (``quandles._Colouring``),
        shared by every quandle and orientation."""
        from .quandles import _build_colouring

        return _build_colouring(self)

    # -- resolutions --------------------------------------------------------

    @_cached
    def _resolutions(self) -> dict:
        """sign -> (resolved diagram, singular rotations), filled by
        ``resolution.resolve``, which hands out copies of the rotations."""
        return {}

    @_cached
    def _tails(self) -> dict:
        """The family memo of greedy tails: per shape of a classical diagram
        (``resolution._shape``), the steps of ``resolution._greedy_reduce``
        that clear it, shared by every diagram that ``moves._splice``
        derives from this one.  Plain data, never a diagram."""
        return {}

    # -- strand components ---------------------------------------------------

    @_cached
    def _components(self) -> tuple:
        """Strand components of a classical diagram, read through
        ``resolution.classical_components``, which checks the diagram and
        hands out copies."""
        from .resolution import _build_components

        return _build_components(self)

    # -- rebuilding ---------------------------------------------------------

    def relabeled(self, node_map: dict[str, str], edge_map: dict[str, str],
                  loop_map: Optional[dict[str, str]] = None) -> "Diagram":
        loop_map = loop_map or {}
        nodes = tuple(
            Node(node_map.get(nd.id, nd.id), nd.kind, nd.attr,
                 tuple(edge_map.get(e, e) for e in nd.ports))
            for nd in self.nodes
        )
        loops = tuple(loop_map.get(l, l) for l in self.loops)
        anchors = []
        for pid, anchor in self.anchors:
            pid2 = loop_map.get(pid, node_map.get(pid, pid))
            if anchor is not None:
                anchor = (node_map.get(anchor[0], anchor[0]), anchor[1])
            anchors.append((pid2, anchor))
        return Diagram(self.name, nodes, loops, tuple(anchors))


def _require(x, cls: type, what: str) -> None:
    """SMGSemanticError naming ``what`` unless ``x`` is a ``cls``."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOUaeiou" else "a"
        raise SMGSemanticError(f"{what} needs {article} {cls.__name__}, not {type(x).__name__}")


def _require_count(x, what: str) -> None:
    """SMGSemanticError naming ``what`` unless ``x`` is an int, not a bool,
    of zero or more: a budget."""
    if isinstance(x, bool):
        raise SMGSemanticError(f"{what} needs an int, not bool")
    _require(x, int, what)
    if x < 0:
        raise SMGSemanticError(f"{what} needs an int of zero or more, not negative")


def _require_diagram(d, what: str) -> None:
    """``d`` is a ``Diagram`` whose faces can be traced: SMGSemanticError
    otherwise, naming the structural issues."""
    if not isinstance(d, Diagram):
        raise SMGSemanticError(f"{what} needs an unoriented Diagram, not {type(d).__name__}")
    d._darts    # raises on malformed structure


def _pieces(nodes: list, alpha: list[int]) -> list[tuple[list, list[int], list[int]]]:
    """Per connected piece of ``nodes`` with integer darts ``alpha`` (dart
    ``4*i + port`` of node ``i`` to the other end of its edge), in the order
    of its first node: its nodes, ``alpha`` renumbered on them, and the face
    orbit of every dart, a cycle of ``phi`` (cross the edge, then rotate one
    port), numbered across the pieces in the order of their smallest dart."""
    out, count, piece = [], 0, [-1] * len(nodes)
    for v in range(len(nodes)):
        if piece[v] >= 0:
            continue
        members, piece[v] = [v], v
        for u in members:       # grows as it is read
            for y in alpha[4 * u:4 * u + 4]:
                if piece[y >> 2] < 0:
                    piece[y >> 2] = v
                    members.append(y >> 2)
        if len(members) == len(nodes):
            local, mine = alpha, nodes
        else:
            members.sort()
            at = {u: i for i, u in enumerate(members)}
            local = [4 * at[y >> 2] + (y & 3) for u in members for y in alpha[4 * u:4 * u + 4]]
            mine = [nodes[u] for u in members]
        orbit = [-1] * len(local)
        for start in range(len(local)):
            if orbit[start] >= 0:
                continue
            x = start
            while orbit[x] < 0:
                orbit[x] = count
                y = local[x]
                x = y - 3 if y & 3 == 3 else y + 1
            count += 1
        out.append((mine, local, orbit))
    return out


def _code(pieces: Iterable[tuple], loops: Iterable) -> bytes:
    """The bytes of a canonical code: the (signature, place) of each piece
    and the place of each loop, sorted; "outer" sorts before every face
    name, so the two never meet in a comparison."""
    def key(place):
        return place != "outer", place

    return repr((sorted(pieces, key=lambda item: (item[0], key(item[1]))),
                 sorted(loops, key=key))).encode()


def _rows(kind: str, attr: Optional[int]) -> tuple[tuple, tuple]:
    """The ``enter`` and ``head`` entries of :func:`_canon_table` for the
    four ports of a node of ``kind`` and ``attr``."""
    enter = tuple(p - (p & 1) if kind == CROSSING else p for p in range(4))
    return enter, tuple((kind, None if attr is None else (attr - r) % 2) for r in enter)


#: (kind, attribute) -> :func:`_rows`, for every valid pair
_ROWS = {(k, a): _rows(k, a) for k, a in ((CROSSING, None), (MARKER, 0), (MARKER, 1),
                                          (SINGULAR, 0), (SINGULAR, 1))}


def _canon_table(nodes: list[Node], alpha: list[int]) -> tuple:
    """The table :func:`_signature` reads for a piece with nodes ``nodes``
    sorted by id and integer darts ``alpha``: ``(alpha, enter, head)``.

    A node entered at a dart is read from port ``enter[dart]``, the dart's
    port except that crossings turn only by 0 or 2, so that the
    under-strand stays on ports 0 and 2.  ``head[dart]`` is the node's kind
    and its attribute relative to that port, the first two entries of the
    node's signature row."""
    enter, head = [], []
    for nd in nodes:
        e, h = _ROWS[nd.kind, nd.attr]
        enter += e
        head += h
    return alpha, enter, head


def _signature(table: tuple, root: int, best: Optional[tuple] = None):
    """Breadth-first signature of a piece from the integer dart ``root``.

    Nodes are numbered in the order they are reached and read from the
    port they were entered at: one row per node, its ``head`` entries, then
    per port the number and relative port of the neighbour.  Returns
    ``(signature, labels, rots)`` with the number and the entry port of
    every node.

    With ``best``, a signature of the same piece, the rows are compared
    with its rows while the two agree: None as soon as one is greater,
    ``best`` itself when every row is equal.  Signatures of one piece have
    one row per node, so the first unequal row decides between them.
    """
    alpha, enter, head = table
    n = len(alpha) >> 2
    labels = [-1] * n
    rots = [0] * n
    v = root >> 2
    labels[v], rots[v] = 0, enter[root]
    order = [v]
    sig = []
    tight = best is not None
    for v in order:
        r = rots[v]
        base = 4 * v
        row = list(head[base + r])
        for p in range(r, r + 4):
            w = alpha[base + p % 4]
            m = w >> 2
            if labels[m] < 0:
                labels[m] = len(order)
                rots[m] = enter[w]
                order.append(m)
            row.append((labels[m], (w - rots[m]) % 4))
        row = tuple(row)
        if tight:
            b = best[len(sig)]
            if row != b:
                if row > b:
                    return None
                tight = False
        sig.append(row)
    return (best if tight else tuple(sig)), labels, rots


def _canonise(table: tuple) -> tuple:
    """``(signature, roots, generators)`` of a piece: its least signature,
    every integer root dart that reaches it in order, and automorphisms
    ``(img, shift)`` that generate the piece's automorphism group.

    A root's signature depends only on its state ``4*v + enter[root]``.  A
    root that ties the best one numbers the nodes as the best one does
    after an automorphism: node ``v`` goes to ``img[v]``, the node the tying
    root gives the best root's number of ``v``, turned by ``shift[v]`` ports,
    and state ``(v, e)`` to ``(img[v], (e + shift[v]) % 4)``.  Every state in
    the orbit of the best state under the generators found so far ties, so
    its roots join without a signature.  Only the identity fixes a state,
    because a numbering is fixed by its root; so each new generator at
    least doubles the orbit, there are at most log2(4n) of them, and the
    orbit ends as exactly the tying states.  A state that lost also loses
    against every later best, which is only smaller, and so does every
    state in its orbit under the generators found so far, whose signatures
    are its own: all are marked lost, as the tying states are when a new
    best beats them, and a later root in a lost state skips the signature.

    A signature's first row starts with its root's ``head``, so only roots
    with the least ``head`` of the piece can reach the least signature;
    automorphisms keep ``head``, so the others are never tried."""
    alpha, enter, head = table
    least = min(head)
    best, roots, gens, orbit = None, [], [], []
    tied = bytearray(len(alpha))    # 1: ties the best, 2: lost
    for root in range(len(alpha)):
        state = root - (root & 3) + enter[root]
        if head[root] != least or tied[state] == 2:
            continue
        if not tied[state]:
            got = _signature(table, root, best)
            if got is None:
                tied[state] = 2
                _close([state], gens, tied, 2)
                continue
            sig, labels, rots = got
            if sig is not best:
                for s in orbit:
                    tied[s] = 2
                best, roots, gens, orbit = sig, [], [], [state]
                tied[state] = 1
                best_labels, best_rots = labels, rots
            else:
                order = [0] * len(labels)
                for v, i in enumerate(labels):
                    order[i] = v
                img = [order[i] for i in best_labels]
                gens.append((img, [(rots[w] - r) % 4 for w, r in zip(img, best_rots)]))
                _close(orbit, gens, tied, 1)
        roots.append(root)
    return best, roots, gens


def _close(states: list, gens: list, tied: bytearray, mark: int) -> None:
    """Extend ``states``, marked ``mark`` in ``tied``, to their orbit under
    the automorphisms ``gens`` (see :func:`_canonise`), marking each state
    added; states already marked are not entered."""
    for s in states:    # grows as it is read
        v, e = s >> 2, s & 3
        for to, turn in gens:
            t = 4 * to[v] + (e + turn[v]) % 4
            if not tied[t]:
                tied[t] = mark
                states.append(t)


def _fresh_ids(taken: set[str]) -> Callable[[str], str]:
    """``fresh(prefix)``: the smallest id ``{prefix}<i>`` not in ``taken``,
    which it then joins.  ``taken`` only grows, so each prefix keeps a
    counter that only moves forward, and a run of calls costs linear time."""
    start: dict[str, int] = {}

    def fresh(prefix: str) -> str:
        i = start.get(prefix, 0)
        while (name := f"{prefix}{i}") in taken:
            i += 1
        start[prefix] = i + 1
        taken.add(name)
        return name

    return fresh


class UnionFind:
    """Iterative union-find over a fixed set of hashable items, with an
    optional parity bit relating each item to its class root.

    ``union(a, b)`` makes the root of ``b``'s class the root of the merged
    class: callers order generators and colour classes by root, so the
    direction is part of their output.
    """

    def __init__(self, items: Iterable):
        self._parent = {x: x for x in items}
        self._parity = dict.fromkeys(self._parent, 0)

    def find(self, x):
        parent = self._parent
        up = parent[x]
        if parent[up] == up:  # x is a root or a child of one
            return up
        parity = self._parity
        root, acc = x, 0
        while parent[root] != root:
            acc ^= parity[root]
            root = parent[root]
        # point the whole path at the root; acc is x's parity to the root
        while x != root:
            nxt, step = parent[x], parity[x]
            parent[x], parity[x] = root, acc
            acc ^= step
            x = nxt
        return root

    def parity(self, x) -> int:
        """Parity of ``x`` relative to its class root."""
        self.find(x)
        return self._parity[x]

    def union(self, a, b, rel: int = 0) -> bool:
        """Relate ``a`` and ``b`` with parity ``rel``; False when they are
        already related with the other parity."""
        ra, rb = self.find(a), self.find(b)
        pa, pb = self._parity[a], self._parity[b]
        if ra == rb:
            return pa ^ pb == rel
        self._parent[ra] = rb
        self._parity[ra] = pa ^ pb ^ rel
        return True


class Faces:
    """Face structure of the assembled (placed) diagram.

    Faces of each graph piece are the orbits of the permutation
    ``dart -> rotate(cross(dart))``; placement merges one face per piece into
    the face it is anchored to (the common outer face by default).  Loops are
    treated as transparent markers sitting inside a face: they do not split
    it.
    """

    def __init__(self, d: Diagram):
        # No reference back to ``d``: ``d`` caches its Faces, and the cycle
        # would keep every diagram a search drops alive until the cyclic
        # garbage collector happens to run.
        #: per orbit, its integer darts within its piece (``Diagram._darts``)
        self.orbits: list[tuple[int, ...]] = []
        self._piece_of: list[str] = []
        self._orbit_of: list[int] = []      # every piece's dart orbits in turn
        self._first: dict[str, int] = {}    # node id -> its port 0 in _orbit_of
        for nodes, _, orbit in d._darts:
            for i, nd in enumerate(nodes):
                self._first[nd.id] = len(self._orbit_of) + 4 * i
            self._orbit_of += orbit
            darts: dict[int, list[int]] = {}
            for x, o in enumerate(orbit):
                darts.setdefault(o, []).append(x)
            self.orbits += map(tuple, darts.values())
            self._piece_of += [nodes[0].id] * len(darts)
        # Union-find over orbit ids plus the virtual outer face (-1); a
        # face is named by the root of its class.
        uf = UnionFind(range(-1, len(self.orbits)))
        anchor_map = d.anchor_map
        #: piece id -> its outward orbit, the one merged into its place
        self.outward = {pid: min(self.orbit_of_dart(r) for r in roots)
                        for pid, (_, roots) in d._piece_canon.items()}
        for pid, outward in self.outward.items():
            uf.union(outward, self._anchor_face(anchor_map.get(pid)))
        # the outer sentinel's face last, so that index -1 reads it
        self._face = [uf.find(i) for i in range(len(self.orbits))] + [uf.find(-1)]
        self._merged = Counter(self._face[:-1])     # face -> number of its orbits
        self._loop_face = {l: self._face[self._anchor_face(anchor_map.get(l))] for l in d.loops}

    def _anchor_face(self, anchor: Optional[tuple[str, int]]) -> int:
        return -1 if anchor is None else self.orbit_of_corner_index(anchor)

    def orbit_of_dart(self, dart: Dart) -> int:
        n, p = dart
        return self._orbit_of[self._first[n] + p]

    # corner (n, k) names the face between ports k and k+1 of node n
    def orbit_of_corner_index(self, corner: tuple[str, int]) -> int:
        n, k = corner
        return self._orbit_of[self._first[n] + (k + 1) % 4]

    def orbit_of_corner(self, corner: tuple[str, int]) -> tuple[int, ...]:
        return self.orbits[self.orbit_of_corner_index(corner)]

    def piece_of_corner(self, corner: tuple[str, int]) -> str:
        return self._piece_of[self.orbit_of_corner_index(corner)]

    def face_of_corner(self, corner: tuple[str, int]) -> int:
        return self._face[self.orbit_of_corner_index(corner)]

    def face_of_dart(self, dart: Dart) -> int:
        n, p = dart
        return self._face[self._orbit_of[self._first[n] + p]]

    def face_of_loop(self, loop: str) -> int:
        return self._loop_face[loop]

    def orbit_degree(self, orbit_index: int) -> int:
        return len(self.orbits[orbit_index])

    def face_is_plain_orbit(self, orbit_index: int) -> bool:
        """True when nothing else lives in this orbit's face: no other
        piece's face was merged into it and no loop sits inside.  The outer
        sentinel alone is an empty alias and does not count."""
        face = self._face[orbit_index]
        return self._merged[face] == 1 and face not in self._loop_face.values()


# ---------------------------------------------------------------------------
# orientations


def _ties(node: Node, abstract: bool) -> tuple[tuple[int, int], ...]:
    """The port pairs at ``node`` that flow one in and one out: straight
    through crossings and singular vertices; around a marker, alternating,
    or, in an abstract orientation, along the negative smoothing."""
    if node.kind != MARKER:
        return ((0, 2), (1, 3))
    if abstract:
        from .resolution import NEGATIVE, smoothing_pairs

        return smoothing_pairs(node.attr, NEGATIVE)
    return ((0, 1), (1, 2), (2, 3))


def _port_classes(d: Diagram, pairs: Callable[[Node], Iterable[tuple[int, int]]]
                  ) -> dict[str, int]:
    """Each edge and then each loop of ``d`` mapped to its class when every
    node joins the edges at the port pairs ``pairs(node)``, in node order;
    classes are numbered in the sorted order of their union-find roots."""
    items = list(d.edges) + list(d.loops)
    uf = UnionFind(items)
    for nd in d.nodes:
        for p, q in pairs(nd):
            uf.union(nd.ports[p], nd.ports[q])
    index = {r: i for i, r in enumerate(sorted({uf.find(x) for x in items}))}
    return {x: index[uf.find(x)] for x in items}


@dataclass(frozen=True)
class OrientedDiagram:
    """Diagram plus a direction on every edge and loop.

    ``heads`` lists, per edge, the endpoint the edge flows into.  Flow
    passes straight through crossings and singular vertices.  Around
    markers it alternates in/out, unless ``abstract``: an abstract
    orientation is one of the negative resolution, so at a marker it
    follows the negative smoothing.
    """

    base: Diagram
    heads: tuple[tuple[str, Dart], ...]
    loop_dirs: tuple[tuple[str, int], ...] = ()
    abstract: bool = False

    @_cached
    def head_map(self) -> dict[str, Dart]:
        return dict(self.heads)

    @_cached
    def _flows(self) -> dict[str, tuple[int, int, int]]:
        """Per classical crossing, its (incoming under port, incoming over
        port, sign).  The sign is +1 when the over-strand comes in one port
        counterclockwise after the under-strand.  Computed once per diagram
        and heads."""
        known = self.base._flows_by_heads
        flows = known.get(self.heads)
        if flows is None:
            head_map, flows = self.head_map, {}
            for nd in self.base.nodes:
                if nd.kind == CROSSING:
                    pu = 0 if head_map[nd.ports[0]] == (nd.id, 0) else 2
                    po = 1 if head_map[nd.ports[1]] == (nd.id, 1) else 3
                    flows[nd.id] = (pu, po, 1 if po == (pu + 1) % 4 else -1)
            known[self.heads] = flows
        return flows

    def flows_in(self, dart: Dart) -> bool:
        nid, p = dart
        e = self.base.node(nid).ports[p]
        return self.head_map[e] == dart

    def validate(self) -> ValidationReport:
        issues = list(self.base.validate().issues)
        if set(self.head_map) != set(self.base.edges):
            issues.append(Issue("bad orientation", "orientation misses edges"))
            return ValidationReport(issues)
        for e, head in self.heads:
            if head not in self.base.edge_ends[e]:
                issues.append(Issue("bad orientation", f"edge {e} head {head} not an endpoint"))
        if dict(self.loop_dirs).keys() != set(self.base.loops):
            issues.append(Issue("bad orientation", "orientation misses loops"))
        for nd in self.base.nodes:
            if all(self.flows_in((nd.id, p)) != self.flows_in((nd.id, q))
                   for p, q in _ties(nd, self.abstract)):
                continue
            if nd.kind != MARKER:
                msg = f"no through-flow at {nd.id}"
            elif self.abstract:
                msg = f"marker {nd.id} not along its negative smoothing"
            else:
                msg = f"marker {nd.id} not alternating"
            issues.append(Issue("bad orientation", msg))
        return ValidationReport(issues)


class StrandParity:
    """Strand orientations of a 4-valent map as parity classes of darts.

    A dart's inflow flag says whether its edge flows into the node there.
    The two ends of an edge have opposite flags, and so do the port pairs
    that :func:`_ties` gives at each node, strict or ``abstract``.  These
    ties split the darts into classes in which one bit fixes every flag:
    ``flag = bits[root] ^ parity``.  ``classes`` lists the class roots in
    sorted order, or is None when the ties contradict each other.
    ``edge_ends`` maps each edge to its two end darts; every dart is the end
    of one edge.
    """

    def __init__(self, edge_ends: dict[str, tuple], nodes: Iterable[Node],
                 abstract: bool = False):
        self.edge_ends = edge_ends
        self.edges = sorted(edge_ends)
        darts = [x for ends in edge_ends.values() for x in ends]
        ties = list(edge_ends.values())
        for nd in nodes:
            ties += [((nd.id, p), (nd.id, q)) for p, q in _ties(nd, abstract)]
        self.uf = uf = UnionFind(darts)
        ok = all(uf.union(a, b, 1) for a, b in ties)
        self.classes = sorted({uf.find(x) for x in darts}) if ok else None

    def assignments(self) -> Iterator[dict]:
        """Every choice of class bits, counting up: bit i of the count is
        the bit of ``classes[i]``.  Nothing when the ties contradict."""
        if self.classes is None:
            return
        for n in range(1 << len(self.classes)):
            yield {root: (n >> i) & 1 for i, root in enumerate(self.classes)}

    def pinned(self, pins: Iterable[tuple[Dart, int]]) -> Optional[dict]:
        """The first assignment, in the order of :meth:`assignments`, that
        gives each pinned dart its flag: free classes get bit 0.  None when
        two pins contradict each other or the ties do."""
        if self.classes is None:
            return None
        uf = self.uf
        fixed: dict = {}
        for dart, flag in pins:
            want = flag ^ uf.parity(dart)
            if fixed.setdefault(uf.find(dart), want) != want:
                return None
        return {root: fixed.get(root, 0) for root in self.classes}

    def heads(self, bits: dict) -> tuple[tuple[str, Dart], ...]:
        """Per edge, in sorted order, the end it flows into under ``bits``."""
        find, parity = self.uf.find, self.uf.parity
        out = []
        for e in self.edges:
            a, b = self.edge_ends[e]
            out.append((e, a if bits[find(a)] ^ parity(a) else b))
        return tuple(out)


def enumerate_orientations(d: Diagram) -> list[OrientedDiagram]:
    """All strict orientations of ``d``, each exactly once.

    The inflow flags of the four darts at a node are tied together by parity
    constraints, so the answer is always empty or of size ``2**k``.
    """
    _require_diagram(d, "enumerate_orientations")
    loops = d.loops
    dirs = [tuple((l, (lbits >> i) & 1) for i, l in enumerate(loops))
            for lbits in range(1 << len(loops))]
    return [OrientedDiagram(d, heads, loop_dirs)
            for heads in d._orientations for loop_dirs in dirs]


def _first_orientation(d: Diagram) -> Optional[OrientedDiagram]:
    """``enumerate_orientations(d)[0]`` without listing the others: every
    class bit and every loop direction 0.  None when there is none."""
    sp = StrandParity(d.edge_ends, d.nodes)
    bits = sp.pinned(())
    if bits is None:
        return None
    return OrientedDiagram(d, sp.heads(bits), tuple((l, 0) for l in d.loops))


def _strand(d: Diagram, start: str, head: Dart) -> Iterator[tuple[str, Dart]]:
    """Walk the strand of edge ``start`` from its end ``head`` straight
    through every node: yields each edge with the dart it flows into, until
    ``start`` comes round again."""
    e = start
    while True:
        yield e, head
        nid, p = head
        out = (nid, (p + 2) % 4)
        e = d.node(nid).ports[out[1]]
        if e == start:
            return
        a, b = d.edge_ends[e]
        head = b if a == out else a


# ---------------------------------------------------------------------------
# SMG text format

_ID = re.compile(r"^[A-Za-z0-9_.\-]+$")
_END = re.compile(r"([A-Za-z0-9_.\-]+)\.([0-3])")


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each line of a text format that is not blank once its ``#`` comment
    is cut off: its number, from 1, and its tokens."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def _check_id(tok: str, lineno: int) -> str:
    if not _ID.match(tok):
        raise SMGSyntaxError(f"bad identifier {tok!r}", lineno)
    return tok


def _target(tok: str, what: str, lineno: int) -> Dart:
    """The node end ``node.port`` that a ``place`` or ``orient`` line
    names in ``tok``; SMGSyntaxError ``bad <what>`` if it names none."""
    m = _END.fullmatch(tok)
    if not m:
        raise SMGSyntaxError(f"bad {what}", lineno)
    return m.group(1), int(m.group(2))


def _read_node(toks: list[str], lineno: int) -> Node:
    """The node of a ``node`` line split into ``toks``."""
    if len(toks) < 3:
        raise SMGSyntaxError("truncated 'node' line", lineno)
    nid = _check_id(toks[1], lineno)
    kind = toks[2]
    if kind == "X":
        if len(toks) != 7:
            raise SMGSyntaxError("crossing needs 4 edges", lineno)
        attr, ports = None, toks[3:7]
    elif kind in ("M", "S"):
        if len(toks) != 8:
            raise SMGSyntaxError(f"{kind}-node needs attr and 4 edges", lineno)
        if toks[3] not in ("0", "1"):
            raise SMGSemanticError(f"line {lineno}: bad axis/side {toks[3]!r}")
        attr, ports = int(toks[3]), toks[4:8]
    else:
        raise SMGSyntaxError(f"unknown node kind {kind!r}", lineno)
    return Node(nid, kind, attr, tuple(_check_id(t, lineno) for t in ports))


def parse_smg(text: str, *, allow_invalid: bool = False):
    """Parse the SMG format; returns a Diagram or, with an orient block,
    an OrientedDiagram."""
    _require(text, str, "parse_smg")
    name = None
    nodes: list[Node] = []
    loops: list[str] = []
    anchors: list[tuple[str, Optional[tuple[str, int]]]] = []
    orient_edges: dict[str, Dart] = {}
    orient_loops: dict[str, int] = {}
    saw_orient = False
    ended = False

    for lineno, toks in _lines(text):
        if ended:
            raise SMGSyntaxError("content after 'end'", lineno)
        kw = toks[0]
        if kw == "diagram":
            if name is not None or len(toks) != 2:
                raise SMGSyntaxError("bad 'diagram' line", lineno)
            name = _check_id(toks[1], lineno)
        elif kw == "node":
            if name is None:
                raise SMGSyntaxError("'node' before 'diagram'", lineno)
            nodes.append(_read_node(toks, lineno))
        elif kw == "loop":
            if len(toks) != 2:
                raise SMGSyntaxError("bad 'loop' line", lineno)
            loops.append(_check_id(toks[1], lineno))
        elif kw == "place":
            if len(toks) != 4 or toks[2] != "in":
                raise SMGSyntaxError("bad 'place' line", lineno)
            pid = _check_id(toks[1], lineno)
            anchors.append((pid, _target(toks[3], "'place' target", lineno)))
        elif kw == "orient":
            saw_orient = True
            if len(toks) == 3 and toks[2] in ("+", "-"):
                orient_loops[_check_id(toks[1], lineno)] = 0 if toks[2] == "+" else 1
                continue
            if len(toks) != 5 or toks[3] != "->":
                raise SMGSyntaxError("bad 'orient' line", lineno)
            e = _check_id(toks[1], lineno)
            orient_edges[e] = _target(toks[4], "'orient' head", lineno)
        elif kw == "end":
            ended = True
        else:
            raise SMGSyntaxError(f"unknown keyword {kw!r}", lineno)

    if name is None:
        raise SMGSyntaxError("missing 'diagram' line", 1)
    if not ended:
        raise SMGSyntaxError("missing 'end'", len(text.splitlines()) or 1)

    d = Diagram(name, tuple(nodes), tuple(loops), tuple(anchors))
    if not allow_invalid and not (report := d.validate()).ok:
        raise SMGSemanticError(str(report))
    if not saw_orient:
        return d
    for l in d.loops:
        orient_loops.setdefault(l, 0)
    od = OrientedDiagram(d, tuple(sorted(orient_edges.items())),
                         tuple(sorted(orient_loops.items())))
    if not allow_invalid and not (report := od.validate()).ok:
        raise SMGSemanticError(str(report))
    return od


def serialize(d) -> str:
    """Inverse of :func:`parse_smg` up to isomorphism."""
    od = None
    if isinstance(d, OrientedDiagram):
        d, od = d.base, d
    _require(d, Diagram, "serialize")
    lines = [f"diagram {d.name}"]
    for nd in sorted(d.nodes, key=lambda n: n.id):
        if nd.kind == "X":
            lines.append(f"node {nd.id} X " + " ".join(nd.ports))
        else:
            lines.append(f"node {nd.id} {nd.kind} {nd.attr} " + " ".join(nd.ports))
    for l in d.loops:
        lines.append(f"loop {l}")
    for pid, anchor in d.anchors:
        if anchor is not None:
            lines.append(f"place {pid} in {anchor[0]}.{anchor[1]}")
    if od is not None:
        for e, (n, p) in od.heads:
            tail = [x for x in d.edge_ends[e] if x != (n, p)]
            src = tail[0] if tail else d.edge_ends[e][0]
            lines.append(f"orient {e} {src[0]}.{src[1]} -> {n}.{p}")
        for l, b in od.loop_dirs:
            lines.append(f"orient {l} {'+' if b == 0 else '-'}")
    lines.append("end")
    return "\n".join(lines) + "\n"
