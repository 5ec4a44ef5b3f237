"""Local rewrite engine for diagram moves.

A move is a pair of pattern fragments with numbered boundary legs.  Fragments
are written in the SMG grammar extended with ``leg <k> <edge>`` stubs; leg
numbers give the counterclockwise order of the cut points around the disk the
move is performed in.  Matching embeds a fragment into a host diagram
injectively, preserving rotation, decorations and face structure; application
cuts the matched disk out and sews the other side in along the same legs, by
the one splice (:func:`_splice`) that the resolutions and transforms use too.
The search's splice on integer darts (:func:`_rewrite_pieces`) reads a site's
legs by the same rule (:func:`_legs`) and walks strands by the same walk
(:func:`_strand`).  The bounded searches take their sites from one walk
(:func:`_rewrites`), and the equivalence search and the replay code by one
coder (:func:`_coded`).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Optional

from .diagram import (
    CROSSING,
    KINDS,
    MARKER,
    SINGULAR,
    Diagram,
    Faces,
    Node,
    OrientedDiagram,
    SMGError,
    SMGSemanticError,
    SMGSyntaxError,
    StrandParity,
    _cached,
    _canon_table,
    _canonise,
    _code,
    _fresh_ids,
    _lines,
    _pieces,
    _read_node,
    _require,
    _require_count,
    _target,
)

HUB = "#"

FORWARD = "forward"
REVERSE = "reverse"


class StaleSiteError(ValueError):
    pass


# ---------------------------------------------------------------------------
# patterns


@dataclass(frozen=True)
class Pattern:
    """A diagram fragment with boundary legs, living in a disk.

    ``heads`` optionally orients each edge: the value is the end the edge
    flows into, a node end ``(node_id, port)`` or the hub end of a leg
    (:meth:`hub_dart_of_leg`).  ``HUB`` is no node id, so a leg's end never
    equals a node's.
    """

    nodes: tuple[Node, ...]
    legs: tuple[str, ...]                        # legs[k-1] = edge id of leg k
    heads: tuple[tuple[str, object], ...] = ()

    @_cached
    def node_map(self) -> dict[str, Node]:
        return {nd.id: nd for nd in self.nodes}

    @property
    def K(self) -> int:
        return len(self.legs)

    @_cached
    def edge_ends(self) -> dict[str, tuple]:
        """Both ends of every edge; hub ends are ``(HUB, t)``, legs attached
        to the hub in clockwise order so the closed pattern is a sphere map."""
        ends: dict[str, list] = {}
        for nd in self.nodes:
            for p, e in enumerate(nd.ports):
                ends.setdefault(e, []).append((nd.id, p))
        for k, e in enumerate(self.legs, start=1):
            ends.setdefault(e, []).append((HUB, self.K - k))
        bad = [e for e, v in ends.items() if len(v) != 2]
        if bad:
            raise SMGSemanticError(f"pattern edge(s) {bad} not used exactly twice")
        return {e: tuple(v) for e, v in ends.items()}

    @_cached
    def interior_edges(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, ends in self.edge_ends.items()
                            if all(x[0] != HUB for x in ends)))

    @_cached
    def through_edges(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, ends in self.edge_ends.items()
                            if all(x[0] == HUB for x in ends)))

    def hub_dart_of_leg(self, k: int):
        return (HUB, self.K - k)

    def leg_of_hub_dart(self, dart) -> int:
        return self.K - dart[1]

    def alpha(self, dart):
        nid, p = dart
        e = self.legs[self.K - 1 - p] if nid == HUB else self.node_map[nid].ports[p]
        a, b = self.edge_ends[e]
        return b if a == dart else a

    def phi(self, dart):
        nid, p = self.alpha(dart)
        if nid == HUB:
            return (HUB, (p + 1) % self.K)
        return (nid, (p + 1) % 4)

    @_cached
    def faces(self) -> tuple[frozenset, ...]:
        all_darts = [(nd.id, p) for nd in self.nodes for p in range(4)]
        all_darts += [(HUB, t) for t in range(self.K)]
        seen, out = set(), []
        for d in all_darts:
            if d in seen:
                continue
            face, cur = [], d
            while cur not in seen:
                seen.add(cur)
                face.append(cur)
                cur = self.phi(cur)
            out.append(frozenset(face))
        return tuple(out)

    def check(self) -> None:
        """A fragment plus its boundary hub must be a sphere map, and either
        one connected node component or bare strands (the matcher's two
        shapes); each head must be an end of its edge."""
        v = len(self.nodes) + (1 if self.K else 0)
        e = len(self.edge_ends)
        f = len(self.faces)
        if v - e + f != 2:
            raise SMGSemanticError(f"pattern is not a disk fragment: V-E+F = {v - e + f}")
        for edge, h in self.heads:
            if h not in self.edge_ends.get(edge, ()):
                shown = ("leg", self.leg_of_hub_dart(h)) if h[0] == HUB else h
                raise SMGSemanticError(f"pattern edge {edge} has no end {shown}")
        for nd in self.nodes:
            if nd.kind in (MARKER, SINGULAR) and nd.attr not in (0, 1):
                raise SMGSemanticError(f"pattern node {nd.id}: bad attribute")
            if nd.kind == CROSSING and nd.attr is not None:
                raise SMGSemanticError(f"pattern crossing {nd.id} carries an attribute")
        if not self.nodes:
            return
        if self.through_edges:
            raise SMGSemanticError("pattern mixes nodes with a bare strand")
        reached, stack = set(), [self.nodes[0].id]
        while stack:
            cur = stack.pop()
            if cur not in reached:
                reached.add(cur)
                stack += (m for m, _ in map(self.alpha, ((cur, p) for p in range(4)))
                          if m != HUB)
        if len(reached) != len(self.nodes):
            raise SMGSemanticError("pattern has more than one node component")

    @_cached
    def _paste(self) -> tuple:
        """The pattern's nodes on integer darts ``4*i + port``, ``i`` the
        node's index in ``nodes``: ``alpha`` on the interior edges, -1 at a
        leg's port, and per leg the far end of its edge, a dart or ``~j``
        for ``legs[j]`` at the other end of a bare strand."""
        at = {nd.id: 4 * i for i, nd in enumerate(self.nodes)}
        alpha = [-1] * (4 * len(self.nodes))
        for nd in self.nodes:
            for p in range(4):
                m, q = self.alpha((nd.id, p))
                if m != HUB:
                    alpha[at[nd.id] + p] = at[m] + q
        ends = (self.alpha(self.hub_dart_of_leg(k)) for k in range(1, self.K + 1))
        return alpha, tuple(~(self.leg_of_hub_dart(x) - 1) if x[0] == HUB else at[x[0]] + x[1]
                            for x in ends)

    @_cached
    def head_map(self) -> dict[str, object]:
        return dict(self.heads)

    def boundary_profile(self) -> Optional[tuple[int, ...]]:
        """Per leg, +1 when the strand flows out of the disk there, else -1.
        None for unoriented patterns."""
        if not self.heads:
            return None
        prof = []
        for k, e in enumerate(self.legs, start=1):
            prof.append(+1 if self.head_map.get(e) == self.hub_dart_of_leg(k) else -1)
        return tuple(prof)


def parse_pattern(text: str) -> Pattern:
    """Parse one fragment: node lines plus ``leg k e`` and optional
    ``orient e <n.p | leg k>`` lines."""
    nodes: list[Node] = []
    legs: dict[int, str] = {}
    heads: list[tuple[str, object]] = []    # a leg's head by its number, until K is known
    for lineno, toks in _lines(text):
        kw = toks[0]
        if kw in ("diagram", "end"):
            continue
        if kw == "node":
            nodes.append(_read_node(toks, lineno))
        elif kw == "leg":
            if len(toks) != 3 or not toks[1].isdecimal():
                raise SMGSyntaxError("bad 'leg' line", lineno)
            legs[int(toks[1])] = toks[2]
        elif kw == "orient" and len(toks) == 4 and toks[2] == "leg" and toks[3].isdecimal():
            heads.append((toks[1], int(toks[3])))
        elif kw == "orient":
            if len(toks) != 3:
                raise SMGSyntaxError("bad orient target", lineno)
            heads.append((toks[1], _target(toks[2], "orient target", lineno)))
        else:
            raise SMGSyntaxError(f"unknown pattern keyword {kw!r}", lineno)
    if sorted(legs) != list(range(1, len(legs) + 1)):
        raise SMGSyntaxError("legs must be numbered 1..K", 1)
    pat = Pattern(tuple(nodes), tuple(legs[k] for k in sorted(legs)),
                  tuple((e, (HUB, len(legs) - h) if isinstance(h, int) else h) for e, h in heads))
    pat.check()
    return pat


@dataclass(frozen=True)
class MoveSpec:
    """A local rewrite rule; ``variants`` are interchangeable concrete
    picture pairs (for instance the two chiralities of a kink)."""

    id: str
    variants: tuple[tuple[Pattern, Pattern], ...]
    derived: bool = False
    oriented: bool = False
    deltas: tuple[int, int, int, int] = (0, 0, 0, 0)  # markers, singular, c(L-), c(L+)

    def side(self, variant: int, direction: str) -> Pattern:
        if direction not in (FORWARD, REVERSE):
            raise SMGSemanticError(f"direction {direction!r} is neither {FORWARD} nor {REVERSE}")
        return self.variants[variant][direction == REVERSE]

    def other_side(self, variant: int, direction: str) -> Pattern:
        return self.variants[variant][direction == FORWARD]

    @_cached
    def _kept(self) -> tuple[int, ...]:
        """The variants a search expands: all but those covered by an
        earlier one (``catalog._covers``), whose sites give the same results."""
        from .catalog import _covers    # catalog imports this module

        skip = {b for _, b, _ in _covers(self.variants)}
        return tuple(v for v in range(len(self.variants)) if v not in skip)

    @_cached
    def _searched(self) -> MoveSpec:
        """This move with only its ``_kept`` variants, in order, which the
        searches match and apply: variant ``v`` of one of its sites is
        variant ``self._kept[v]`` here.  ``self`` when no variant is covered."""
        if len(self._kept) == len(self.variants):
            return self
        return replace(self, variants=tuple(self.variants[v] for v in self._kept))

    @_cached
    def _kind_delta(self) -> dict[tuple[int, str], tuple[int, ...]]:
        """Per (variant, direction), what a rewrite adds to its host's
        ``Diagram.counts``: the other side's node kinds less this side's."""
        def count(pat: Pattern, kind: str) -> int:
            return sum(nd.kind == kind for nd in pat.nodes)

        return {(v, dr): tuple(count(self.other_side(v, dr), k) - count(self.side(v, dr), k)
                               for k in KINDS)
                for v in range(len(self.variants)) for dr in (FORWARD, REVERSE)}


# ---------------------------------------------------------------------------
# matching

LegTarget = tuple  # ("edge", edge_id, end_index) | ("loop", loop_id, slot)


@dataclass(frozen=True)
class Site:
    """An embedding of one side of a move into a host diagram."""

    move_id: str
    variant: int
    direction: str
    node_images: tuple[tuple[str, tuple[str, int]], ...]  # pat node -> (host, rot)
    leg_targets: tuple[LegTarget, ...]

    @_cached
    def node_image_map(self) -> dict[str, tuple[str, int]]:
        return dict(self.node_images)


#: the step kinds of a matching program (:func:`_matcher`)
_LEG, _CYCLE, _TREE = range(3)


@lru_cache(maxsize=None)
def _matcher(pat: Pattern) -> tuple:
    """Compile a connected node pattern into ``(order, steps)``.

    ``order`` lists the pattern's node ids as a depth-first walk from the
    least one places them, and ``steps`` that walk's first crossing of each
    edge, ``(kind, i, p, x, q)``, leaving node ``order[i]`` by port ``p``:
    a ``_LEG`` step cuts leg edge ``x``, a ``_CYCLE`` step reaches port
    ``q`` of the placed node ``order[x]``, and a ``_TREE`` step places the
    next node, the pattern node ``x``, reached at its port ``q``."""
    order, steps, seen = [min(pat.node_map)], [], set()
    index = {order[0]: 0}
    stack = [order[0]]
    while stack:
        cur = stack.pop()
        for p, e in enumerate(pat.node_map[cur].ports):
            if e in seen:
                continue
            seen.add(e)
            m, q = pat.alpha((cur, p))
            if m == HUB:
                steps.append((_LEG, index[cur], p, e, None))
            elif m in index:
                steps.append((_CYCLE, index[cur], p, index[m], q))
            else:
                index[m] = len(order)
                order.append(m)
                steps.append((_TREE, index[cur], p, pat.node_map[m], q))
                stack.append(m)
    return tuple(order), tuple(steps)


def _match_component(d: Diagram, pat: Pattern):
    """Yield (node map, leg claims) for a connected node pattern.

    The image and rotation of the least pattern node fix the rest, which
    the compiled walk of :func:`_matcher` reads off the host.  A leg-edge
    consumes one *end* of a host edge, so two leg-edges may share a host
    edge as long as they claim opposite ends; interior edges consume the
    whole host edge.  Both follow from the node map being injective: then
    distinct pattern darts have distinct images, and each interior edge's
    image has the images of its two ends as its ends.
    """
    order, steps = _matcher(pat)
    root = pat.node_map[order[0]]
    node_map, edge_ends = d.node_map, d.edge_ends
    for hostnd in d.nodes:
        if hostnd.kind != root.kind:
            continue
        for r0 in (0, 2) if root.kind == CROSSING else (0, 1, 2, 3):
            if root.attr is not None and hostnd.attr != (root.attr + r0) % 2:
                continue
            img, rot, claims = [hostnd.id], [r0], {}
            for kind, i, p, x, q in steps:
                hid = img[i]
                hp = (p + rot[i]) % 4
                he = node_map[hid].ports[hp]
                if kind == _LEG:
                    claims[x] = (he, (hid, hp))
                    continue
                a, b = edge_ends[he]
                hm, hq = b if a == (hid, hp) else a
                r = (hq - q) % 4
                if kind == _CYCLE:
                    if img[x] != hm or rot[x] != r:
                        break
                    continue
                hnd = node_map[hm]
                if hm in img or hnd.kind != x.kind or (x.kind == CROSSING and r % 2) or (
                        x.attr is not None and hnd.attr != (x.attr + r) % 2):
                    break
                img.append(hm)
                rot.append(r)
            else:
                yield dict(zip(order, zip(img, rot))), claims


def _iter_embeddings(d: Diagram, faces: Faces, pat: Pattern):
    """All injective combinatorial embeddings that meet the face
    conditions, as (node map, {leg k: target}).  A pattern is one connected
    node component or bare strands (:meth:`Pattern.check`), so each
    embedding comes once.

    Bare strands run along distinct host edges or loops, either way, and
    come in the order of the product over the strands of the candidates
    ``(edge or loop, flip)``.  Every face of such a pattern is a gap face,
    so its face condition is that its legs see one host face beyond their
    cuts: a strand tries only the candidates whose leg faces agree with
    those the strands before it fixed.
    """
    if pat.nodes:
        leg_of_edge = {e: k for k, e in enumerate(pat.legs, start=1)}
        for amap, claims in _match_component(d, pat):
            targets = {leg_of_edge[e]: ("edge", he, 0 if d.edge_ends[he][0] == end else 1)
                       for e, (he, end) in claims.items()}
            if _face_conditions(d, faces, pat, amap, targets):
                yield amap, targets
        return
    # a strand's candidates (kind, id, flip, (faces beyond its two legs)),
    # and per (leg 0 or 1, face) the candidates that see that face there
    cands, agree = [], {}
    for kind, ident in [("edge", he) for he in d.edges] + [("loop", l) for l in d.loops]:
        f = ([faces.face_of_dart(x) for x in d.edge_ends[ident]] if kind == "edge"
             else [faces.face_of_loop(ident)] * 2)
        for flip in (0, 1):
            cands.append((kind, ident, flip, (f[flip], f[1 - flip])))
            for end in (0, 1):
                agree.setdefault((end, f[flip ^ end]), []).append(cands[-1])
    face_of = {pat.leg_of_hub_dart(x): i for i, pf in enumerate(pat.faces) for x in pf}

    def extend(partials, legs):
        """Each partial embedding (picks, pattern face -> host face) with
        every fitting candidate for the strand with ``legs``."""
        for picks, seen in partials:
            fixed = [(end, seen[face_of[k]]) for end, k in enumerate(legs) if face_of[k] in seen]
            for c in agree.get(fixed[0], ()) if fixed else cands:
                now = dict(seen)
                if all(c[1] != p[1] for _, p in picks) and all(
                        now.setdefault(face_of[k], f) == f for k, f in zip(legs, c[3])):
                    yield picks + [(legs, c)], now

    partials = iter([([], {})])
    for e in pat.through_edges:
        partials = extend(partials, sorted(pat.leg_of_hub_dart(x) for x in pat.edge_ends[e]))
    for picks, _ in partials:
        yield {}, {k: (kind, ident, flip ^ end) for legs, (kind, ident, flip, _) in picks
                   for end, k in enumerate(legs)}


def _host_dart_beyond(d: Diagram, pat: Pattern, dart, amap, targets):
    """Host dart corresponding to a pattern dart.

    Node darts map through the embedding; a hub dart maps to the host dart
    just beyond its leg's cut (None when the cut sits on a loop).  For a
    leg-edge the target's end index names the interior side, so "beyond" is
    the other end; for a through-strand it names the exterior side directly.
    """
    nid, p = dart
    if nid != HUB:
        hid, r = amap[nid]
        return (hid, (p + r) % 4)
    k = pat.leg_of_hub_dart(dart)
    t = targets[k]
    if t[0] == "loop":
        return None
    return d.edge_ends[t[1]][t[2] if pat.legs[k - 1] in pat.through_edges else 1 - t[2]]


def _face_conditions(d: Diagram, faces: Faces, pat: Pattern, amap, targets) -> bool:
    """The face conditions of a node pattern, whose legs all cut edges:
    the darts of each pattern face see one host face, and an interior face
    is exactly one host polygon with nothing else in it."""
    for pf in pat.faces:
        darts = [_host_dart_beyond(d, pat, x, amap, targets) for x in pf]
        if len({faces.face_of_dart(x) for x in darts}) > 1:
            return False
        if all(x[0] != HUB for x in pf):
            orbit = faces.orbit_of_dart(darts[0])
            if faces.orbit_degree(orbit) != len(pf) or not faces.face_is_plain_orbit(orbit):
                return False
    return True


def _orientation_ok(od: OrientedDiagram, d: Diagram, pat: Pattern, amap, targets) -> bool:
    if not pat.heads:
        return True
    for e in pat.edge_ends:
        head = pat.head_map.get(e)
        if head is None:
            return False
        hd = _host_dart_beyond(d, pat, head, amap, targets)
        if head[0] != HUB:
            host_edge = d.node(hd[0]).ports[hd[1]]
            if od.head_map[host_edge] != hd:
                return False
        else:
            t = targets[pat.leg_of_hub_dart(head)]
            if t[0] == "loop":
                continue
            if od.head_map[t[1]] != hd:
                return False
    return True


def find_sites(d, move: MoveSpec, direction: str = FORWARD) -> list[Site]:
    """Complete, duplicate-free list of embeddings of the chosen side that
    meet the face and orientation conditions; :func:`apply_move` applies
    each of them."""
    _base(d, "find_sites")
    _require(move, MoveSpec, "find_sites")
    return list(_sites(d, move, direction))


def _base(d, what: str) -> Diagram:
    """The unoriented diagram of ``d``, a diagram or an oriented one; an
    SMGSemanticError naming ``what`` for anything else."""
    base = d.base if isinstance(d, OrientedDiagram) else d
    _require(base, Diagram, what)
    return base


def _sites(d, move: MoveSpec, direction: str) -> Iterator[Site]:
    """The sites of :func:`find_sites`, in its order, found one at a time
    for callers that stop at the first one they use.  The searches give it
    ``move._searched``, so that they match no variant whose sites repeat an
    earlier variant's."""
    od = d if isinstance(d, OrientedDiagram) else None
    base = d.base if od is not None else d
    if move.oriented and od is None:
        raise SMGSemanticError(f"move {move.id} requires an oriented diagram")
    faces = base.faces()
    for variant in range(len(move.variants)):
        pat = move.side(variant, direction)
        for amap, targets in _iter_embeddings(base, faces, pat):
            if od is not None and pat.heads and not _orientation_ok(od, base, pat, amap, targets):
                continue
            yield Site(move.id, variant, direction,
                       tuple(sorted(amap.items())),
                       tuple(targets[k] for k in sorted(targets)))


def _automorphisms(d: Diagram) -> list[dict]:
    """Generators of the automorphisms of ``d``, each as node id ->
    (image id, port shift), moving dart ``(n, p)`` to ``(image, p +
    shift)``.  Empty unless ``d`` is one graph piece with no loops: then
    the generators that ``_canonise`` found for the piece (the last field
    of its ``Diagram._piece_canon`` record) move the whole diagram."""
    if d.loops or len(d._darts) != 1:
        return []
    nodes = d._darts[0][0]
    return [{nd.id: (nodes[img[i]].id, shift[i]) for i, nd in enumerate(nodes)}
            for img, shift in d._piece_canon[nodes[0].id][2]]


def _site_image(d: Diagram, g: dict, key: tuple) -> tuple:
    """The key ``(variant, node images, leg targets)`` of a site of ``d``
    moved by the automorphism ``g`` (:func:`_automorphisms`): a node image
    moves as a dart does, and a leg target to the edge end that the image
    of its end is."""
    variant, images, targets = key
    ends, node_map = d.edge_ends, d.node_map
    images = tuple((n, (g[h][0], (r + g[h][1]) % 4)) for n, (h, r) in images)
    legs = []
    for _, e, k in targets:
        n, p = ends[e][k]
        x = (g[n][0], (p + g[n][1]) % 4)
        f = node_map[x[0]].ports[x[1]]
        legs.append(("edge", f, ends[f].index(x)))
    return variant, images, tuple(legs)


def _unrepeated(d: Diagram, sites: Iterable[Site]) -> Iterator[Site]:
    """``sites``, of one move and direction on ``d``, less each that an
    automorphism of ``d`` maps a site given before it to: its rewrite is
    isomorphic to that site's, so it has the same canonical code.  Skips
    follow the order of ``sites``."""
    done, gens = set(), _automorphisms(d)
    for site in sites:
        key = (site.variant, site.node_images, site.leg_targets)
        if key in done:
            continue
        yield site
        todo = [key] if gens else []
        for k in todo:      # grows as it is read: closes the orbit of ``key``
            for g in gens:
                image = _site_image(d, g, k)
                if image not in done:
                    done.add(image)
                    todo.append(image)


def _rewrites(d, moves: Iterable[MoveSpec], directions: tuple[str, ...]) -> Iterator[tuple]:
    """Each rewrite a search makes from ``d``, as ``(step, searched move,
    site)``: per move and direction, the sites of ``MoveSpec._searched``,
    one per orbit (:func:`_unrepeated`); ``step`` is ``(move id, catalog
    variant, direction)``."""
    for move in moves:
        for direction in directions:
            for site in _unrepeated(d, find_sites(d, move._searched, direction)):
                yield (move.id, move._kept[site.variant], direction), move._searched, site


# ---------------------------------------------------------------------------
# the splice


def _strand(j: int, inner, outer, through, mark):
    """The two ends of the strand through leg ``j``, or None when it closes.
    ``inner[k]`` and ``outer[k]`` are what leg ``k`` joins on either side of
    its cut, a dart or ``~i`` for leg ``i``; the strand leaves ``j`` both
    ways, crossing each leg it meets, and sets ``through[k] = mark`` for
    each leg ``k`` it passes, ``j`` too."""
    through[j] = mark
    ends = []
    for there, back in ((inner, outer), (outer, inner)):
        x = there[j]
        while type(x) is int and x < 0:
            x = ~x
            if x == j:
                return None
            through[x] = mark
            there, back = back, there
            x = there[x]
        ends.append(x)
    return ends


def _legs(d: Diagram, pat: Pattern, site: Site) -> tuple[list, list]:
    """Per leg ``j`` of ``site``, on ``pat.legs[j]``: the host dart just
    beyond its cut (:func:`_host_dart_beyond`) or the loop it cuts, and what
    the leg joins outside the disk, that dart, or ``~k`` for the leg ``k``
    at the other end of a loop or of an edge cut near both ends (a
    through-strand keeps both darts)."""
    targets = dict(enumerate(site.leg_targets, start=1))
    beyond = [_host_dart_beyond(d, pat, pat.hub_dart_of_leg(k), None, targets) or t[1]
              for k, t in targets.items()]
    outer, claims = beyond[:], {}
    for j, t in enumerate(site.leg_targets):
        claims.setdefault(t[:2], []).append(j)
    for (kind, _), ks in claims.items():
        if len(ks) == 2 and (kind == "loop" or pat.legs[ks[0]] not in pat.through_edges):
            outer[ks[0]], outer[ks[1]] = ~ks[1], ~ks[0]
    return beyond, outer


def _splice(d: Diagram, name: str, cut: set, tangles: dict, outer: list, order, prefix: str,
            turned: Optional[dict] = None, beyond: Optional[list] = None):
    """Cut the nodes and loops of ``cut`` out of ``d`` and paste tangles in.

    ``tangles[key]`` is a pattern whose nodes go in place of host node
    ``key`` (after the host's nodes for ``key`` None).  Legs are numbered
    from 0 across the tangles in turn, and ``~k`` stands for leg ``k``.
    Leg ``k`` joins ``outer[k]``, a surviving host dart or the leg at the
    other end of a cut arc or loop, to its pasted port or the leg at the
    other end of a bare strand (``Pattern._paste``).  Each strand, walked
    once (:func:`_strand`), becomes an edge ``prefix<i>``, or a loop
    ``c<i>`` when it closes, named in ``order``: legs, and host edges
    between surviving darts to cut whole.  Pasted nodes are ``q<i>`` and
    interior edges ``t<i>``.  A node of ``turned`` becomes a crossing whose
    port ``p + turned[v]`` was its port ``p``.  Places follow faces
    (:func:`resolution._places`) when ``beyond[k]`` is the host dart beyond
    leg ``k``'s cut or the loop it cuts, and are dropped otherwise.
    Returns the validated result, which shares ``d``'s family memo
    (``Diagram._tails``), the new edges and loops ``(id, end, end)``, each
    end a surviving host dart or a pasted port (None for a loop), and per
    key the pasted node and edge names."""
    turned = turned or {}
    fresh = _fresh_ids({*d.node_map, *d.edge_ends, *d.loops})
    ids, inner, laid, edge_at = {}, [], {}, {}
    for key, pat in tangles.items():
        new = {nd.id: fresh("q") for nd in pat.nodes}
        mid = {e: fresh("t") for e in pat.interior_edges}
        ids[key] = (new, mid)
        if mid:
            edge_at.update({(new[t.id], q): mid[e]
                            for t in pat.nodes for q, e in enumerate(t.ports) if e in mid})
        first, names = len(inner), [new[nd.id] for nd in pat.nodes]
        laid[key] = (pat, range(first, first + pat.K))
        inner += [(names[y >> 2], y & 3) if y >= 0 else ~(first + ~y) for y in pat._paste[1]]

    made, rings = [], []    # (id, end, end) per new edge, (id, None, None) per new loop
    through = {}            # leg -> index in ``made`` of its strand, in walk order
    edge_ends = d.edge_ends
    for x in order:
        if type(x) is str:      # a host edge between surviving darts
            a, b = edge_ends[x]
        elif x in through:
            continue
        else:
            ends = _strand(x, inner, outer, through, len(made))
            if ends is None:
                rings.append(fresh("c"))
                made.append((rings[-1], None, None))
                continue
            a, b = ends
        e = edge_at[a] = edge_at[b] = fresh(prefix)
        made.append((e, a, b))

    pasted = {}     # key -> its tangle's nodes, for tangles with nodes
    for key, pat in tangles.items():
        if pat.nodes:
            new = ids[key][0]
            pasted[key] = [Node(m := new[t.id], t.kind, t.attr,
                                (edge_at[m, 0], edge_at[m, 1], edge_at[m, 2], edge_at[m, 3]))
                           for t in pat.nodes]
    nodes, at = [], edge_at.get
    for nd in d.nodes:
        n = nd.id
        if n in pasted:
            nodes += pasted[n]
        elif n not in cut:
            e0, e1, e2, e3 = nd.ports
            ports = (at((n, 0), e0), at((n, 1), e1), at((n, 2), e2), at((n, 3), e3))
            if n in turned:
                r = turned[n]
                nodes.append(Node(n, CROSSING, None, ports[-r:] + ports[:-r]))
            else:
                nodes.append(nd if ports == nd.ports else Node(n, nd.kind, nd.attr, ports))
    nodes += pasted.get(None, ())
    anchors = ()
    if beyond is not None and (d.anchors or rings):
        from .resolution import _places     # resolution imports this module

        anchors = _places(d, nodes, cut, laid, ids, made, through, beyond)
    result = Diagram(name, tuple(nodes), tuple([l for l in d.loops if l not in cut] + rings),
                     anchors)
    result.__dict__["_tails"] = d._tails
    report = result.validate()
    if not report.ok:
        raise SMGError(f"the splice produced an invalid diagram: {report}")
    return result, made, ids


# ---------------------------------------------------------------------------
# application


def apply_move(d, move: MoveSpec, site: Site, return_info: bool = False):
    """Rewrite at ``site``; returns a new diagram of the same flavour.

    The site's legs are spliced (:func:`_splice`): surviving edges keep
    their ids, the replacement side's nodes are ``q<i>``, its interior
    edges and then the new strands, in leg order, ``t<i>``, and new loops
    ``c<i>``.  Places follow faces.  With ``return_info`` the result is a
    pair ``(diagram, info)`` where info maps the replacement side's
    interior edge and node names to the fresh identifiers used in the
    result.  A site of another move, or of a variant the move lacks, is a
    semantic error."""
    base = _base(d, "apply_move")
    _require(move, MoveSpec, "apply_move")
    _require(site, Site, "apply_move")
    if site.move_id != move.id:
        raise SMGSemanticError(f"a site of move {site.move_id} applied with move {move.id}")
    if not 0 <= site.variant < len(move.variants):
        raise SMGSemanticError(f"move {move.id} has no variant {site.variant}")
    od = d if isinstance(d, OrientedDiagram) else None
    pat = move.side(site.variant, site.direction)
    out = move.other_side(site.variant, site.direction)
    amap = site.node_image_map

    # -- presence checks
    edge_img: dict[str, str] = {}
    for n, (hid, r) in amap.items():
        if hid not in base.node_map:
            raise StaleSiteError(f"host node {hid} gone")
        pnd, hnd = pat.node_map[n], base.node(hid)
        if hnd.kind != pnd.kind:
            raise StaleSiteError("kind mismatch")
        if pnd.attr is not None and hnd.attr != (pnd.attr + r) % 2:
            raise StaleSiteError("attribute mismatch")
        for p in range(4):
            he = hnd.ports[(p + r) % 4]
            if edge_img.setdefault(pnd.ports[p], he) != he:
                raise StaleSiteError("edge image inconsistent")
    consumed = {hid for hid, _ in amap.values()}
    consumed_edges = {edge_img[e] for e in pat.interior_edges}
    for t in site.leg_targets:
        if t[0] == "edge":
            if t[1] not in base.edge_ends or t[1] in consumed_edges:
                raise StaleSiteError(f"cut edge {t[1]} unavailable")
        elif t[1] not in base.loops:
            raise StaleSiteError(f"cut loop {t[1]} gone")

    beyond, outer = _legs(base, pat, site)
    cut = consumed | {t[1] for t in site.leg_targets if t[0] == "loop"}
    try:
        result, made, ids = _splice(base, base.name, cut, {None: out}, outer, range(len(outer)),
                                    "t", beyond=beyond)
    except SMGError as exc:
        raise StaleSiteError(f"rewrite produced invalid diagram: {exc}") from exc
    node_ids, int_eids = ids[None]
    info = {"int_eids": int_eids, "node_ids": node_ids}
    if od is None:
        return (result, info) if return_info else result

    # -- orientation transport
    fixed: dict[str, tuple] = {}
    banned: dict[str, tuple] = {}
    for eid, *ends in (m for m in made if m[1] is not None):
        for m, q in ends:
            if m in base.node_map:
                (fixed if od.head_map[base.node(m).ports[q]] == (m, q) else banned)[eid] = (m, q)
    for e in out.interior_edges:
        h = out.head_map.get(e)
        if h is not None and h[0] != HUB:
            fixed[int_eids[e]] = (node_ids[h[0]], h[1])
    # the first orientation of the result, in enumeration order, that keeps
    # the pinned heads and every surviving edge's head
    sp = StrandParity(result.edge_ends, result.nodes, od.abstract)
    pins = [(v, 1) for v in fixed.values()] + [(v, 0) for v in banned.values()]
    pins += [(h, 1) for e, h in od.heads if e in result.edge_ends]
    bits = sp.pinned(pins)
    if bits is None:
        raise StaleSiteError("rewrite does not extend to a coherent orientation")
    loop_dirs = dict(od.loop_dirs)
    dirs = tuple((l, loop_dirs.get(l, 0)) for l in result.loops)
    ores = OrientedDiagram(result, sp.heads(bits), dirs, od.abstract)
    return (ores, info) if return_info else ores


# ---------------------------------------------------------------------------
# rewrite codes on integer darts


def _host(d: Diagram) -> tuple:
    """``d``'s table for :func:`_coded`: the nodes and integer darts
    of the pieces of ``Diagram._darts`` in turn, and each node's index."""
    nodes, alpha = [], []
    for mine, local, _ in d._darts:
        alpha += [4 * len(nodes) + y for y in local]
        nodes += mine
    return nodes, alpha, {nd.id: i for i, nd in enumerate(nodes)}


def _rewrite_pieces(d: Diagram, host: tuple, move: MoveSpec, site: Site) -> Optional[list]:
    """The pieces (:func:`_pieces`) of ``apply_move(d, move, site)``, without
    building the rewrite, from ``d``'s table ``host`` (:func:`_host`).  None
    when ``d`` has loops or places or the splice closes a strand: then places
    follow faces (:func:`resolution._places`), and only ``apply_move`` codes
    it.

    The site's nodes are cut and the other side's pasted after the host's,
    with the leg rule (:func:`_legs`) and the strand walk (:func:`_strand`)
    of ``apply_move``'s splice.  As the splice checks, every dart must be
    paired and every piece a sphere map: a StaleSiteError otherwise, as
    ``apply_move`` raises."""
    if d.loops or d.anchors:
        return None
    nodes, alpha, index = host
    pat = move.side(site.variant, site.direction)
    out = move.other_side(site.variant, site.direction)
    pasted, inner = out._paste
    # host node -> its number in the result, -1 if cut; ``new`` is alpha
    at, kept, new = range(len(nodes)), nodes, alpha[:]
    if site.node_images:
        cut = {index[h] for _, (h, _) in site.node_images}
        at, kept = [-1] * len(nodes), []
        for i, nd in enumerate(nodes):
            if i not in cut:
                at[i] = len(kept)
                kept.append(nd)
        new = [-1 if at[y >> 2] < 0 else 4 * at[y >> 2] + (y & 3)
               for i in range(len(nodes)) if at[i] >= 0 for y in alpha[4 * i:4 * i + 4]]
    base = len(new)
    new += [-1 if y < 0 else base + y for y in pasted]
    inner = [x if x < 0 else base + x for x in inner]
    outer = _legs(d, pat, site)[1]
    for j, x in enumerate(outer):
        if type(x) is tuple:
            i = at[index[x[0]]]
            if i < 0:
                raise StaleSiteError(
                    f"rewrite produced invalid diagram: leg {j + 1} meets a cut node")
            outer[j] = 4 * i + x[1]

    done = [False] * len(outer)
    for j in range(len(outer)):
        if done[j]:
            continue
        ends = _strand(j, inner, outer, done, True)
        if ends is None:
            return None     # the strand closes into a loop
        a, b = ends
        new[a], new[b] = b, a
        if a == b:
            new[a] = -1     # one end is no edge
    if -1 in new or list(map(new.__getitem__, new)) != list(range(len(new))):
        raise StaleSiteError("rewrite produced invalid diagram: a dart is not paired")
    pieces = _pieces([*kept, *out.nodes], new)
    for mine, _, orbit in pieces:
        if len(set(orbit)) != len(mine) + 2:
            raise StaleSiteError("rewrite produced invalid diagram: non-spherical embedding")
    return pieces


def _pieces_code(pieces: list) -> bytes:
    """The canonical code of a diagram with no loops or places and with
    ``pieces`` (:func:`_pieces`)."""
    return _code([(_canonise(_canon_table(mine, local))[0], "outer")
                  for mine, local, _ in pieces], ())


def _rewrite_counts(d: Diagram, move: MoveSpec, site: Site) -> tuple[int, ...]:
    """``apply_move(d, move, site).counts``, from ``d``'s and the move's
    kind delta (``MoveSpec._kind_delta``), without a splice."""
    return tuple(map(add, d.counts, move._kind_delta[site.variant, site.direction]))


def _coded(d, host: Optional[tuple], move: MoveSpec, site: Site) -> tuple[bytes, object]:
    """The code of ``apply_move(d, move, site)`` and the state to hold: ``(d,
    move, site)`` where :func:`_rewrite_pieces` splices on ``d``'s table
    ``host``, else the rewrite built, less its caches (most are never expanded)."""
    pieces = None if host is None else _rewrite_pieces(d, host, move, site)
    if pieces is not None:
        return _pieces_code(pieces), (d, move, site)
    nxt = apply_move(d, move, site)
    return _base(nxt, "_coded").canonical_code(), replace(nxt)


def _built(state, code: bytes):
    """The diagram of ``state``, held as :func:`_coded` gave it with
    ``code``; an SMGError if a spliced state codes otherwise when built."""
    if type(state) is not tuple:
        return state
    nxt = apply_move(*state)
    if nxt.canonical_code() != code:
        raise SMGError(f"move {state[1].id} at {state[2]} codes otherwise when built")
    return nxt


# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class MoveStep:
    move_id: str
    variant: int
    direction: str
    fingerprint: str  # digest of the canonical code of this step's result


@dataclass(frozen=True)
class MoveSequence:
    steps: tuple[MoveStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def serialize(self) -> str:
        return "\n".join(f"{s.move_id} {s.variant} {s.direction} {s.fingerprint}"
                         for s in self.steps)

    @staticmethod
    def parse(text: str) -> "MoveSequence":
        _require(text, str, "MoveSequence.parse")
        steps = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            toks = line.split()
            if (len(toks) != 4 or not re.fullmatch(r"-?\d+", toks[1])
                    or toks[2] not in (FORWARD, REVERSE)):
                raise SMGSyntaxError(
                    "expected '<move-id> <variant> forward|reverse <fingerprint>'", lineno)
            steps.append(MoveStep(toks[0], int(toks[1]), toks[2], toks[3]))
        return MoveSequence(tuple(steps))


def _digest(code: bytes) -> str:
    return hashlib.sha256(code).hexdigest()[:16]


def code_digest(d) -> str:
    base = d.base if isinstance(d, OrientedDiagram) else d
    return _digest(base.canonical_code())


def _path(parents: dict, code: bytes, back: bool = False) -> tuple[MoveStep, ...]:
    """The steps from the root of ``parents`` (code -> (parent code, move id,
    variant, direction), None at a root) to ``code``; or, ``back``, the steps
    from ``code`` back to the root, each undoing one of them."""
    steps = []
    while parents[code] is not None:
        parent, m, v, dr = parents[code]
        steps.append(MoveStep(m, v, REVERSE if dr == FORWARD else FORWARD, _digest(parent))
                     if back else MoveStep(m, v, dr, _digest(code)))
        code = parent
    return tuple(steps) if back else tuple(steps[::-1])


def verify_sequence(d, s: MoveSequence, catalog: dict[str, MoveSpec]):
    """Replay ``s`` from ``d``, failing fast on the first stale step.  Each
    step's site is the first whose rewrite has the step's fingerprint; the
    rewrites are coded as the search codes them (:func:`_coded`), and only
    the one taken is built."""
    _base(d, "verify_sequence")
    _require(s, MoveSequence, "verify_sequence")
    _require(catalog, dict, "verify_sequence")
    cur = d
    for i, step in enumerate(s.steps):
        _require(step, MoveStep, "verify_sequence")
        if step.move_id not in catalog:
            raise SMGSemanticError(f"step {i}: unknown move id {step.move_id!r}")
        move = catalog[step.move_id]
        _require(move, MoveSpec, "verify_sequence")
        if step.variant not in range(len(move.variants)):
            raise SMGSemanticError(f"step {i}: move {step.move_id} has no variant {step.variant}")
        host = _host(cur) if isinstance(cur, Diagram) else None
        for site in (s for s in _sites(cur, move, step.direction) if s.variant == step.variant):
            code, state = _coded(cur, host, move, site)
            if _digest(code) == step.fingerprint:
                cur = _built(state, code)
                break
        else:
            raise StaleSiteError(f"stale step {i}: {step.move_id} -> {step.fingerprint}")
    return cur


# ---------------------------------------------------------------------------
# bounded equivalence search


@dataclass
class SearchBudget:
    max_depth: int = 8
    max_states: int = 100_000


def search_equivalence(d1: Diagram, d2: Diagram, catalog: dict[str, MoveSpec],
                       allowed: Optional[Iterable[str]] = None,
                       budget: Optional[SearchBudget] = None) -> Optional[MoveSequence]:
    """Bidirectional breadth-first search over canonical codes.

    On success the returned sequence replays from ``d1`` to a diagram with
    ``d2``'s canonical code.  Failure within budget proves nothing.  A
    state's rewrites are those of :func:`_rewrites`, coded and held as
    :func:`_coded` gives them, and a state is built when it is expanded
    (:func:`_built`).

    A rewrite is made and coded at once only when its node kinds
    (:func:`_rewrite_counts`, read off the host and the move without a
    splice) are among the other side's states', as it may then meet that
    side.  The others are pending, held as parent and site with no table,
    and are made and coded in the order they were taken up when their
    expansion ends without a hit, so states are stored as when every
    rewrite is coded at once, and no rewrite is made twice.  While stored
    and pending states are fewer than ``max_states`` no cut can come before
    a hit; once they reach it, the pending rewrites are settled and every
    later one is coded at once.
    """
    if not (isinstance(d1, Diagram) and isinstance(d2, Diagram)):
        raise SMGSemanticError("search_equivalence compares unoriented diagrams, "
                               f"not {type(d1).__name__} and {type(d2).__name__}")
    _require(catalog, dict, "search_equivalence")
    budget = SearchBudget() if budget is None else budget
    _require(budget, SearchBudget, "search_equivalence")
    _require_count(budget.max_depth, "search_equivalence")
    _require_count(budget.max_states, "search_equivalence")
    allowed = list(allowed if allowed is not None else catalog)
    unknown = [m for m in allowed if m not in catalog]
    if unknown:
        raise SMGSemanticError(f"unknown move ids {unknown}")
    for m in allowed:
        _require(catalog[m], MoveSpec, "search_equivalence")
    moves = [catalog[m] for m in allowed]
    c1, c2 = d1.canonical_code(), d2.canonical_code()
    if c1 == c2:
        return MoveSequence(())

    # code -> (parent code, move id, variant, direction), None at a root
    fwd: dict[bytes, Optional[tuple]] = {c1: None}
    bwd: dict[bytes, Optional[tuple]] = {c2: None}
    kinds_f, kinds_b = {d1.counts}, {d2.counts}     # the node-kind counts of each side's states
    frontier_f, frontier_b = [(c1, d1)], [(c2, d2)]
    eager = False       # set once stored and pending states reach max_states

    def store(this_side, kinds, held, counts):
        """Make, code and store the rewrite ``held``, ``(parent link, parent,
        its table, move, site)``, of node-kind counts ``counts``: its entry
        ``(code, state)``, or None when its code is stored."""
        link, *rewrite = held
        code, state = _coded(*rewrite)
        if code in this_side:
            return None
        this_side[code] = link
        kinds.add(counts)
        return code, state

    def settle(frontier, this_side, kinds):
        """``frontier`` with each pending rewrite stored, in order."""
        out = [store(this_side, kinds, e, _rewrite_counts(e[1], e[3], e[4])) if len(e) == 5
               else e for e in frontier]
        return [e for e in out if e is not None]

    def expand(frontier, this_side, other_side, kinds, other_kinds):
        nonlocal eager
        new_frontier, pending = [], 0
        for here, d in frontier:
            d = _built(d, here)
            host = _host(d)
            for step, move, site in _rewrites(d, moves, (FORWARD, REVERSE)):
                held = ((here, *step), d, host, move, site)
                counts = _rewrite_counts(d, move, site)
                if not eager and counts not in other_kinds:
                    new_frontier.append(held)
                    pending += 1
                else:
                    entry = store(this_side, kinds, held, counts)
                    if entry is None:
                        continue
                    new_frontier.append(entry)
                    if entry[0] in other_side:
                        return new_frontier, entry[0]
                if len(fwd) + len(bwd) + pending >= budget.max_states:
                    if not eager:
                        eager, pending = True, 0
                        new_frontier = settle(new_frontier, this_side, kinds)
                    if len(fwd) + len(bwd) >= budget.max_states:
                        return new_frontier, StopIteration
        return settle(new_frontier, this_side, kinds) if pending else new_frontier, None

    for _ in range(budget.max_depth):
        if not frontier_f and not frontier_b:
            return None
        if frontier_f and (len(frontier_f) <= len(frontier_b) or not frontier_b):
            frontier_f, hit = expand(frontier_f, fwd, bwd, kinds_f, kinds_b)
        else:
            frontier_b, hit = expand(frontier_b, bwd, fwd, kinds_b, kinds_f)
        if hit is StopIteration:
            return None
        if hit is not None:
            return MoveSequence(_path(fwd, hit) + _path(bwd, hit, back=True))
    return None
