"""The move catalogs.

Unoriented moves are read from ``data/moves_unoriented.smg``; each variant is
complemented by its mirror image (reflection of the disk), which is how the
printed pictures are usually read.  The oriented catalog is generated from
the unoriented fragments by enumerating coherent strand directions and
selecting boundary profiles, one move id per selected orientation class.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .diagram import CROSSING, MARKER, Node, SMGSemanticError, StrandParity, _lines, _require
from .moves import HUB, MoveSpec, Pattern, parse_pattern

#: order of the 17 core unoriented moves plus the 3 flagged-derived ones
UNORIENTED_IDS = [
    "O1", "O2", "O3", "O4", "O4p", "O5", "O6", "O6p", "O7", "O8",
    "O9", "O9p", "O10", "O11", "O11p", "O12", "O12p",
    "D_O10p", "D_O9pp", "D_O9ppp",
]


def mirror_pattern(pat: Pattern) -> Pattern:
    """Reflect the fragment: port orders reverse, leg numbering reverses.

    Over/under is preserved (the reflection is of the diagram plane), and so
    is a singular side, but a marker's smoothing pairs trade places, so its
    axis flips.
    """
    rho = (0, 3, 2, 1)
    nodes = []
    for nd in pat.nodes:
        ports = tuple(nd.ports[rho[p]] for p in range(4))
        attr = nd.attr
        if nd.kind == MARKER:
            attr = (attr + 1) % 2
        nodes.append(Node(nd.id, nd.kind, attr, ports))
    legs = tuple(reversed(pat.legs))
    K = len(legs)
    heads = tuple((e, (HUB, K - 1 - h[1]) if h[0] == HUB else (h[0], rho[h[1]]))
                  for e, h in pat.heads)
    return Pattern(tuple(nodes), legs, heads)


def _parse_catalog(text: str):
    moves = []
    cur = None
    section = None
    buf: dict[str, list[str]] = {}
    variants: list[tuple[Pattern, Pattern]] = []

    def close_variant():
        if buf:
            lhs = parse_pattern("\n".join(buf.get("lhs", [])))
            rhs = parse_pattern("\n".join(buf.get("rhs", [])))
            variants.append((lhs, rhs))
            buf.clear()

    for _, toks in _lines(text):
        if toks[0] == "move":
            cur = {"id": toks[1], "derived": "derived" in toks[2:],
                   "deltas": (0, 0, 0, 0)}
            variants = []
        elif toks[0] == "deltas":
            cur["deltas"] = tuple(int(t) for t in toks[1:5])
        elif toks[0] == "variant":
            close_variant()
            section = None
        elif toks[0] == "endvariant":
            close_variant()
        elif toks[0] == "endmove":
            close_variant()
            moves.append((cur, list(variants)))
            cur = None
        elif toks[0] in ("lhs", "rhs"):
            section = toks[0]
            buf.setdefault(section, [])
        else:
            buf[section].append(" ".join(toks))
    return moves


def _with_mirrors(variants):
    """The variants followed by each mirror that is not a syntactic copy.

    Some mirrors kept here are isomorphic copies or leg turns of an earlier
    variant (:func:`_covers`).  They stay, because traces name variants by
    index and :func:`find_sites` returns every variant's sites; the search
    and the simplifier expand only ``MoveSpec._kept``."""
    out = list(variants)
    seen = {(v[0].nodes, v[0].legs, v[1].nodes, v[1].legs) for v in out}
    for lhs, rhs in variants:
        ml, mr = mirror_pattern(lhs), mirror_pattern(rhs)
        key = (ml.nodes, ml.legs, mr.nodes, mr.legs)
        if key not in seen:
            seen.add(key)
            out.append((ml, mr))
    return tuple(out)


def _leg_shifts(a: Pattern, b: Pattern) -> list[int]:
    """Every ``s`` for which ``b`` is ``a`` with leg ``k`` renumbered
    ``k+s`` mod K: a bijection of the closed fragments' darts that commutes
    with ``alpha`` and ``phi``, turns the hub, and keeps node kinds,
    decorations and edge heads.  Every dart is reached from the hub, so the
    image of ``(HUB, 0)`` fixes the bijection."""
    K = a.K
    if not K or b.K != K or len(a.nodes) != len(b.nodes):
        return []

    shifts = []
    for t in range(K):
        img = {(HUB, 0): (HUB, t)}
        stack = [(HUB, 0)]
        while stack and img is not None:
            x = stack.pop()
            for fx, fy in ((a.alpha(x), b.alpha(img[x])), (a.phi(x), b.phi(img[x]))):
                if fx not in img:
                    img[fx] = fy
                    stack.append(fx)
                elif img[fx] != fy:
                    img = None
                    break
        if img is None or len(set(img.values())) != len(img):
            continue
        turned = [(nd, b.node_map[img[(nd.id, 0)][0]], img[(nd.id, 0)][1]) for nd in a.nodes]
        if all(m.kind == nd.kind and not (nd.kind == CROSSING and q % 2)
               and (nd.attr is None or m.attr == (nd.attr + q) % 2) for nd, m, q in turned) \
                and {img[h] for _, h in a.heads} == {h for _, h in b.heads}:
            shifts.append(-t % K)
    return shifts


def _covers(variants) -> list[tuple[int, int, int]]:
    """``(a, b, s)`` with ``a < b`` when variant ``b``'s pair is variant
    ``a``'s with leg ``k`` renumbered ``k+s`` mod K on both sides: each
    site of ``b`` is then a site of ``a`` with its legs turned."""
    out = []
    for b, (lb, rb) in enumerate(variants):
        for a, (la, ra) in enumerate(variants[:b]):
            right = _leg_shifts(ra, rb)
            out += [(a, b, s) for s in _leg_shifts(la, lb) if s in right]
    return out


@lru_cache(maxsize=None)
def _unoriented() -> tuple[MoveSpec, ...]:
    text = resources.files("smg.data").joinpath("moves_unoriented.smg").read_text()
    specs = []
    for meta, variants in _parse_catalog(text):
        specs.append(MoveSpec(meta["id"], _with_mirrors(variants),
                              derived=meta["derived"], oriented=False,
                              deltas=meta["deltas"]))
    order = {mid: i for i, mid in enumerate(UNORIENTED_IDS)}
    specs.sort(key=lambda m: order[m.id])
    return tuple(specs)


# ---------------------------------------------------------------------------
# oriented catalog


def orient_pattern(pat: Pattern) -> list[Pattern]:
    """All coherent strand orientations of a fragment.

    Crossings and singular vertices carry flow straight through; markers
    alternate in/out around the rotation; boundary legs are free.
    """
    sp = StrandParity(pat.edge_ends, pat.nodes)
    out = []
    for bits in sp.assignments():
        out.append(Pattern(pat.nodes, pat.legs, sp.heads(bits)))
    return out


def _oriented_pairs(lhs: Pattern, rhs: Pattern):
    """All (oriented lhs, oriented rhs) pairs with equal boundary profiles."""
    pairs = []
    rhs_by_profile: dict[tuple, list[Pattern]] = {}
    for r in orient_pattern(rhs):
        rhs_by_profile.setdefault(r.boundary_profile(), []).append(r)
    for l in orient_pattern(lhs):
        for r in rhs_by_profile.get(l.boundary_profile(), []):
            pairs.append((l, r))
    return pairs


#: oriented move table: id -> (base unoriented id, variant index, pair index)
ORIENTED_TABLE = [
    ("G1", "O1", 0, 0),
    ("G1p", "O1", 1, 0),
    ("G2", "O2", 0, 0),
    ("G3", "O3", 0, 0),
    ("G4", "O4", 0, 0),
    ("G4p", "O4p", 0, 0),
    ("G5", "O5", 0, 0),
    ("G6", "O6", 0, 0),
    ("G6p", "O6p", 0, 0),
    ("G7", "O7", 0, 0),
    ("G8", "O8", 0, 0),
    ("G9", "O9", 0, 0),
    ("G9p", "O9p", 0, 0),
    ("G10", "O10", 0, 0),
    ("G11a", "O11", 0, 0),
    ("G11b", "O11", 0, 1),
    ("G11c", "O11p", 0, 0),
    ("G11d", "O11p", 0, 1),
    ("G12a", "O12", 0, 0),
    ("G12b", "O12", 0, 1),
    ("G12c", "O12p", 0, 0),
    ("G12d", "O12p", 0, 1),
]


@lru_cache(maxsize=None)
def _oriented() -> tuple[MoveSpec, ...]:
    base = {m.id: m for m in _unoriented()}
    specs = []
    for gid, mid, variant, pair_index in ORIENTED_TABLE:
        lhs, rhs = base[mid].variants[variant]
        pairs = _oriented_pairs(lhs, rhs)
        if pair_index >= len(pairs):
            raise RuntimeError(f"{gid}: only {len(pairs)} oriented pairs of {mid}")
        ol, orr = pairs[pair_index]
        # mirrors of the oriented pair widen matching exactly as for the
        # unoriented catalog
        variants = _with_mirrors([(ol, orr)])
        specs.append(MoveSpec(gid, variants, derived=False, oriented=True,
                              deltas=base[mid].deltas))
    return tuple(specs)


def move_catalog(mode: str = "unoriented") -> list[MoveSpec]:
    """The move catalog: 17 core + 3 derived unoriented moves, or the 22
    oriented moves."""
    _require(mode, str, "move_catalog")
    mode = mode.lower()
    if mode in ("unoriented", "u"):
        return list(_unoriented())
    if mode in ("oriented", "o"):
        return list(_oriented())
    raise SMGSemanticError(f"unknown catalog mode {mode!r}")


def catalog_map(mode: str = "unoriented") -> dict[str, MoveSpec]:
    _require(mode, str, "catalog_map")
    return {m.id: m for m in move_catalog(mode)}
