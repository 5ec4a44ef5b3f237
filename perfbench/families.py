"""Scaling families of diagrams and their reference answers.

Each generator returns SMG text under seeded node and edge ids, so that a
seed relabels a diagram without changing it.  The ids are drawn so that they
sort in family order (``ordered_ids``): ``smg`` orders nodes, edges,
generators and colour classes by id, and the cost of ``hom_count``,
``coloring_count`` and ``tietze_simplify`` changes many times over with that
order, so a shuffled naming would make the seed change the work.  Nodes are
listed in family order and keep their port rotation: shuffling the lines or
turning crossings half-way round shortens the union-find chains of
``enumerate_orientations`` enough to hide its RecursionError on T(2, 1000).

Families:

* ``t2(n)``: the closed 2-braid T(2, n), a knot for odd n and a two-component
  link for even n; ``shuffled=True`` shuffles its ids, for the check that a
  renaming keeps the canonical code;
* ``kinks(n)``: an unknot carrying n Reidemeister-I kinks in a row;
* ``chain(kind, n)``: a cycle of n markers (``"M"``) or n double points
  (``"S"``), each carrying a monogon as a kink does.
"""

from __future__ import annotations

import random


def ordered_ids(prefix: str, n: int, rng: random.Random) -> list[str]:
    """n distinct seeded ids that sort in the order they are listed."""
    return [f"{prefix}{i:06d}" for i in sorted(rng.sample(range(1_000_000), n))]


def _text(name: str, nodes: list[tuple[str, object, list[str]]],
          rng: random.Random, shuffled: bool = False) -> str:
    """Write nodes ``(kind, attr, ports)`` under seeded ids that keep the
    order of the nodes and of the edges' first appearance, or that do not
    when ``shuffled``."""
    edges = list(dict.fromkeys(e for _, _, ports in nodes for e in ports))
    node_ids = ordered_ids("v", len(nodes), rng)
    edge_ids = ordered_ids("e", len(edges), rng)
    if shuffled:
        rng.shuffle(node_ids)
        rng.shuffle(edge_ids)
    rename = dict(zip(edges, edge_ids))
    lines = [f"diagram {name}"]
    for nid, (kind, attr, ports) in zip(node_ids, nodes):
        head = f"node {nid} {kind}" + ("" if attr is None else f" {attr}")
        lines.append(f"{head} {' '.join(rename[e] for e in ports)}")
    return "\n".join(lines + ["end"]) + "\n"


def _braid_nodes(kind: str, attr, n: int) -> list[tuple[str, object, list[str]]]:
    # node i joins the edge pair (l, r) shared with node i-1 to the pair
    # shared with node i+1, indices mod n
    return [(kind, attr, [f"r{(i - 1) % n}", f"l{(i - 1) % n}", f"l{i}", f"r{i}"])
            for i in range(n)]


def t2(n: int, rng: random.Random, shuffled: bool = False) -> str:
    return _text(f"t2_{n}", _braid_nodes("X", None, n), rng, shuffled)


def _kink_nodes(kind: str, attr, n: int) -> list[tuple[str, object, list[str]]]:
    # node i carries a monogon on ports 1, 2 and joins the strand from node
    # i-1 (port 0) to node i+1 (port 3), indices mod n
    return [(kind, attr, [f"s{(i - 1) % n}", f"k{i}", f"k{i}", f"s{i}"])
            for i in range(n)]


def kinks(n: int, rng: random.Random) -> str:
    return _text(f"kinks_{n}", _kink_nodes("X", None, n), rng)


def chain(kind: str, n: int, rng: random.Random) -> str:
    # marker axis 0 and double-point side 1 give the saddle_sphere and
    # sing_sphere fixtures at n = 1
    return _text(f"chain_{kind}_{n}", _kink_nodes(kind, 0 if kind == "M" else 1, n), rng)


# -- reference answers ---------------------------------------------------------


def t2_abelianization(n: int) -> str:
    return "Z" if n % 2 else "Z + Z"


def t2_components(n: int) -> int:
    return 1 if n % 2 else 2


def t2_fox3(n: int) -> int:
    """Colorings by ``dihedral_quandle(3)``."""
    return 9 if n % 3 == 0 else 3


def t2_o2_sites(n: int) -> int:
    """Sites of O2 forward: 4 n^2."""
    return 4 * n * n


def t2_homs_cyclic(n: int, k: int) -> int:
    """Homomorphisms into Z/k: |Hom(H_1, Z/k)| with H_1 = Z^components."""
    return k ** t2_components(n)


def faces(n: int) -> int:
    """Every family has n + 2 faces: T(2, n) has n bigons and two n-gons, a
    row of n monogons has the monogons and two faces either side."""
    return n + 2


def chain_exterior_counts(kind: str, n: int) -> tuple[int, int]:
    """(dotted, framed) of ``export_exterior``: the negative resolution has
    n + 1 circles for markers and one for double points, and there is one
    framed circle per band or double point."""
    return (n + 1, n) if kind == "M" else (1, n)
