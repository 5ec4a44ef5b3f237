import itertools
import random
import re

import pytest

from smg.diagram import (
    Diagram,
    Node,
    SMGSemanticError,
    SMGSyntaxError,
    enumerate_orientations,
    parse_smg,
    serialize,
)
from smg.fixtures import fixture, fixture_names

ALL = ["circle", "two_loops", "kink", "hopf", "trefoil", "saddle_sphere",
       "sing_sphere", "fr", "d2m5", "d2m6", "d1m5", "d1m6"]


def brute_force_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """Exhaustive search over decoration-preserving rotation-respecting node
    bijections; the independent oracle for canonical codes."""
    if len(d1.nodes) != len(d2.nodes) or len(d1.loops) != len(d2.loops):
        return False
    if sorted(nd.kind for nd in d1.nodes) != sorted(nd.kind for nd in d2.nodes):
        return False
    nodes1 = list(d1.nodes)
    nodes2 = list(d2.nodes)

    def extend(i, used, emap):
        if i == len(nodes1):
            return len(set(emap.values())) == len(emap)
        nd = nodes1[i]
        for cand in nodes2:
            if cand.id in used or cand.kind != nd.kind:
                continue
            rots = (0, 2) if nd.kind == "X" else (0, 1, 2, 3)
            for r in rots:
                if nd.attr is not None and cand.attr != (nd.attr + r) % 2:
                    continue
                em = dict(emap)
                ok = True
                for p in range(4):
                    e1, e2 = nd.ports[p], cand.ports[(p + r) % 4]
                    if em.setdefault(e1, e2) != e2:
                        ok = False
                        break
                if ok and extend(i + 1, used | {cand.id}, em):
                    return True
        return False

    return extend(0, set(), {})


def test_parse_empty_graph_circle():
    d = parse_smg("diagram c\nloop c0\nend\n")
    assert len(d.nodes) == 0 and len(d.loops) == 1
    assert d.validate().ok


def test_parse_fr_node_census():
    d = fixture("fr")
    x, m, s = d.counts
    assert (x, m, s) == (4, 0, 2)
    assert d.validate().ok


def test_parse_unpaired_edge_is_semantic_error():
    bad = "diagram t\nnode a X e1 e2 e2 e3\nnode b X e3 e4 e4 e5\nend\n"
    with pytest.raises(SMGSemanticError, match="unpaired"):
        parse_smg(bad)


def test_parse_syntax_error_carries_line():
    with pytest.raises(SMGSyntaxError) as ei:
        parse_smg("diagram t\nnode a Y e e e e\nend\n")
    assert ei.value.line == 2


def test_serialize_round_trip_corpus():
    for name in ALL:
        d = fixture(name)
        d2 = parse_smg(serialize(d))
        assert d.canonical_code() == d2.canonical_code(), name
        # parse . serialize . parse == parse
        assert serialize(parse_smg(serialize(d2))) == serialize(d2)


def test_validate_port_collision():
    d = Diagram("t", (Node("a", "X", None, ("e", "e", "e", "f")),
                      Node("b", "X", None, ("f", "g", "g", "h")),
                      Node("c", "X", None, ("h", "i", "i", "e"))))
    codes = {i.code for i in d.validate().issues}
    assert "port collision" in codes


def test_validate_rejects_a_piece_placed_twice():
    d = parse_smg("diagram t\nnode k X b a a b\nloop c0\nplace c0 in k.1\nplace c0 in k.2\n"
                  "end\n", allow_invalid=True)
    assert [str(i) for i in d.validate().issues] == ["bad placement: piece c0 placed twice"]


def test_validate_non_spherical_embedding():
    # interleaved petals force genus one
    d = Diagram("t", (Node("a", "X", None, ("e", "f", "e", "f")),))
    codes = {i.code for i in d.validate().issues}
    assert "non-spherical embedding" in codes


#: structure no face can be traced on, with ``validate()``'s report: an
#: unpaired edge, a port collision, and every structural issue at once
MALFORMED = [
    (parse_smg("diagram t\nnode a X e f g h\nnode b X e f g k\nend\n", allow_invalid=True),
     "unpaired edge: edge h has a single endpoint; unpaired edge: edge k has a single endpoint"),
    (Diagram("t", (Node("a", "X", None, ("e", "e", "e", "f")),
                   Node("b", "X", None, ("f", "g", "g", "h")),
                   Node("c", "X", None, ("h", "i", "i", "e")))),
     "port collision: edge e attached 4 times"),
    (Diagram("t", (Node("b", "X", 0, ("e", "f", "g", "h")), Node("a", "M", 2, ("h", "g", "f", "k")),
                   Node("b", "Q", None, ("k", "m", "m", "m")),
                   Node("c", "S", 1, ("n", "p", "q", "q"))), ("c", "l", "l")),
     "duplicate id: repeated node id; duplicate id: repeated loop id; duplicate id: node id "
     "reused as loop id; bad attribute: crossing b carries an attribute; bad attribute: node a "
     "needs axis/side 0 or 1; bad kind: node b kind 'Q'; unpaired edge: edge e has a single "
     "endpoint; port collision: edge m attached 3 times; unpaired edge: edge n has a single "
     "endpoint; unpaired edge: edge p has a single endpoint"),
]


@pytest.mark.parametrize("d, issues", MALFORMED, ids=["unpaired", "collision", "all"])
def test_malformed_structure_raises_semantic_errors(d, issues):
    """``validate()`` reports malformed structure, in the order of its
    checks; every public function that traces faces raises
    SMGSemanticError naming the same issues, never a bare ValueError."""
    from smg.catalog import catalog_map
    from smg.groups import wirtinger_presentation
    from smg.moves import find_sites
    from smg.resolution import NEGATIVE, is_admissible, resolve

    assert str(d.validate()) == issues
    calls = [d.canonical_code, d.faces, lambda: find_sites(d, catalog_map("unoriented")["O1"]),
             lambda: resolve(d, NEGATIVE), lambda: is_admissible(d),
             lambda: wirtinger_presentation(d)]
    for call in calls:
        with pytest.raises(SMGSemanticError, match=f"^{re.escape(issues)}$"):
            call()
    assert str(d.validate()) == issues


def test_canonical_code_relabel_invariance():
    rng = random.Random(11)
    for name in ALL:
        d = fixture(name)
        for _ in range(3):
            nm = {nd.id: f"N{rng.randrange(10**6)}_{nd.id}" for nd in d.nodes}
            em = {e: f"E{i}" for i, e in
                  enumerate(sorted(d.edges, key=lambda _: rng.random()))}
            lm = {l: f"L{i}" for i, l in enumerate(d.loops)}
            d2 = d.relabeled(nm, em, lm)
            assert d2.validate().ok
            assert d.canonical_code() == d2.canonical_code(), name


def test_canonical_code_distinguishes():
    assert fixture("circle").canonical_code() != fixture("two_loops").canonical_code()


def test_canonical_code_agrees_with_brute_force():
    ds = {name: fixture(name) for name in ALL}
    rng = random.Random(5)
    variants = {}
    for name, d in ds.items():
        nm = {nd.id: f"R{rng.randrange(10**5)}" for nd in d.nodes}
        em = {e: f"S{i}" for i, e in enumerate(d.edges)}
        variants[name + "@"] = d.relabeled(nm, em)
    ds.update(variants)
    for (n1, d1), (n2, d2) in itertools.combinations(ds.items(), 2):
        same_code = d1.canonical_code() == d2.canonical_code()
        assert same_code == brute_force_isomorphic(d1, d2), (n1, n2)


def exhaustive_orientation_count(d: Diagram) -> int:
    """Filter all edge-direction assignments by the local flow rules."""
    edges = list(d.edges)
    count = 0
    for bits in itertools.product((0, 1), repeat=len(edges)):
        heads = {e: d.edge_ends[e][b] for e, b in zip(edges, bits)}

        def inflow(n, p):
            e = d.node(n).ports[p]
            return heads[e] == (n, p)

        ok = True
        for nd in d.nodes:
            if nd.kind in ("X", "S"):
                if inflow(nd.id, 0) == inflow(nd.id, 2) or \
                        inflow(nd.id, 1) == inflow(nd.id, 3):
                    ok = False
                    break
            else:
                if any(inflow(nd.id, p) == inflow(nd.id, (p + 1) % 4)
                       for p in range(4)):
                    ok = False
                    break
        if ok:
            count += 1
    return count * (2 ** len(d.loops))


def test_enumerate_orientations_examples_and_oracle():
    assert len(enumerate_orientations(fixture("circle"))) == 2
    assert len(enumerate_orientations(fixture("two_loops"))) == 4
    for name in ALL:
        d = fixture(name)
        got = enumerate_orientations(d)
        assert len(got) == exhaustive_orientation_count(d), name
        assert len(set((o.heads, o.loop_dirs) for o in got)) == len(got)
        # power of two
        assert len(got) & (len(got) - 1) == 0
        for o in got[:4]:
            assert o.validate().ok, name


def t2_text(n: int) -> str:
    """The closed 2-braid T(2, n), its nodes listed along the braid."""
    lines = [f"diagram t2_{n}"]
    for i in range(n):
        j = (i - 1) % n
        lines.append(f"node v{i:05d} X r{j:05d} l{j:05d} l{i:05d} r{i:05d}")
    return "\n".join(lines + ["end"]) + "\n"


def kink_chain_text(kinds: str) -> str:
    """A cycle of nodes of the given kinds (``X``, ``M`` with axis 0 or ``S``
    with side 1), each carrying a monogon on its ports 1 and 2: n kinks in a
    row for ``"X" * n``."""
    n = len(kinds)
    lines = [f"diagram chain_{kinds}"]
    for i, kind in enumerate(kinds):
        attr = {"X": "", "M": " 0", "S": " 1"}[kind]
        lines.append(f"node v{i:05d} {kind}{attr} s{(i - 1) % n:05d} k{i:05d} k{i:05d} s{i:05d}")
    return "\n".join(lines + ["end"]) + "\n"


def with_loop_at(text: str, corner: int) -> str:
    """``text`` with a loop placed at ``corner`` of its first node."""
    return text.replace("end\n", f"loop c0\nplace c0 in v00000.{corner}\nend\n")


def shuffled_naming(d: Diagram, rng: random.Random) -> Diagram:
    """``d`` under seeded node and edge ids that do not keep its order."""
    ids = sorted(nd.id for nd in d.nodes)
    nm = dict(zip(ids, (f"n{k}" for k in rng.sample(range(10 * len(ids)), len(ids)))))
    em = {e: f"e{k}" for k, e in enumerate(rng.sample(sorted(d.edges), len(d.edges)))}
    return d.relabeled(nm, em)


def test_symmetric_pieces_take_a_signature_per_generator(monkeypatch):
    """Every root of T(2,n) ties; the roots an automorphism found so far
    reaches join without a breadth-first signature of their own."""
    import smg.diagram as diagram

    calls = 0
    signature = diagram._signature

    def counted(*args):
        nonlocal calls
        calls += 1
        return signature(*args)

    monkeypatch.setattr(diagram, "_signature", counted)
    rng = random.Random(29)
    for n in (300, 1000):
        kept = parse_smg(t2_text(n))
        for d in (kept, shuffled_naming(kept, rng)):
            calls = 0
            assert len(d.faces().orbits) == n + 2
            assert calls <= 2 + (4 * n).bit_length()
    assert d.canonical_code() == kept.canonical_code()


def test_lost_states_lose_by_orbit(monkeypatch):
    """A root state that loses takes its orbit under the automorphisms
    found so far with it, and a beaten best its tying orbit: on kink rings
    of crossings or double points and on T(2, n), resolved both ways and
    renamed, a code takes a few signatures per generator, not one per
    mirror state (n + 2 on a ring of n kinks when each lost alone)."""
    import smg.diagram as diagram
    from smg.resolution import NEGATIVE, POSITIVE, resolve

    calls = 0
    signature = diagram._signature

    def counted(*args):
        nonlocal calls
        calls += 1
        return signature(*args)

    monkeypatch.setattr(diagram, "_signature", counted)
    rng = random.Random(12)
    for n in (5, 40, 500):
        for text in (kink_chain_text("X" * n), kink_chain_text("S" * n), t2_text(n)):
            for d in (parse_smg(text), shuffled_naming(parse_smg(text), rng)):
                for sign in (POSITIVE, NEGATIVE):
                    c = resolve(d, sign).diagram
                    c = Diagram(c.name, c.nodes, c.loops, c.anchors)    # uncached
                    calls = 0
                    c.canonical_code()
                    assert calls <= 2 + 2 * (4 * n).bit_length(), (text[:20], n, sign, calls)


def test_canonisation_tries_only_least_head_roots(monkeypatch):
    """A signature's first row starts with its root's head, so a root whose
    head exceeds the piece's least head never gets a signature."""
    import smg.diagram as diagram

    tried = []
    signature = diagram._signature

    def checked(table, root, *rest):
        head = table[2]
        tried.append(head[root] == min(head))
        return signature(table, root, *rest)

    monkeypatch.setattr(diagram, "_signature", checked)
    cases = [fixture(name) for name in fixture_names()]
    for n in (1, 2, 3, 7, 16):
        t2 = t2_text(n).replace("node v00000 X", "node v00000 M 0", 1)
        cases += [parse_smg(t2), parse_smg(with_loop_at(t2, 1))]
    for d in cases:
        d = Diagram(d.name, d.nodes, d.loops, d.anchors)     # uncached copy
        d.canonical_code()
        d.faces()
    assert len(tried) > 30 and all(tried)


def test_enumerate_orientations_on_a_thousand_crossings():
    from smg.groups import cyclic_group, hom_count, wirtinger_presentation
    from smg.quandles import coloring_count, dihedral_quandle

    # listing the nodes along the braid chains the strand classes end to end
    d = parse_smg(t2_text(1000))
    assert len(enumerate_orientations(d)) == 4
    # one generator or colour class after another, as deep as the braid
    assert hom_count(wirtinger_presentation(d), cyclic_group(2)) == 4
    assert coloring_count(d, dihedral_quandle(3)) == 3


def test_first_orientation_is_first_enumerated():
    from smg.diagram import _first_orientation
    from smg.resolution import NEGATIVE, POSITIVE, resolve
    from smg.transforms import export_exterior

    def first(x):
        ors = enumerate_orientations(x)
        return ors[0] if ors else None

    # a marker whose bar joins ports 0 and 2 cannot alternate in and out
    cases = [Diagram("bar", (Node("m", "M", 0, ("a", "b", "a", "b")),))]
    for name in fixture_names():
        d = fixture(name)
        cases += [d, resolve(d, POSITIVE).diagram, resolve(d, NEGATIVE).diagram,
                  export_exterior(d).diagram]
    assert first(cases[0]) is None
    for x in cases:
        assert _first_orientation(x) == first(x), x.name


def test_orientation_transport_is_first_agreeing_orientation():
    """An oriented rewrite keeps the head of every surviving edge, the
    inflow at every surviving node port and the heads the replacement side
    declares inside; of the result's orientations that do, it is the first
    one enumerated."""
    from smg.catalog import move_catalog
    from smg.moves import FORWARD, REVERSE, apply_move, find_sites

    checked = 0
    for name in ALL:
        d = fixture(name)
        for od in enumerate_orientations(d):
            for m in move_catalog("oriented"):
                for direction in (FORWARD, REVERSE):
                    for s in find_sites(od, m, direction):
                        res, info = apply_move(od, m, s, return_info=True)
                        out = m.other_side(s.variant, direction)
                        pins = {h: True for e, h in od.heads if e in res.base.edge_ends}
                        for nd in res.base.nodes:
                            if nd.id in d.node_map:
                                for p in range(4):
                                    if nd.ports[p] not in d.edge_ends:
                                        pins[(nd.id, p)] = od.flows_in((nd.id, p))
                        for e in out.interior_edges:
                            h = out.head_map[e]
                            pins[(info["node_ids"][h[0]], h[1])] = True
                        agreeing = [o for o in enumerate_orientations(res.base)
                                    if all(o.flows_in(x) == f for x, f in pins.items())]
                        assert agreeing, (name, m.id, direction, s)
                        assert res.heads == agreeing[0].heads, (name, m.id, direction, s)
                        checked += 1
    assert checked > 1000


def test_oriented_round_trip():
    d = fixture("hopf")
    od = enumerate_orientations(d)[0]
    text = serialize(od)
    od2 = parse_smg(text)
    assert od2.validate().ok
    assert serialize(od2) == text


@pytest.mark.parametrize("text, issues", [
    ("diagram trefoil\n"
     "node t1 X cr cl m1l m1r\nnode t2 X m1r m1l m2l m2r\nnode t3 X m2r m2l cl cr\n"
     "orient cl t1.1 -> t3.2\norient cr t1.0 -> t3.3\norient m1l t1.2 -> t2.1\n"
     "orient m1r t2.0 -> t1.3\norient m2l t3.1 -> t2.2\norient m2r t3.0 -> t2.3\nend\n",
     "bad orientation: no through-flow at t1; bad orientation: no through-flow at t2"),
    ("diagram saddle_sphere\nnode v M 1 a a b b\n"
     "orient a v.0 -> v.1\norient b v.3 -> v.2\nend\n",
     "bad orientation: marker v not alternating"),
], ids=["crossing", "marker"])
def test_strict_orientation_issues_are_pinned(text, issues):
    assert str(parse_smg(text, allow_invalid=True).validate()) == issues
    with pytest.raises(SMGSemanticError, match=issues):
        parse_smg(text)


def test_place_line_round_trip():
    text = ("diagram t\n"
            "node k X b a a b\n"
            "loop c0\n"
            "place c0 in k.1\n"
            "end\n")
    d = parse_smg(text)
    assert d.validate().ok
    assert d.anchor_map["c0"] == ("k", 1)
    assert "place c0 in k.1" in serialize(d)


def test_fixture_names_cover_corpus():
    names = fixture_names()
    for n in ALL:
        assert n in names


def test_placement_changes_the_map():
    inside = parse_smg("diagram t\nnode k X b a a b\nloop c0\nplace c0 in k.1\nend\n")
    outside = parse_smg("diagram t\nnode k X b a a b\nloop c0\nend\n")
    assert inside.canonical_code() != outside.canonical_code()
    relab = inside.relabeled({"k": "z"}, {"a": "p", "b": "q"}, {"c0": "w"})
    assert relab.canonical_code() == inside.canonical_code()


def test_placement_gates_move_sites():
    from smg.catalog import catalog_map
    from smg.moves import FORWARD, REVERSE, find_sites

    cat = catalog_map()
    inside = parse_smg("diagram t\nnode k X b a a b\nloop c0\nplace c0 in k.1\nend\n")
    outside = parse_smg("diagram t\nnode k X b a a b\nloop c0\nend\n")

    def strand_pairs(d):
        return {frozenset(t[1] for t in s.leg_targets)
                for s in find_sites(d, cat["O2"], FORWARD)}

    # inside the monogon the loop can only meet the monogon edge; outside it
    # meets the other side of the strand instead
    assert frozenset(("a", "c0")) in strand_pairs(inside) - strand_pairs(outside)
    assert frozenset(("b", "c0")) in strand_pairs(outside) - strand_pairs(inside)
    # a loop inside a monogon keeps O1 from removing that kink: of the two
    # monogons only the other one, at rotation 2, can go
    bare = parse_smg("diagram t\nnode k X b a a b\nend\n")
    kinks = {s.node_images for s in find_sites(bare, cat["O1"], REVERSE)}
    assert kinks == {(("k", ("k", 0)),), (("k", ("k", 2)),)}
    assert {s.node_images for s in find_sites(inside, cat["O1"], REVERSE)} \
        == {(("k", ("k", 2)),)}


def test_outer_and_face_anchors_sort_together():
    """A loop or piece in the outer face next to one placed in a face."""
    def code(body):
        return parse_smg(f"diagram t\n{body}end\n").canonical_code()

    kink = "node k X b a a b\n"
    mixed = code(kink + "loop c0\nloop c1\nplace c0 in k.1\n")
    assert mixed == code(kink + "loop c0\nloop c1\nplace c1 in k.1\n")
    assert mixed != code(kink + "loop c0\nloop c1\nplace c0 in k.1\nplace c1 in k.1\n")
    # two equal pieces, one inside a face of the other
    two = kink + "node j X d c c d\n"
    assert code(two + "place j in k.1\n") == code(two + "place k in j.1\n")
    assert code(two + "place j in k.1\n") != code(two)


def test_a_place_on_the_hosts_outward_face_is_the_hosts_place():
    """Corner 3 of the kink lies on its outward face, the one merged into
    the face the kink sits in, so a piece placed there sits where the kink
    does: in the outer face, or in the face of a third piece."""
    def parsed(body):
        return parse_smg(f"diagram t\nnode k X b a a b\nnode n X z w w z\n{body}end\n")

    def corner_faces(d):
        f = d.faces()
        return [f.face_of_corner((nid, i)) for nid in sorted(d.node_map) for i in range(4)]

    placed, plain = parsed("place n in k.3\n"), parsed("")
    assert corner_faces(placed) == corner_faces(plain)
    assert placed.canonical_code() == plain.canonical_code()
    # followed through a chain of such places
    nested = parsed("node m X d c c d\nplace m in k.1\nplace n in m.3\n")
    beside = parsed("node m X d c c d\nplace m in k.1\nplace n in k.1\n")
    assert corner_faces(nested) == corner_faces(beside)
    assert nested.canonical_code() == beside.canonical_code()
    assert nested.canonical_code() != parsed("node m X d c c d\nplace m in k.1\n").canonical_code()


#: a host whose O1 reverse site k -> (k, 2) makes the splice write places
#: that run in a cycle: j in q0's outward face and q0 in j's
CYCLE_HOST = ("node j X d c c d\nnode k X b a a b\nnode q0 X t1 t0 t0 t1\n"
              "place j in k.1\nplace q0 in k.1\n")


def cyclic_rewrite() -> Diagram:
    from smg.catalog import catalog_map
    from smg.moves import REVERSE, apply_move, find_sites

    o1 = catalog_map()["O1"]
    host = parse_smg(f"diagram t\n{CYCLE_HOST}end\n")
    site = next(s for s in find_sites(host, o1, REVERSE) if s.node_image_map["k"] == ("k", 2))
    return apply_move(host, o1, site)


def test_places_that_run_in_a_cycle_code_as_the_outer_face():
    """A chain of corners on outward faces that comes back to a piece it
    passed names the outer face, the only face no other piece bounds."""
    d = cyclic_rewrite()
    places = [line for line in serialize(d).splitlines() if line.startswith("place")]
    assert places == ["place j in q0.3", "place q0 in j.3", "place c0 in j.3"]
    assert d.canonical_code() == Diagram("t", d.nodes, d.loops).canonical_code()


def test_places_that_run_in_a_cycle_share_the_outer_face():
    """A piece in the outer face beside the cycle shares its face, so the
    sites are those of the same pieces with no places."""
    from smg.catalog import catalog_map
    from smg.moves import FORWARD, find_sites

    text = serialize(cyclic_rewrite()).replace("end\n", "node m X f e e f\nend\n")
    placed = parse_smg(text)
    plain = Diagram("t", placed.nodes, placed.loops)
    assert placed.faces().face_of_corner(("j", 3)) == placed.faces().face_of_corner(("m", 3))
    o2 = catalog_map()["O2"]
    assert len(find_sites(placed, o2, FORWARD)) == len(find_sites(plain, o2, FORWARD)) == 48


#: per case, the places of the kink with a loop ``c0`` that name no corner
BAD_PLACES = {"unknown-node": (("c0", ("zz", 1)),),
              "port-past-3": (("c0", ("k", 7)),),
              "unknown-piece": (("c9", ("k", 1)),)}


@pytest.mark.parametrize("call", ["canonical_code", "find_sites", "faces", "semi_transform",
                                  "export_exterior"])
@pytest.mark.parametrize("case", list(BAD_PLACES))
def test_places_that_name_no_corner_are_typed_errors(case, call):
    """Every reader of places raises the issues ``validate()`` reports."""
    from smg.catalog import catalog_map
    from smg.moves import FORWARD, find_sites
    from smg.transforms import M5, export_exterior, semi_transform

    d = Diagram("t", fixture("kink").nodes, ("c0",), BAD_PLACES[case])
    calls = {"canonical_code": lambda: d.canonical_code(),
             "find_sites": lambda: find_sites(d, catalog_map()["O2"], FORWARD),
             "faces": lambda: d.faces(),
             "semi_transform": lambda: semi_transform(d, M5),
             "export_exterior": lambda: export_exterior(d)}
    report = d.validate()
    assert not report.ok
    with pytest.raises(SMGSemanticError, match=f"^{re.escape(str(report))}$"):
        calls[call]()


def reference_signature(d: Diagram, root) -> tuple:
    """The full breadth-first signature from ``root``, read with string
    darts; the same rows the canonical code is built from.  Returns it with
    the number and the entry port of every node."""
    labels, rots, order = {}, {}, []

    def visit(nid, q):
        labels[nid] = len(order)
        rots[nid] = q - q % 2 if d.node(nid).kind == "X" else q
        order.append(nid)

    visit(*root)
    sig = []
    for nid in order:
        nd, r = d.node(nid), rots[nid]
        row = [nd.kind, None if nd.attr is None else (nd.attr - r) % 2]
        for k in range(4):
            m, q = d.alpha((nid, (r + k) % 4))
            if m not in labels:
                visit(m, q)
            row.append((labels[m], (q - rots[m]) % 4))
        sig.append(tuple(row))
    return tuple(sig), labels, rots


def reference_piece_canon(d: Diagram) -> dict:
    """Per piece, the least signature over all ``4n`` roots and every root
    that reaches it, in root order."""
    out = {}
    for piece in d.graph_pieces:
        sigs = {(n, p): reference_signature(d, (n, p))[0]
                for n in sorted(piece) for p in range(4)}
        best = min(sigs.values())
        out[min(piece)] = (best, tuple(r for r, s in sigs.items() if s == best))
    return out


def reference_faces(d: Diagram) -> tuple[dict, dict]:
    """Per corner ``(node, k)`` its orbit's index and degree and its face,
    and per loop its face, traced with string darts.

    An orbit is a cycle of ``phi``: cross the edge, then rotate one port.
    Orbits are numbered piece after piece in the order of their first dart,
    node ids sorted, then ports.  Piece after piece, placement joins the
    orbit of the piece's first minimizing root to the face the piece is
    anchored in (the outer face ``-1`` by default), and the joined face
    keeps the anchor face's name."""
    orbit_of, degree = {}, []
    for piece in d.graph_pieces:
        for start in ((n, p) for n in sorted(piece) for p in range(4)):
            if start in orbit_of:
                continue
            degree.append(0)
            cur = start
            while cur not in orbit_of:
                orbit_of[cur] = len(degree) - 1
                degree[-1] += 1
                m, q = d.alpha(cur)
                cur = (m, (q + 1) % 4)

    def anchored(pid):
        anchor = d.anchor_map.get(pid)
        return -1 if anchor is None else orbit_of[(anchor[0], (anchor[1] + 1) % 4)]

    face = {i: i for i in range(-1, len(degree))}
    for pid, (_, roots) in reference_piece_canon(d).items():
        old, new = face[min(orbit_of[r] for r in roots)], face[anchored(pid)]
        face = {i: new if f == old else f for i, f in face.items()}
    corners = {}
    for (n, p), i in orbit_of.items():
        corners[(n, (p - 1) % 4)] = (i, degree[i], face[i])
    return corners, {l: face[anchored(l)] for l in d.loops}


def reference_face_name(d: Diagram, corner) -> tuple:
    """The face orbit at ``corner``, renumbered as the signature of each
    minimizing root of its piece numbers it; the least of these names."""
    n, k = corner
    orbit, cur = [], (n, (k + 1) % 4)
    while cur not in orbit:
        orbit.append(cur)
        m, q = d.alpha(cur)
        cur = (m, (q + 1) % 4)
    pid = min(next(piece for piece in d.graph_pieces if n in piece))
    names = []
    for root in reference_piece_canon(d)[pid][1]:
        _, labels, rots = reference_signature(d, root)
        names.append(tuple(sorted((labels[m], (q - rots[m]) % 4) for m, q in orbit)))
    return min(names)


def anchored_hosts() -> list[Diagram]:
    """Components placed in faces, next to ones in the outer face."""
    kinks = "node k X b a a b\nnode j X d c c d\n"
    bodies = ["node k X b a a b\nloop c0\nloop c1\nplace c0 in k.1\n",
              kinks + "loop c0\nplace j in k.1\nplace c0 in j.3\n",
              kinks + "place k in j.1\n"]
    return [parse_smg(f"diagram t\n{body}end\n") for body in bodies]


#: targets a search reached from two_loops and circle but could not replay
REPLAY_TARGETS = ["node q0 X t1 t0 t0 t1\nloop c0\nplace c0 in q0.3\n",
                  "node q0 X t4 t6 t5 t3\nnode q1 X t4 t3 t2 t2\nnode q2 X t6 t1 t1 t5\n"]


def test_every_site_found_applies():
    """find_sites is the only validation: every site it returns applies,
    under both catalogs, on the fixtures, on hosts with components placed
    in faces, and on those of their one-move rewrites (one per canonical
    code) that still place a graph piece, where a rewrite has to carry the
    place."""
    from smg.catalog import move_catalog
    from smg.diagram import _first_orientation
    from smg.moves import FORWARD, REVERSE, apply_move, find_sites

    unoriented, oriented = move_catalog("unoriented"), move_catalog("oriented")

    def rewrites(d, catalog):
        return [apply_move(d, m, s) for m in catalog for direction in (FORWARD, REVERSE)
                for s in find_sites(d, m, direction)]

    hosts = anchored_hosts() + [parse_smg(f"diagram t\n{body}end\n") for body in REPLAY_TARGETS]
    placed = {r.canonical_code(): r for d in hosts for r in rewrites(d, unoriented)
              if any(a is not None and pid in r.node_map for pid, a in r.anchors)}
    assert len(placed) > 50
    applied = 0
    for d in [fixture(name) for name in fixture_names()] + hosts + list(placed.values()):
        applied += len(rewrites(d, unoriented))
        od = _first_orientation(d)
        if od is not None:
            applied += len(rewrites(od, oriented))
    assert applied > 20000


def test_joined_piece_keeps_its_host_place():
    """O2 between a piece placed in a face and the piece it sits in joins
    them; the joined piece keeps the place of the outer one."""
    from smg.catalog import catalog_map
    from smg.moves import FORWARD, apply_move, find_sites

    o2 = catalog_map()["O2"]
    assert [len(find_sites(d, o2, FORWARD)) for d in anchored_hosts()] == [20, 28, 12]
    # k holds j, j holds i; joining i and j leaves the joined piece in k
    host = parse_smg("diagram t\nnode k X b a a b\nnode j X d c c d\nnode i X f e e f\n"
                     "place j in k.1\nplace i in j.1\nend\n")
    joined = [apply_move(host, o2, s) for s in find_sites(host, o2, FORWARD)
              if {t[1] for t in s.leg_targets} == {"c", "f"}]
    body = ("node k X b a a b\nnode j X d y x d\nnode i X w e e v\n"
            "node p X u x v z\nnode q X u z w y\n")
    want = parse_smg(f"diagram t\n{body}place i in k.1\nend\n")
    assert parse_smg(f"diagram t\n{body}end\n").canonical_code() != want.canonical_code()
    assert joined and all(d.canonical_code() == want.canonical_code() for d in joined)


def test_place_follows_the_surviving_nodes_of_its_piece():
    """Undoing the kink at a placed piece's smallest node keeps the place."""
    from smg.catalog import catalog_map
    from smg.moves import REVERSE, apply_move, find_sites

    o1 = catalog_map()["O1"]
    for corner in (0, 1, 2):    # the corners of k not in the outer face
        host = parse_smg("diagram t\nnode k X b a a b\nnode m X y x x z\nnode n X z w w y\n"
                         f"place m in k.{corner}\nend\n")
        want = parse_smg(f"diagram t\nnode k X b a a b\nnode n X z w w z\n"
                         f"place n in k.{corner}\nend\n")
        sites = [s for s in find_sites(host, o1, REVERSE) if s.node_image_map["k"][0] == "m"]
        assert sites
        for s in sites:
            out = apply_move(host, o1, s)
            assert out.anchor_map == {"n": ("k", corner)}
            assert out.canonical_code() == want.canonical_code()


def test_bounded_canonicalisation_matches_unbounded_reference():
    from smg.catalog import move_catalog
    from smg.moves import FORWARD, REVERSE, apply_move, find_sites

    cases = []
    for d in [fixture(name) for name in fixture_names()] + anchored_hosts():
        cases.append(d)
        for m in move_catalog("unoriented"):
            for direction in (FORWARD, REVERSE):
                cases += [apply_move(d, m, s) for s in find_sites(d, m, direction)]
    rng = random.Random(23)
    for n in (2, 3, 7, 16, 40):
        cases.append(shuffled_naming(parse_smg(t2_text(n)), rng))
    # partly symmetric pieces: automorphisms that reach some roots, not all
    for n in (1, 2, 3, 6):
        t2 = t2_text(n)
        texts = [kink_chain_text(kind * n) for kind in ("X", "M", "S", "XM", "XXS")]
        texts.append(t2.replace("node v00000 X", "node v00000 M 0", 1))
        texts += [with_loop_at(text, k) for text in (t2, kink_chain_text("M" * n))
                  for k in range(4)]
        for text in texts:
            d = parse_smg(text)
            cases += [d, shuffled_naming(d, rng)]
    assert len(cases) > 1600
    for d in cases:
        assert {pid: canon[:2] for pid, canon in d._piece_canon.items()} == \
            reference_piece_canon(d), serialize(d)
        # validate() counts the faces it checks Euler's formula with on the
        # same orbits that Faces reads
        assert d.validate().ok
        faces = d.faces()
        corners, loops = reference_faces(d)
        assert len(faces.orbits) == len({i for i, _, _ in corners.values()})
        for corner, want in corners.items():
            i = faces.orbit_of_corner_index(corner)
            assert (i, faces.orbit_degree(i), faces.face_of_corner(corner)) == want
        assert {l: faces.face_of_loop(l) for l in d.loops} == loops, serialize(d)
        for _, anchor in d.anchors:
            if anchor is not None:
                host, orbit = faces.piece_of_corner(anchor), faces.orbit_of_corner(anchor)
                assert d._canonical_face_name(host, orbit) == reference_face_name(d, anchor)


def test_face_ids_are_pinned():
    """``face_of_corner`` and ``face_of_loop`` on the fixtures, one rewrite
    of each (the last O2 forward site, or O1 where O2 has none), and the
    same for the anchored hosts; the digest was recorded before faces were
    traced on integer darts."""
    import hashlib

    from smg.catalog import catalog_map
    from smg.moves import FORWARD, apply_move, find_sites

    cat = catalog_map()
    cases = []
    for d in [fixture(name) for name in fixture_names()] + anchored_hosts():
        sites = find_sites(d, cat["O2"], FORWARD)
        move = cat["O2"] if sites else cat["O1"]
        site = (sites or find_sites(d, move, FORWARD))[-1]
        cases += [d, apply_move(d, move, site)]
    ids = []
    for d in cases:
        faces = d.faces()
        ids.append(([faces.face_of_corner((nd.id, k)) for nd in d.nodes for k in range(4)],
                    [faces.face_of_loop(l) for l in d.loops]))
    assert hashlib.sha256(repr(ids).encode()).hexdigest()[:16] == "261130f8d3d23818"


def test_rewritten_diagram_is_freed_without_the_cycle_collector():
    """The cached dart table and Faces hold no reference back to their
    diagram, so a dropped diagram is freed at once, not by the cyclic
    garbage collector."""
    import gc
    import weakref

    from smg.catalog import catalog_map
    from smg.moves import FORWARD, apply_move, find_sites

    d = fixture("fr")
    move = catalog_map()["O2"]
    site = find_sites(d, move, FORWARD)[-1]
    gc.collect()
    gc.disable()
    try:
        r = apply_move(d, move, site)
        assert r.validate().ok
        r.faces()
        r.canonical_code()
        ref = weakref.ref(r)
        del r
        assert ref() is None
    finally:
        gc.enable()


def test_fresh_ids_are_the_smallest_unused():
    """New ids fill the gaps the host's ids leave, prefix by prefix."""
    from smg.catalog import catalog_map
    from smg.moves import FORWARD, REVERSE, apply_move, find_sites
    from smg.resolution import POSITIVE, resolve

    host = parse_smg("diagram gaps\n"
                     "node q1 M 0 t0 r0 r0 t2\n"
                     "node x X t2 r2 r2 t0\n"
                     "node q5 M 0 k0 k0 k1 k1\n"
                     "node z X u v v u\n"
                     "loop c1\n"
                     "end\n")

    def new(after, before):
        return sorted(set(after) - set(before))

    o1 = catalog_map()["O1"]
    # a kink on k0: one node, its monogon edge and the two halves of k0
    out, info = apply_move(host, o1, find_sites(host, o1, FORWARD)[0], return_info=True)
    assert info == {"int_eids": {"a": "t1"}, "node_ids": {"k": "q0"}}
    assert new(out.edges, host.edges) == ["t1", "t3", "t4"]
    # undoing the kink z leaves a loop
    site = next(s for s in find_sites(host, o1, REVERSE) if s.node_image_map["k"][0] == "z")
    assert new(apply_move(host, o1, site).loops, host.loops) == ["c0"]
    res = resolve(host, POSITIVE).diagram
    assert new(res.edges, host.edges) == ["r1", "r3", "r4", "r5"]
    assert new(res.loops, host.loops) == ["c0", "c2"]
