import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from smg.diagram import (Diagram, Node, SMGSemanticError, enumerate_orientations, parse_smg,
                         serialize)
from smg.fixtures import fixture
from smg.groups import abelianization, hom_count, groups_up_to_order, wirtinger_presentation
from smg.quandles import (FOUR_QUANDLE, coloring_count, dihedral_quandle, small_quandles,
                          trivial_quandle)
from smg.resolution import NEGATIVE, classical_components, resolve
from smg.transforms import (
    KirbyDiagram,
    export_exterior,
    kirby_group,
    profile,
    semi_transform,
)

ORIENTABLE = ["circle", "two_loops", "kink", "hopf", "trefoil",
              "saddle_sphere", "sing_sphere", "fr", "d2m5", "d2m6",
              "d1m5", "d1m6"]


def test_semi_transform_identity_on_classical():
    for name in ("circle", "hopf", "trefoil"):
        d = fixture(name)
        for kind in ("M5", "M6"):
            out = semi_transform(d, kind)
            assert out.canonical_code() == d.canonical_code()


def chain(kind: str, n: int):
    """n vertices in a row, each with a monogon (``perfbench.families.chain``)."""
    attr = 0 if kind == "M" else 1
    return parse_smg(f"diagram chain_{kind}\n" + "".join(
        f"node v{i} {kind} {attr} s{(i - 1) % n} k{i} k{i} s{i}\n" for i in range(n)) + "end\n")


def test_semi_transform_applies_each_replacement_once(monkeypatch):
    """Every vertex is replaced in one pass: the result is spliced and
    validated once, and the move engine finds and applies no site.  A move,
    oriented or not, and a resolution are one splice and one validation
    too: there is no second rewriter."""
    from dataclasses import replace

    import smg
    from smg.catalog import catalog_map
    from smg.moves import FORWARD, REVERSE, find_sites

    kink = fixture("kink")
    o1, g1 = catalog_map("unoriented")["O1"], catalog_map("oriented")["G1"]
    oriented = enumerate_orientations(kink)[0]
    moves = [(kink, o1, find_sites(kink, o1, REVERSE)[0]),
             (oriented, g1, find_sites(oriented, g1, FORWARD)[0])]
    calls = Counter()
    real_validate = Diagram.validate

    def validate(self):
        calls["validate"] += 1
        return real_validate(self)

    monkeypatch.setattr(Diagram, "validate", validate)
    for name in ("find_sites", "_sites", "apply_move", "_splice"):
        for module in (smg.moves, smg.resolution, smg.transforms, smg):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, name=name, real=real, **kw:
                                    calls.update([name]) or real(*a, **kw))
    for kind in ("M", "S"):
        d = chain(kind, 64)
        for f in (lambda d: semi_transform(d, "M5"), lambda d: semi_transform(d, "M6"),
                  export_exterior, lambda d: resolve(replace(d), NEGATIVE)):
            calls.clear()
            f(d)
            assert calls == {"_splice": 1, "validate": 1}, kind
    for d, move, site in moves:
        calls.clear()
        smg.moves.apply_move(d, move, site)
        assert calls == {"apply_move": 1, "_splice": 1, "validate": 1}, move.id


def test_thousand_vertex_chains():
    """Chains of 10^3 markers or double points: one circle per smoothing
    arc, one dotted circle per negative-resolution circle and one framed
    circle per vertex."""
    n = 1000
    for kind, loops, counts in (("M", (1, n + 1), (n + 1, n)), ("S", (0, 0), (1, n))):
        d = chain(kind, n)
        m5, m6 = semi_transform(d, "M5"), semi_transform(d, "M6")
        assert (len(m5.loops), len(m6.loops)) == loops, kind
        assert m5.is_classical() and m6.is_classical()
        assert export_exterior(d).counts() == counts, kind


def test_bad_arguments_raise_typed_errors():
    d = fixture("saddle_sphere")
    with pytest.raises(SMGSemanticError, match="bad sign"):
        resolve(d, "sideways")
    with pytest.raises(SMGSemanticError, match="M5 or M6"):
        semi_transform(d, "M7")
    # no orientation fits: around a marker the flow alternates in and out
    d = parse_smg("diagram t\nnode m M 0 e0 e1 e2 e3\nnode x X e0 e3 e2 e1\nend\n")
    with pytest.raises(SMGSemanticError, match="not orientable"):
        kirby_group(KirbyDiagram(d, (), ()))


#: small hosts with markers and double points, one with a placed piece
PLACED_HOSTS = [
    "node m M 0 bo ao bl al\nnode x X al bl ao bo\n",
    "node m S 0 bo ao bl al\nnode x X al bl ao bo\n",
    "node v M 1 a a b b\n",
    "node v S 0 a a b b\n",
    "node m M 0 a a b c\nnode s S 0 b c w w\n",
    "node v M 1 a a b b\nnode k X d c c d\nplace k in v.0\n",
    "node c1 X e3 aN e2 aW\nnode c2 X aN e3 aE tipE\nnode c3 X aE e5 aS tipE\n"
    "node c4 X e5 aW e6 aS\nnode s1 S 0 e2 mt mb e6\nnode s2 S 1 mt h h mb\n",
    "node m M 1 bo ao bl al\nnode n S 0 al bl ao bo\n",
    "node t1 M 0 cr cl m1l m1r\nnode t2 X m1r m1l m2l m2r\nnode t3 S 1 m2r m2l cl cr\n",
    "node v0 M 0 s2 k0 k0 s0\nnode v1 M 1 s0 k1 k1 s1\nnode v2 S 0 s1 k2 k2 s2\n",
]


def test_transforms_see_faces_not_corners():
    """A loop, or a piece with a marker, placed at any corner of one face of
    the host gives the same transforms: a place at a replaced vertex's
    corner lands in the face that the corner's face becomes."""
    from tests.test_diagram import anchored_hosts

    mover = Node("zv", "M", 1, ("za", "za", "zb", "zb"))
    hosts = [parse_smg(f"diagram h\n{body}end\n") for body in PLACED_HOSTS] + anchored_hosts()
    pairs = 0
    for host in hosts:
        faces = host.faces()
        by_face = {}
        for nd in host.nodes:
            for k in range(4):
                placed = (Diagram(host.name, host.nodes, host.loops + ("z",),
                                  host.anchors + (("z", (nd.id, k)),)),
                          Diagram(host.name, host.nodes + (mover,), host.loops,
                                  host.anchors + (("zv", (nd.id, k)),)))
                codes = [(semi_transform(d, "M5").canonical_code(),
                          semi_transform(d, "M6").canonical_code(),
                          export_exterior(d).diagram.canonical_code()) for d in placed]
                by_face.setdefault(faces.face_of_corner((nd.id, k)), []).append(codes)
        for codes in by_face.values():
            assert codes == codes[:1] * len(codes), serialize(host)
            pairs += len(codes) * (len(codes) - 1) // 2
    assert pairs == 98


def test_semi_transform_output_is_classical():
    for name in ("fr", "d2m5", "d2m6", "saddle_sphere"):
        for kind in ("M5", "M6"):
            assert semi_transform(fixture(name), kind).is_classical()


def test_separation_m5():
    p1 = profile(semi_transform(fixture("d1m5"), "M5"))
    p2 = profile(semi_transform(fixture("d2m5"), "M5"))
    assert p1.is_trivial()
    assert 1 in p2.linking
    assert p1 != p2


def test_separation_m6():
    p1 = profile(semi_transform(fixture("d1m6"), "M6"))
    p2 = profile(semi_transform(fixture("d2m6"), "M6"))
    assert p1.is_trivial()
    assert 1 in p2.linking
    assert p1 != p2


def test_profile_crossingless_unlinks_trivial():
    for name in ("circle", "two_loops", "three_loops"):
        assert profile(fixture(name)).is_trivial()


def test_profile_hopf_linking_one():
    assert profile(fixture("hopf")).linking == (1,)


def test_profile_split_loop_insensitive():
    for name in ("hopf", "trefoil", "kink"):
        d = fixture(name)
        text = "\n".join(l for l in __import__("smg.diagram", fromlist=["serialize"])
                         .serialize(d).splitlines() if l != "end")
        bigger = parse_smg(text + "\nloop extra\nend\n")
        assert profile(d) == profile(bigger), name


def test_an_empty_panel_gives_no_rates():
    assert profile(fixture("hopf"), ()).rates == ()


def summed_rates(c, panel):
    """The rates as a sum over every orientation, one count each: the loop
    that the doubled tables replaced, kept as the oracle."""
    comps = classical_components(c)
    orientations = enumerate_orientations(c)
    rates = []
    for idx, q in enumerate(panel):
        if q.is_involutory():   # op_inv == op: the count is orientation-free
            total = coloring_count(c, q) * len(orientations)
        else:
            total = sum(coloring_count(c, q, o) for o in orientations)
        rates.append((f"q{q.n}.{idx}", str(Fraction(total, (2 * q.n) ** len(comps)))))
    return tuple(rates)


PANELS = (small_quandles(4), (FOUR_QUANDLE, dihedral_quandle(5)))


@lru_cache(maxsize=None)
def criterion_6_inputs() -> tuple:
    """The classical diagrams whose profiles acceptance criterion 6 compares:
    both transforms of its nine hosts and of every unoriented rewrite of
    them, one per canonical code."""
    from smg.catalog import move_catalog
    from smg.moves import FORWARD, REVERSE, apply_move, find_sites

    cat = move_catalog("unoriented")
    found = {}
    for name in ORIENTABLE:
        if name in ("fr", "hopf", "trefoil"):
            continue
        d = fixture(name)
        for d2 in [d] + [apply_move(d, m, s) for m in cat for direction in (FORWARD, REVERSE)
                         for s in find_sites(d, m, direction)]:
            for kind in ("M5", "M6"):
                c = semi_transform(d2, kind)
                found.setdefault(c.canonical_code(), c)
    return tuple(found.values())


def clasped_circles(k: int) -> Diagram:
    """A chain of ``k >= 2`` circles in a row, each clasping the next in a
    Hopf clasp: circle ``i`` is over at the upper crossing ``T{i}`` with
    circle ``i + 1`` and under at the lower one ``B{i}``.  Its arcs are
    ``t``op, ``l``eft, ``b``ottom and ``r``ight; the end circles have one
    arc for top and bottom.  At ``k = 2`` this is the fixture ``hopf``."""
    top = {i: f"t{i}" for i in range(1, k + 1)}
    bot = {i: top[i] if i in (1, k) else f"b{i}" for i in range(1, k + 1)}
    lines = []
    for i in range(1, k):
        lines.append(f"node T{i} X {top[i + 1]} {top[i]} l{i + 1} r{i}")
        lines.append(f"node B{i} X r{i} l{i + 1} {bot[i]} {bot[i + 1]}")
    return parse_smg(f"diagram chain{k}\n" + "\n".join(lines) + "\nend\n")


def split_links(seed: int, max_components: int = 10) -> Diagram:
    """Kinks, trefoils, Hopf links, chains of three circles and loops side
    by side, each mirrored or not, drawn by ``seed`` while the union has at
    most ``max_components`` components."""
    rng = random.Random(seed)
    pieces = [("kink", 1), ("trefoil", 1), ("hopf", 2), ("chain3", 3), ("circle", 1)]
    nodes, loops, comps = [], [], 0
    for i in range(rng.randrange(1, 8)):
        name, size = rng.choice(pieces)
        if comps + size > max_components:
            break
        comps += size
        d = clasped_circles(3) if name == "chain3" else fixture(name)
        turn = rng.randrange(2)   # a mirror turns every crossing's ports by one
        nodes += [Node(f"p{i}.{nd.id}", nd.kind, nd.attr,
                       tuple(f"p{i}.{nd.ports[(p + turn) % 4]}" for p in range(4)))
                  for nd in d.nodes]
        loops += [f"p{i}.{l}" for l in d.loops]
    return Diagram(f"split{seed}", tuple(nodes), tuple(loops))


def test_profiles_equal_the_sum_over_orientations():
    """One count per table on one orientation, by the doubled table unless
    the table is involutory, against the sum over every orientation:
    criterion 6's inputs, seeded split links of up to 10 components and
    chains of 3-6 clasped circles, under the default panel and a panel of
    the paper's quandle and R5."""
    links = [split_links(seed) for seed in range(12)]
    chains = [clasped_circles(k) for k in range(3, 7)]
    assert max(len(classical_components(c)) for c in links) == 10
    assert [profile(c).linking for c in chains] == [(1,) * (k - 1) for k in range(3, 7)]
    inputs = criterion_6_inputs() + tuple(links) + tuple(chains)
    for c in inputs:
        for panel in PANELS:
            assert profile(c, panel).rates == summed_rates(c, panel), c.name
    assert profile(clasped_circles(2)) == profile(fixture("hopf"))


def test_profile_of_twenty_split_loops_is_one_count_per_table():
    """A kink and 20 loops have 2^21 orientations; the doubled table
    counts them all at once."""
    d = parse_smg("diagram k\nnode k X b a a b\n"
                  + "".join(f"loop l{i}\n" for i in range(20)) + "end\n")
    start = time.perf_counter()
    p = profile(d)
    assert time.perf_counter() - start < 1.0
    assert p.is_trivial() and len(p.rates) == len(small_quandles(4))


def test_a_chain_of_twenty_clasped_circles_counts_in_time():
    """A chain of 20 circles has 2^20 orientations and 4^20 colourings by
    the trivial table of order 4; each count sums along the chain, keeping
    only the colours that the next clasp reads, so neither is listed."""
    d = clasped_circles(20)
    start = time.perf_counter()
    assert coloring_count(d, trivial_quandle(4)) == 4 ** 20
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    p = profile(d)
    assert time.perf_counter() - start < 1.0
    assert p.linking == (1,) * 19 and len(p.rates) == len(small_quandles(4))


def test_export_circle():
    k = export_exterior(fixture("circle"))
    assert k.counts() == (1, 0)


def test_export_one_marker_sphere():
    k = export_exterior(fixture("saddle_sphere"))
    assert k.counts() == (2, 1)


def test_export_counts_formula():
    for name in ORIENTABLE:
        d = fixture(name)
        k = export_exterior(d)
        x, m, s = d.counts
        assert k.counts() == (resolve(d, NEGATIVE).component_count(), m + s), name


def test_export_serialization():
    k = export_exterior(fixture("saddle_sphere"))
    text = k.serialize()
    assert "dot " in text and "frame " in text and text.rstrip().endswith("end")


def test_kirby_group_circle():
    k = export_exterior(fixture("circle"))
    p = kirby_group(k)
    assert p.ngens == 1 and p.relators == ()


def test_kirby_group_one_marker_sphere_is_z():
    p = kirby_group(export_exterior(fixture("saddle_sphere")))
    ab = abelianization(p)
    assert ab.free_rank == 1 and ab.torsion == ()


def test_cross_pipeline_abelianization():
    for name in ORIENTABLE:
        d = fixture(name)
        if not enumerate_orientations(d):
            continue
        ab_k = abelianization(kirby_group(export_exterior(d)))
        ab_w = abelianization(wirtinger_presentation(d))
        assert str(ab_k) == str(ab_w), name


def test_cross_pipeline_homs_on_admissible_fixtures():
    # the exterior recipe presents the complement of an actual surface, so
    # finite-quotient counts are compared on the admissible corpus (plus the
    # kinked unknot, whose sole crossing is its own over-pass)
    for name in ("circle", "two_loops", "kink", "saddle_sphere",
                 "sing_sphere", "fr", "d2m5", "d2m6", "d1m5", "d1m6"):
        d = fixture(name)
        kg = kirby_group(export_exterior(d))
        w = wirtinger_presentation(d)
        for gname, g in groups_up_to_order(6):
            assert hom_count(kg, g) == hom_count(w, g), (name, gname)
