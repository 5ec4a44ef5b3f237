import hashlib
from functools import lru_cache

import pytest

from smg.catalog import move_catalog
from smg.diagram import MARKER, OrientedDiagram
from smg.fixtures import fixture, fixture_names
from smg.groups import (
    Presentation,
    abelianization,
    abstract_orientation,
    cyclic_group,
    groups_up_to_order,
    hom_count,
    smith_normal_form,
    tietze_simplify,
    wirtinger_presentation,
)
from smg.moves import FORWARD, REVERSE, apply_move, find_sites
from smg.resolution import NEGATIVE, resolve


@lru_cache(maxsize=None)
def fixtures_and_first_rewrites() -> tuple:
    """Every fixture, each followed by its rewrite at the first site of
    every move and direction that has one."""
    out = []
    for name in fixture_names():
        d = fixture(name)
        out.append(d)
        for m in move_catalog("unoriented"):
            for direction in (FORWARD, REVERSE):
                site = next(iter(find_sites(d, m, direction)), None)
                if site is not None:
                    out.append(apply_move(d, m, site))
    return tuple(out)


def surface_component_count(d):
    """Independent count of surface components: trace edges through nodes,
    joining both strands at markers and each strand at crossings and double
    points."""
    parent = {e: e for e in list(d.edges) + list(d.loops)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for nd in d.nodes:
        if nd.kind == MARKER:
            for p in range(3):
                union(nd.ports[p], nd.ports[p + 1])
        else:
            union(nd.ports[0], nd.ports[2])
            union(nd.ports[1], nd.ports[3])
    return len({find(x) for x in parent})


def test_wirtinger_circle():
    p = wirtinger_presentation(fixture("circle"))
    assert p.ngens == 1 and p.relators == ()


def test_wirtinger_saddle_sphere_simplifies_to_free_rank_one():
    p = wirtinger_presentation(fixture("saddle_sphere"))
    simp = tietze_simplify(p)
    assert simp.ngens == 1 and simp.relators == ()


def arc_count_of_resolution(d):
    """Independent count of the drawn components of the negative resolution:
    every circle contributes one arc per under-pass, or a single arc when it
    never dives under anything."""
    r = resolve(d, NEGATIVE)
    c = r.diagram
    breaks = {}
    for nd in c.nodes:
        if nd.id in r.snode_rot:
            continue  # a resolved double point does not cut the strands
        comp = r.component_of[nd.ports[0]]
        breaks[comp] = breaks.get(comp, 0) + 1
    total = 0
    for i in range(r.component_count()):
        total += max(breaks.get(i, 0), 1)
    return total


def test_wirtinger_generator_count_is_negative_resolution_components():
    for name in ("circle", "saddle_sphere", "fr", "d2m5", "d2m6", "sing_sphere",
                 "trefoil", "hopf", "kink"):
        d = fixture(name)
        p = wirtinger_presentation(d)
        assert p.ngens == arc_count_of_resolution(d), name


def test_fr_abelianization_matches_surface_components():
    d = fixture("fr")
    ab = abelianization(wirtinger_presentation(d))
    assert ab.free_rank == surface_component_count(d) == 2
    assert ab.torsion == ()


def test_tietze_eliminates_isolated_generator():
    p = Presentation(2, ((2, -1),))   # <a,b | b a^-1>
    simp = tietze_simplify(p)
    assert simp.ngens == 1 and simp.relators == ()


def test_tietze_fixed_point():
    p = Presentation(1, ())
    assert tietze_simplify(p) == p


def test_tietze_preserves_abelianization_and_homs():
    for name in ("fr", "d2m5", "saddle_sphere", "d1m6"):
        p = wirtinger_presentation(fixture(name))
        simp = tietze_simplify(p)
        assert str(abelianization(p)) == str(abelianization(simp)), name
        for gname, g in groups_up_to_order(6):
            assert hom_count(p, g) == hom_count(simp, g), (name, gname)


def test_abelianization_examples():
    assert abelianization(Presentation(2, ((1, 2, -1, -2),))).free_rank == 2
    assert str(abelianization(wirtinger_presentation(fixture("circle")))) == "Z"
    ab = abelianization(Presentation(1, ((1, 1),)))
    assert ab.free_rank == 0 and ab.torsion == (2,)


def test_smith_normal_form_divisibility():
    diag = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0


def test_hom_count_trivial_target():
    for name in ("fr", "trefoil"):
        p = wirtinger_presentation(fixture(name))
        assert hom_count(p, cyclic_group(1)) == 1


def test_hom_count_circle_to_cyclic():
    p = wirtinger_presentation(fixture("circle"))
    for n in (2, 3, 5, 7):
        assert hom_count(p, cyclic_group(n)) == n


def test_group_tables_are_groups():
    for _, g in groups_up_to_order(8):
        g.check()
    assert len(groups_up_to_order(6)) == 8
    assert len(groups_up_to_order(8)) == 14


def test_presentation_printing():
    p = Presentation(2, ((1, -2),))
    assert "g1" in str(p) and "g2^-1" in str(p)


def test_presentations_are_pinned():
    """Wirtinger presentations and their Tietze simplifications of every
    fixture and of its first rewrites, byte for byte."""
    h = hashlib.sha256()
    for d in fixtures_and_first_rewrites():
        p = wirtinger_presentation(d)
        h.update(f"{p}\n{tietze_simplify(p)}\n".encode())
    assert h.hexdigest()[:16] == "c474d39a2bb9ad05"


def test_abstract_orientation_is_a_valid_abstract_orientation():
    for d in fixtures_and_first_rewrites():
        ao = abstract_orientation(d)
        assert isinstance(ao, OrientedDiagram) and ao.abstract and ao.base is d
        assert ao.validate().ok, (d.name, str(ao.validate()))


@pytest.mark.parametrize("name", ["d2m5", "d2m6"])
def test_abstract_orientation_follows_the_negative_smoothing(name):
    """Reversing the edge at port 2 of marker ``m`` breaks its negative
    smoothing pair, and the marker is reported."""
    d = fixture(name)
    ao = abstract_orientation(d)
    e = d.node("m").ports[2]
    a, b = d.edge_ends[e]
    heads = tuple((x, (a if h == b else b) if x == e else h) for x, h in ao.heads)
    issues = [str(i) for i in OrientedDiagram(d, heads, ao.loop_dirs, True).validate()]
    assert "bad orientation: marker m not along its negative smoothing" in issues
