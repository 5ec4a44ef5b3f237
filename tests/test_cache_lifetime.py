"""What the counting layer caches on a diagram never keeps it alive.

A diagram caches its orientation data (heads and crossing flows), its
colouring problem with the sources of its counting kernels, and its
resolutions, and shares its family memo of greedy tails with the diagrams
derived from it.  None of them may refer back to a diagram, or every
diagram a search or a sweep drops would wait for the cyclic garbage
collector.
"""

import gc
import weakref

import pytest

from smg.catalog import move_catalog
from smg.diagram import enumerate_orientations, parse_smg, serialize
from smg.fixtures import fixture
from smg.groups import cyclic_group, hom_count, symmetric_group, wirtinger_presentation
from smg.moves import FORWARD, REVERSE, MoveStep, apply_move, find_sites
from smg.quandles import coloring_count, dihedral_quandle, quandle_from_rows, small_quandles
from smg.resolution import _FAMILY_CAP, NEGATIVE, POSITIVE, is_admissible, resolve


@pytest.mark.parametrize("name", ["trefoil", "hopf", "fr", "sing_sphere", "two_loops"])
def test_a_diagram_is_freed_with_its_last_reference(name):
    z5 = quandle_from_rows([[(2 * x - y) % 5 + 1 for y in range(5)] for x in range(5)])
    oriented = next(q for q in small_quandles(4) if not q.is_involutory())
    gc.disable()
    try:
        d = parse_smg(serialize(fixture(name)))
        ods = enumerate_orientations(d)
        for od in ods:
            for q in (z5, oriented, dihedral_quandle(3)):
                coloring_count(d, q, od)
        coloring_count(d, dihedral_quandle(5))
        p = wirtinger_presentation(d)
        hom_count(p, cyclic_group(6))
        hom_count(p, symmetric_group(3))
        ref = weakref.ref(d)
        del d, ods, od, p
        assert ref() is None
    finally:
        gc.enable()


def test_a_rewrite_is_freed_while_its_host_keeps_the_family_memo():
    """Every rewrite of ``fr`` and its resolutions share ``fr``'s family
    memo of greedy tails.  Once its admissibility is checked, each is freed
    with its last reference, while the host and the memo stay; the memo
    ends at its cap, since the rewrites have more distinct greedy states
    than that, and it holds steps and plain keys, never a diagram."""
    host = parse_smg(serialize(fixture("fr")))
    tails = host._tails
    gc.disable()
    try:
        for m in move_catalog("unoriented"):
            for direction in (FORWARD, REVERSE):
                for site in find_sites(host, m, direction):
                    rewrite = apply_move(host, m, site)
                    is_admissible(rewrite)
                    refs = [weakref.ref(rewrite)] + [weakref.ref(resolve(rewrite, sign).diagram)
                                                     for sign in (POSITIVE, NEGATIVE)]
                    assert all(r()._tails is tails for r in refs)
                    del rewrite
                    assert [r() for r in refs] == [None] * 3, m.id
    finally:
        gc.enable()
    assert host._tails is tails and len(tails) == _FAMILY_CAP
    held = [*tails, *tails.values()]
    for x in held:      # grows as it is read
        if type(x) is tuple:
            held += x
        else:
            assert type(x) in (str, bytes, int, MoveStep), type(x)


def test_enumerate_orientations_returns_a_fresh_list():
    d = fixture("hopf")
    first, second = enumerate_orientations(d), enumerate_orientations(d)
    assert first == second and first is not second
    first.clear()
    assert enumerate_orientations(d) == second
