"""The group layer and the quandle layer check each other at size.

Homomorphisms of a Wirtinger presentation into a group G are exactly the
colourings by its conjugation quandle Conj(G) (Joyce 1982; Fenn & Rourke
1992): at a crossing both say that the outgoing under-arc is the incoming
one conjugated by the over-arc, at a marker one colour class joins all four
ends, and at a double point the commutator relator matches x * y = x and
y * x = y.  The two counts come from independent builders:
``wirtinger_presentation`` with the abstract orientation, and the colouring
problem with the first strict orientation.  A diagram with no strict
orientation is skipped.
"""

import random

import pytest
from test_diagram import t2_text
from test_quandles import trefoil_sum
from test_random_walks import random_walk
from test_transforms import clasped_circles

from smg.diagram import _first_orientation, parse_smg
from smg.fixtures import fixture, fixture_names
from smg.groups import hom_count, quaternion_group, symmetric_group, wirtinger_presentation
from smg.quandles import coloring_count, conjugation_quandle

GROUPS = {"S3": symmetric_group(3), "Q8": quaternion_group()}


def walks() -> list:
    """Every fixture and a seeded walk of six moves from each, which brings
    markers and double points next to crossings."""
    rng = random.Random(2610)
    out = []
    for name in fixture_names():
        d = fixture(name)
        out += [d, random_walk(d, 6, rng)[0]]
    return out


def inputs() -> list:
    """T(2, n) up to n = 1001, chains of up to 20 clasped circles, sums of
    up to 45 trefoils, and the walks."""
    return ([parse_smg(t2_text(n)) for n in (3, 11, 101, 1001)]
            + [clasped_circles(k) for k in (2, 5, 12, 20)]
            + [trefoil_sum(k, seed=k) for k in (1, 10, 45)]
            + walks())


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_homs_equal_conjugation_colourings(group):
    g = GROUPS[group]
    conj = conjugation_quandle(g.mult)
    checked = 0
    for d in inputs():
        o = _first_orientation(d)
        if o is None:
            continue
        assert hom_count(wirtinger_presentation(d), g) == coloring_count(d, conj, o), d.name
        checked += 1
    assert checked >= 20
