"""Diagrams, orientations and presentations pickle with their caches.

Every cached attribute lives in the instance ``__dict__`` under its own
name, so a pickle carries it and the copy answers from it."""

import pickle

from smg.diagram import Diagram, Faces, enumerate_orientations
from smg.fixtures import fixture
from smg.groups import abelianization, hom_count, symmetric_group, wirtinger_presentation
from smg.quandles import FOUR_QUANDLE, coloring_count, colorings
from smg.resolution import NEGATIVE, POSITIVE, classical_components, is_admissible, resolve


def state(x) -> dict:
    """``x.__dict__`` with the ``Faces`` in it read as their own ``__dict__``."""
    return {k: vars(v) if isinstance(v, Faces) else v for k, v in vars(x).items()}


def test_pickles_round_trip_with_every_cache_filled():
    d = fixture("fr")
    od = enumerate_orientations(d)[1]
    d.canonical_code()
    d.faces()
    assert d.counts == (4, 0, 2)
    classical_components(resolve(d, POSITIVE).diagram)
    resolve(d, NEGATIVE)
    is_admissible(d)                    # the family memo of greedy tails
    coloring_count(d, FOUR_QUANDLE, od)     # the colouring problem and its counting kernel
    colorings(d, FOUR_QUANDLE, od)          # and its listing kernel
    p = wirtinger_presentation(d)
    hom_count(p, symmetric_group(3))
    abelianization(p)
    caches = {
        Diagram: {"_canonical_code", "_colouring", "_darts", "_faces", "_flows_by_heads",
                  "_orientations", "_piece_canon", "_resolutions", "_tails", "counts"},
        type(od): {"_flows", "head_map"},
        type(p): {"_abelian", "_kernel_source", "_plan"},
    }
    assert set(d._colouring.sources) == {False, True} and d._tails
    assert "_components" in vars(d._resolutions[POSITIVE][0])
    for x in (d, od, p):
        assert caches[type(x)] <= vars(x).keys()
        y = pickle.loads(pickle.dumps(x))
        assert y == x
        assert state(y) == state(x)
    y = pickle.loads(pickle.dumps(d))
    assert y.canonical_code() == d.canonical_code()
    assert coloring_count(y, FOUR_QUANDLE, od) == coloring_count(d, FOUR_QUANDLE, od)
    assert colorings(y, FOUR_QUANDLE, od) == colorings(d, FOUR_QUANDLE, od)
