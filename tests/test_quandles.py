import itertools

import pytest

from smg.diagram import enumerate_orientations
from smg.fixtures import fixture, fixture_names
from smg.groups import (
    groups_up_to_order,
    hom_count,
    symmetric_group,
    wirtinger_presentation,
)
from smg.quandles import (
    FOUR_QUANDLE,
    check_quandle,
    coloring_count,
    colorings,
    conjugation_quandle,
    dihedral_quandle,
    parse_quandle,
    serialize_quandle,
    small_quandles,
    trivial_quandle,
)
from smg.resolution import NEGATIVE, resolve


def test_paper_quandle_is_a_quandle():
    assert check_quandle(FOUR_QUANDLE.table) == []


def test_idempotency_witness():
    bad = [[2, 1, 1, 1], [2, 2, 2, 2], [3, 3, 3, 3], [4, 4, 4, 4]]
    issues = check_quandle(bad)
    assert any("idempotency" in s and "1" in s for s in issues)


def test_right_invertibility_witness():
    bad = [[1, 1, 1], [2, 2, 2], [3, 3, 2]]
    issues = check_quandle(bad)
    assert any("invertibility" in s for s in issues)


def test_involutory_examples():
    assert FOUR_QUANDLE.is_involutory()
    assert dihedral_quandle(3).is_involutory()
    s3 = symmetric_group(3)
    conj = conjugation_quandle([list(r) for r in s3.mult])
    assert not conj.is_involutory()


def test_column_inverse_property():
    for q in (FOUR_QUANDLE, dihedral_quandle(5)):
        for x in range(1, q.n + 1):
            for y in range(1, q.n + 1):
                assert q.op_inv(q.op(x, y), y) == x


def test_quandle_file_round_trip():
    text = serialize_quandle(FOUR_QUANDLE)
    assert parse_quandle(text).table == FOUR_QUANDLE.table


def test_small_quandle_census():
    counts = {}
    for q in small_quandles(4):
        counts[q.n] = counts.get(q.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 3, 4: 7}
    assert any(not q.is_involutory() for q in small_quandles(4))


def test_colorings_circle():
    assert coloring_count(fixture("circle"), FOUR_QUANDLE) == 4


def test_colorings_fr_is_sixteen():
    assert coloring_count(fixture("fr"), FOUR_QUANDLE) == 16


def test_colorings_two_loops_independent():
    assert coloring_count(fixture("two_loops"), FOUR_QUANDLE) == 16


def test_non_involutory_needs_orientation():
    q = next(q for q in small_quandles(4) if not q.is_involutory())
    with pytest.raises(ValueError):
        colorings(fixture("trefoil"), q)
    od = enumerate_orientations(fixture("trefoil"))[0]
    colorings(fixture("trefoil"), q, od)  # no raise


def test_constant_colorings_lower_bound():
    for name in ("kink", "trefoil", "sing_sphere", "fr"):
        d = fixture(name)
        # connected diagrams admit all constants
        assert coloring_count(d, FOUR_QUANDLE) >= FOUR_QUANDLE.n


def test_involutory_counts_orientation_free():
    d = fixture("hopf")
    counts = {coloring_count(d, dihedral_quandle(3), o)
              for o in enumerate_orientations(d)}
    assert len(counts) == 1


def exhaustive_count(d, q, od=None):
    """Direct check of every assignment against the local conditions."""
    variables = list(d.edges) + list(d.loops)
    count = 0
    for assign in itertools.product(range(1, q.n + 1), repeat=len(variables)):
        col = dict(zip(variables, assign))
        ok = True
        for nd in d.nodes:
            c0, c1, c2, c3 = (col[e] for e in nd.ports)
            if nd.kind == "M":
                ok = c0 == c1 == c2 == c3
            elif nd.kind == "S":
                ok = c0 == c2 and c1 == c3 and \
                    q.op(c0, c1) == c0 and q.op(c1, c0) == c1
            else:
                if od is None:
                    ok = c1 == c3 and q.op(c0, c1) == c2
                else:
                    pu = next(p for p in (0, 2) if od.flows_in((nd.id, p)))
                    po = next(p for p in (1, 3) if od.flows_in((nd.id, p)))
                    sign = 1 if po == (pu + 1) % 4 else -1
                    inn = col[nd.ports[pu]]
                    out = col[nd.ports[(pu + 2) % 4]]
                    over = col[nd.ports[1]]
                    ok = c1 == c3 and (
                        out == q.op(inn, over) if sign > 0
                        else out == q.op_inv(inn, over))
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_counts_agree_with_exhaustive_enumeration():
    small = [n for n in ("circle", "two_loops", "kink", "hopf", "trefoil",
                         "saddle_sphere", "sing_sphere", "d2m5", "d2m6")
             if len(fixture(n).edges) <= 8]
    for name in small:
        d = fixture(name)
        assert coloring_count(d, FOUR_QUANDLE) == exhaustive_count(d, FOUR_QUANDLE)
        q3 = dihedral_quandle(3)
        assert coloring_count(d, q3) == exhaustive_count(d, q3)


def test_oriented_counts_agree_with_exhaustive():
    q = next(q for q in small_quandles(4) if not q.is_involutory())
    for name in ("hopf", "trefoil", "sing_sphere"):
        d = fixture(name)
        od = enumerate_orientations(d)[0]
        assert coloring_count(d, q, od) == exhaustive_count(d, q, od)


def test_trivial_quandle_counts_components():
    q = trivial_quandle(3)
    assert coloring_count(fixture("trefoil"), q) == 3
    assert coloring_count(fixture("hopf"), q) == 9


def test_hom_counts_equal_conjugation_quandle_colorings():
    """Homomorphisms of a classical link group into G are the colorings by
    the conjugation quandle of G: the two users of one counting solver
    checked against each other."""
    diagrams = [fixture(n) for n in fixture_names() if fixture(n).is_classical()]
    diagrams += [resolve(fixture(n), NEGATIVE).diagram for n in fixture_names()]
    for d in diagrams:
        w = wirtinger_presentation(d)
        od = enumerate_orientations(d)[0]
        for name, g in groups_up_to_order(6):
            q = conjugation_quandle(g.mult)
            assert hom_count(w, g) == coloring_count(d, q, od), (d.name, name)
