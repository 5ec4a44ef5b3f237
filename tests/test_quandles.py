import hashlib
import itertools
import math
import random
import time
from functools import lru_cache

import pytest

from smg.catalog import move_catalog
from smg.diagram import (
    SINGULAR,
    Diagram,
    OrientedDiagram,
    SMGSemanticError,
    SMGSyntaxError,
    enumerate_orientations,
    parse_smg,
)
from smg.fixtures import fixture, fixture_names
from smg.groups import (
    cyclic_group,
    groups_up_to_order,
    hom_count,
    smith_normal_form,
    symmetric_group,
    wirtinger_presentation,
)
from smg.quandles import (
    FOUR_QUANDLE,
    QuandleTable,
    check_quandle,
    coloring_count,
    colorings,
    conjugation_quandle,
    dihedral_quandle,
    parse_quandle,
    quandle_from_rows,
    serialize_quandle,
    small_quandles,
    trivial_quandle,
)
from smg.moves import FORWARD, REVERSE, apply_move, find_sites
from smg.resolution import NEGATIVE, POSITIVE, resolve


@lru_cache(maxsize=None)
def fixtures_and_rewrites(per_fixture: int = 6, seed: int = 5) -> tuple:
    """The fixtures and, after each, up to ``per_fixture`` one-move
    rewrites of it: a seeded draw of moves and directions, the first site of
    each that has one."""
    rng = random.Random(seed)
    steps = [(m, direction) for m in move_catalog("unoriented")
             for direction in (FORWARD, REVERSE)]
    out = []
    for name in fixture_names():
        d = fixture(name)
        out.append(d)
        found = 0
        for m, direction in rng.sample(steps, len(steps)):
            if found == per_fixture:
                break
            sites = find_sites(d, m, direction)
            if sites:
                out.append(apply_move(d, m, sites[0]))
                found += 1
    return tuple(out)


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


@pytest.mark.parametrize("text", ["-1 5", "0"])
def test_quandle_file_of_order_below_one_is_rejected(text):
    with pytest.raises(ValueError, match="quandle order -?[01] is below 1"):
        parse_quandle(text)


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


def test_non_involutory_quandle_without_orientation_is_a_semantic_error():
    q = next(q for q in small_quandles(4) if not q.is_involutory())
    for f in (coloring_count, colorings):
        with pytest.raises(SMGSemanticError, match="needs an orientation"):
            f(fixture("trefoil"), q)


def test_foreign_orientation_is_a_semantic_error():
    """An orientation of another diagram, or a count of anything but a
    diagram, is a typed error on every route: the solver, the linear count
    that reads the crossings' flows and the one that reads none, which
    would answer without a look at the orientation."""
    d, foreign = fixture("trefoil"), enumerate_orientations(fixture("hopf"))[0]
    for q in (small_quandles(4)[7], alexander_quandle(5, 2), dihedral_quandle(3)):
        for f in (coloring_count, colorings):
            for orientation in (foreign, "x"):
                with pytest.raises(SMGSemanticError,
                                   match=f"{f.__name__} needs an orientation of 'trefoil'"):
                    f(d, q, orientation)
            with pytest.raises(SMGSemanticError,
                               match=f"{f.__name__} needs an unoriented Diagram, not str"):
                f("trefoil", q, enumerate_orientations(d)[0])
    # the orientation of an equal diagram is one of ``d``
    assert coloring_count(d, dihedral_quandle(3), enumerate_orientations(fixture("trefoil"))[0]) == 9


def test_a_table_that_is_no_quandle_is_a_semantic_error():
    """Each count checks its table first, once per table object, and names
    the first violation.  Unchecked, an entry out of range leaked an
    IndexError, a table that is no quandle was counted all the same, and an
    entry 0, which is the solver's mark for an unset colour, never
    returned; that table comes last, after the ones that fail fast.  An
    entry that is no integer is out of range, not a TypeError, and the
    empty table, which counted 0, is no quandle."""
    d = fixture("trefoil")
    od = enumerate_orientations(d)[0]
    for rows, why in (((), "empty quandle table"),
                      (((1, 5), (2, 2)), "entry 5 out of range 1..2"),
                      (((1, "2"), (2, 2)), "entry '2' out of range 1..2"),
                      (((1, 1), (1, 1)), "idempotency fails at 2"),
                      (((0, 2), (1, 2)), "entry 0 out of range 1..2")):
        q = QuandleTable(rows)
        for f in (coloring_count, colorings):
            with pytest.raises(SMGSemanticError, match=why):
                f(d, q, od)
        with pytest.raises(SMGSemanticError, match=why):
            q.is_involutory()
    with pytest.raises(SMGSemanticError, match="not square"):
        check_quandle([[1, 1], [1]])
    with pytest.raises(SMGSemanticError, match="^empty quandle table$"):
        check_quandle(())
    with pytest.raises(SMGSemanticError, match="^empty quandle table$"):
        coloring_count(d, QuandleTable(()))
    with pytest.raises(SMGSemanticError, match="idempotency fails at 2"):
        quandle_from_rows([[1, 1], [1, 1]])
    for text, why in (("", "empty quandle table"), ("2 1 x 2 2", "invalid literal"),
                      ("2 1 2 1", "expected 4 entries, got 3"), ("0", "order 0 is below 1")):
        with pytest.raises(SMGSyntaxError, match=why):
            parse_quandle(text)


def test_doubled_tables_are_quandles():
    for q in small_quandles(4) + (FOUR_QUANDLE, dihedral_quandle(5)):
        assert check_quandle(q._doubled.table) == [], q
        assert q._doubled.n == 2 * q.n


def test_constant_colorings_lower_bound():
    for name in ("kink", "trefoil", "sing_sphere", "fr"):
        d = fixture(name)
        # connected diagrams admit all constants
        assert coloring_count(d, FOUR_QUANDLE) >= FOUR_QUANDLE.n


def test_involutory_counts_orientation_free():
    for d in fixtures_and_rewrites():
        for q in small_quandles(4) + (FOUR_QUANDLE, dihedral_quandle(5)):
            if q.is_involutory():
                counts = {coloring_count(d, q, o) for o in enumerate_orientations(d)}
                assert counts == {coloring_count(d, q)}, d.name


def strand_labels(d) -> dict:
    """Each edge and loop labelled by the least edge or loop that the local
    equalities join it to: the over-strand of a crossing, the four ends of a
    marker, the straight-through strands of a double point."""
    label = {v: v for v in list(d.edges) + list(d.loops)}
    pairs = []
    for nd in d.nodes:
        a, b, c, e = nd.ports
        pairs += {"M": [(a, b), (b, c), (c, e)], "S": [(a, c), (b, e)]}.get(nd.kind, [(b, e)])
    changed = True
    while changed:
        changed = False
        for x, y in pairs:
            low = min(label[x], label[y])
            if label[x] != low or label[y] != low:
                label[x] = label[y] = low
                changed = True
    return label


def exhaustive_count(d, q, od=None):
    """Direct check of every assignment against the local conditions.  Only
    assignments constant on each strand of :func:`strand_labels` are
    listed: every other one breaks an equality condition."""
    label = strand_labels(d)
    strands = sorted(set(label.values()))
    count = 0
    for assign in itertools.product(range(1, q.n + 1), repeat=len(strands)):
        of_strand = dict(zip(strands, assign))
        col = {v: of_strand[s] for v, s in label.items()}
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


@pytest.mark.parametrize("mult, why", [([[0, 1], [1, 1]], "element 1 has no inverse"),
                                       ([], "no identity"),
                                       ([[0, 1], [1]], "table is not square"),
                                       ([[0, 1, 2], [1, 2, 0], [2, 0, 7]],
                                        "entry 7 out of range 0..2")])
def test_conjugation_quandle_of_no_group_is_a_semantic_error(mult, why):
    """Not a ``StopIteration`` from the search for the identity or an
    inverse, nor an ``IndexError`` from a row that is short or an entry
    that is no element."""
    with pytest.raises(SMGSemanticError, match=f"^{why}$"):
        conjugation_quandle(mult)


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


def test_counts_agree_with_exhaustive_on_fixtures_and_rewrites():
    """Every quandle of order <= 3, the paper's quandle and the two
    non-involutory quandles of order 4, unoriented where involutory and
    under every orientation."""
    panel = small_quandles(3) + (FOUR_QUANDLE,) + tuple(
        q for q in small_quandles(4) if not q.is_involutory())
    for d in fixtures_and_rewrites():
        orientations = enumerate_orientations(d)
        for q in panel:
            if q.is_involutory():
                assert coloring_count(d, q) == exhaustive_count(d, q), d.name
            for od in orientations:
                assert coloring_count(d, q, od) == exhaustive_count(d, q, od), d.name


def brute_force_hom_count(p, g) -> int:
    """Every tuple of generator images, each relator multiplied out."""
    count = 0
    for images in itertools.product(range(g.n), repeat=p.ngens):
        ok = True
        for w in p.relators:
            v = 0
            for l in w:
                x = images[abs(l) - 1]
                v = g.mult[v][x if l > 0 else g.inv[x]]
            if v != 0:
                ok = False
                break
        count += ok
    return count


def test_hom_counts_agree_with_brute_force():
    presentations = []
    for d in fixtures_and_rewrites():
        presentations.append(wirtinger_presentation(d))
        for sign in (NEGATIVE, POSITIVE):
            presentations.append(wirtinger_presentation(resolve(d, sign).diagram))
    presentations = [p for p in dict.fromkeys(presentations) if p.ngens <= 5]
    assert len(presentations) > 20
    for p in presentations:
        for name, g in groups_up_to_order(6):
            assert hom_count(p, g) == brute_force_hom_count(p, g), (str(p), name)


def coloring_digest(cols: list[dict]) -> str:
    return hashlib.sha256(repr([sorted(c.items()) for c in cols]).encode()).hexdigest()[:16]


#: ``coloring_digest`` of the full ``colorings`` lists, order included, under
#: FOUR_QUANDLE, dihedral_quandle(3), and the first non-involutory quandle of
#: small_quandles(4) with the first orientation
GOLDEN_COLORING_DIGESTS = {
    "circle": ("8685915ef75ee441", "de105e14ec324105", "8685915ef75ee441"),
    "d2m5": ("f1ae9d0982f7d9ab", "f99eb18d0ceea44e", "f1ae9d0982f7d9ab"),
    "d2m6": ("f1ae9d0982f7d9ab", "f99eb18d0ceea44e", "f1ae9d0982f7d9ab"),
    "fr": ("8042810b5e534b1a", "53e866b09e306502", "052a05fd3c45a1ed"),
    "hopf": ("d3aecca75c37b1b9", "48e276abb9abbed9", "c02edfa942dbb9b3"),
    "kink": ("7dd79541e6206e6f", "022a85cd2b999c06", "7dd79541e6206e6f"),
    "saddle_sphere": ("7dd79541e6206e6f", "022a85cd2b999c06", "7dd79541e6206e6f"),
    "sing_sphere": ("7dd79541e6206e6f", "022a85cd2b999c06", "7dd79541e6206e6f"),
    "three_loops": ("f7191e5d21e2fc54", "2d897f884d6378e1", "f7191e5d21e2fc54"),
    "trefoil": ("be800583599ed34f", "016f9dd03d640ba2", "be800583599ed34f"),
    "two_loops": ("93ea2127672a5204", "c81d6f1e8937d373", "93ea2127672a5204"),
    "d1m5": ("3088cfdd17664ce1", "5e2f5ede3fb4370b", "3088cfdd17664ce1"),
    "d1m6": ("3088cfdd17664ce1", "5e2f5ede3fb4370b", "3088cfdd17664ce1"),
}


def test_coloring_lists_are_pinned():
    oriented = next(q for q in small_quandles(4) if not q.is_involutory())
    assert sorted(GOLDEN_COLORING_DIGESTS) == sorted(fixture_names())
    for name, digests in GOLDEN_COLORING_DIGESTS.items():
        d = fixture(name)
        od = enumerate_orientations(d)[0]
        got = (coloring_digest(colorings(d, FOUR_QUANDLE)),
               coloring_digest(colorings(d, dihedral_quandle(3))),
               coloring_digest(colorings(d, oriented, od)))
        assert got == digests, name


def test_counts_do_not_depend_on_naming():
    """T(2,n) with its ids shuffled: 3-colourings and homomorphisms onto
    Z/2 as for the order-keeping naming, and as the solver does not order
    its variables by name, without a blow-up."""
    from test_diagram import t2_text

    rng = random.Random(31)
    d3, z2 = dihedral_quandle(3), cyclic_group(2)
    for n in (7, 48, 200):
        d = parse_smg(t2_text(n))
        ids = sorted(nd.id for nd in d.nodes)
        nm = dict(zip(ids, (f"n{k}" for k in rng.sample(range(10 * n), n))))
        em = {e: f"e{k}" for k, e in enumerate(rng.sample(sorted(d.edges), len(d.edges)))}
        shuffled = d.relabeled(nm, em)
        for x in (d, shuffled):
            assert coloring_count(x, d3) == (9 if n % 3 == 0 else 3), n
            assert hom_count(wirtinger_presentation(x), z2) == (2 if n % 2 else 4), n


def split_union(names: list[str]) -> list[Diagram]:
    """The disjoint union of fixtures placed in the outer face, then each
    part alone; the ids of part ``i`` start with ``p<i>.``."""
    parts = []
    for i, name in enumerate(names):
        d = fixture(name)
        nm = {nd.id: f"p{i}.{nd.id}" for nd in d.nodes}
        em = {e: f"p{i}.{e}" for e in d.edges}
        parts.append(d.relabeled(nm, em, {l: f"p{i}.{l}" for l in d.loops}))
    union = Diagram("split", sum((p.nodes for p in parts), ()), sum((p.loops for p in parts), ()))
    return [union] + parts


def test_counts_of_twenty_split_components():
    """Counted by components, not by enumerating up to 3**20 solutions:
    an unlink of 20 loops, and ten Hopf links (3 colourings each, and 9
    homomorphisms of Z^2 onto Z/3)."""
    d3, z3 = dihedral_quandle(3), cyclic_group(3)
    unlink = parse_smg("diagram u\n" + "".join(f"loop c{i}\n" for i in range(20)) + "end\n")
    hopfs = split_union(["hopf"] * 10)[0]
    for d, colours, homs in ((unlink, 3 ** 20, 3 ** 20), (hopfs, 3 ** 10, 9 ** 10)):
        assert coloring_count(d, d3) == colours
        assert hom_count(wirtinger_presentation(d), z3) == homs


def test_split_counts_are_products_of_the_parts():
    """Trefoil, Hopf link and three loops side by side: every count is the
    product of the parts' counts, under every orientation, restricted to
    each part."""
    union, *parts = split_union(["trefoil", "hopf", "three_loops"])
    for q in small_quandles(3) + (FOUR_QUANDLE,):
        if q.is_involutory():
            assert coloring_count(union, q) == \
                math.prod(coloring_count(p, q) for p in parts)
        for od in enumerate_orientations(union):
            want = 1
            for i, p in enumerate(parts):
                mine = lambda x: x.startswith(f"p{i}.")
                want *= coloring_count(p, q, OrientedDiagram(
                    p, tuple(h for h in od.heads if mine(h[0])),
                    tuple(l for l in od.loop_dirs if mine(l[0]))))
            assert coloring_count(union, q, od) == want
    for name, g in groups_up_to_order(6):
        assert hom_count(wirtinger_presentation(union), g) == \
            math.prod(hom_count(wirtinger_presentation(p), g) for p in parts), name



# ---------------------------------------------------------------------------
# Alexander tables, counted by linear algebra as the oracle of the kernels


def alexander_quandle(n: int, t: int):
    """``x * y = t x + (1 - t) y`` over Z/n, element ``k+1`` being ``k``."""
    return quandle_from_rows([[(t * x + (1 - t) * y) % n + 1 for y in range(n)]
                              for x in range(n)])


def alexander_t(q: QuandleTable):
    """``t`` when ``q`` is the Alexander quandle ``x * y = t x + (1 - t) y``
    over Z/n on its own labelling (element ``k+1`` is ``k``) with
    ``gcd(t, n) = 1``, else None.  Trivial tables give 1, and dihedral ones
    of order above 2 give -1, so that one ``t`` names the same integer
    matrix at every order."""
    n = q.n
    op = [[z - 1 for z in row] for row in q.table]
    t = op[1][0] if n > 1 else 1
    if math.gcd(t, n) != 1 or any(op[x][y] != (t * x + (1 - t) * y) % n
                                  for x in range(n) for y in range(n)):
        return None
    return -1 if n > 2 and t == n - 1 else t


def linear_count(d: Diagram, q: QuandleTable, orientation=None) -> int:
    """Colourings of ``d`` by the Alexander table ``q`` (Fox 1962; Nelson
    2003): the solutions mod n of one integer row per node on the colour
    classes, ``out - t in - (1 - t) over`` at a crossing and
    ``(1 - t)(x - y)`` at a double point.  ``out`` and ``in`` are the
    classes of ports 2 and 0 when the over-strand comes in at port 1, and
    swapped at port 3; without an orientation every over port reads as 1.
    With nonzero invariant factors ``d_i`` there are
    ``n^(classes - rank) * prod gcd(d_i, n)``."""
    t, n = alexander_t(q), q.n
    assert t is not None
    problem = d._colouring
    classes = len(set(problem.cls.values()))
    rows = []
    for nid, kind, c in problem.nodes:
        row = [0] * classes
        if kind == SINGULAR:
            terms = ((c[0], 1 - t), (c[1], t - 1))
        else:
            over_in_1 = orientation is None or orientation._flows[nid][1] == 1
            out, inn = (c[2], c[0]) if over_in_1 else (c[0], c[2])
            terms = ((out, 1), (inn, -t), (c[1], t - 1))
        for x, v in terms:
            row[x] += v
        if any(row):
            rows.append(row)
    diag = smith_normal_form(rows) if rows else []
    return n ** (classes - len(diag)) * math.prod(math.gcd(v, n) for v in diag)


def test_alexander_tables_are_recognised():
    assert [alexander_t(dihedral_quandle(n)) for n in range(3, 8)] == [-1] * 5
    assert [alexander_t(trivial_quandle(n)) for n in range(1, 5)] == [1] * 4
    assert alexander_t(alexander_quandle(5, 2)) == 2
    assert [alexander_t(q) for q in small_quandles(4)] == [1, 1, 1, None, -1, 1] + [None] * 6
    assert alexander_t(FOUR_QUANDLE) is None


def test_linear_counts_match_the_solver():
    """Dihedral and trivial tables without and under every orientation, and
    a non-involutory Z/5 table under every orientation, on the fixtures
    and their rewrites: linear algebra is the oracle of the kernel."""
    panel = [dihedral_quandle(n) for n in range(3, 8)] + [trivial_quandle(n) for n in range(1, 5)]
    z5 = alexander_quandle(5, 2)
    assert not z5.is_involutory()
    for d in fixtures_and_rewrites():
        orientations = enumerate_orientations(d)
        for q in panel:
            assert coloring_count(d, q) == linear_count(d, q), (d.name, q.n)
            for od in orientations:
                assert coloring_count(d, q, od) == linear_count(d, q, od), (d.name, q.n)
        for od in orientations:
            assert coloring_count(d, z5, od) == linear_count(d, z5, od), d.name


def trefoil_sum(k: int, seed: int) -> Diagram:
    """The connected sum of ``k`` trefoils, each mirrored or not by a seeded
    draw, its node lines shuffled.  Summand ``c`` is T(2, 3) with its edge
    from node 2 to node 0 cut: node 2 runs on to node 0 of summand
    ``c + 1``.  A mirror turns the ports of every node by one."""
    rng = random.Random(seed)
    lines = []
    for c in range(k):
        mirror = rng.random() < 0.5
        for i in range(3):
            j = (i - 1) % 3
            ports = [f"s{(c - 1) % k}" if i == 0 else f"{c}r{j}", f"{c}l{j}", f"{c}l{i}",
                     f"s{c}" if i == 2 else f"{c}r{i}"]
            if mirror:
                ports = ports[1:] + ports[:1]
            lines.append(f"node {c}v{i} X " + " ".join(ports))
    rng.shuffle(lines)
    return parse_smg(f"diagram sum{k}\n" + "\n".join(lines) + "\nend\n")


@pytest.mark.parametrize("k", range(1, 11))
def test_sums_of_trefoils_count_alike_on_both_routes(k):
    d = trefoil_sum(k, seed=k)
    r3, z5 = dihedral_quandle(3), alexander_quandle(5, 2)
    assert coloring_count(d, r3) == linear_count(d, r3) == 3 ** (k + 1)
    for od in enumerate_orientations(d):
        assert coloring_count(d, z5, od) == linear_count(d, z5, od) == 5


def test_twenty_trefoils_count_by_linear_algebra():
    """3^21 colourings: the solver would list them all."""
    d = trefoil_sum(20, seed=20)
    start = time.perf_counter()
    assert coloring_count(d, dihedral_quandle(3)) == 3 ** 21
    assert time.perf_counter() - start < 1.0
