import hashlib
import itertools
import math
import random
import time
from functools import lru_cache

import pytest
from test_diagram import t2_text

from smg import cli
from smg.catalog import move_catalog
from smg.diagram import (CROSSING, MARKER, SINGULAR, OrientedDiagram, SMGSemanticError,
                         UnionFind, enumerate_orientations, parse_smg)
from smg.fixtures import fixture, fixture_names
from smg.groups import (
    AbelianGroup,
    GroupTable,
    Presentation,
    _search_homs,
    abelianization,
    abstract_orientation,
    cyclic_group,
    cyclic_reduce,
    free_reduce,
    groups_up_to_order,
    hom_count,
    negative_arcs,
    smith_normal_form,
    tietze_simplify,
    wirtinger_presentation,
)
from smg.moves import FORWARD, REVERSE, apply_move, find_sites
from smg.resolution import NEGATIVE, POSITIVE, _component_index, resolve, smoothing_pairs
from smg.transforms import M5, M6, export_exterior, kirby_group, semi_transform


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
    component_of = _component_index(r.components)
    breaks = {}
    for nd in c.nodes:
        if nd.id in r.snode_rot:
            continue  # a resolved double point does not cut the strands
        comp = component_of[nd.ports[0]]
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


# ---------------------------------------------------------------------------
# references: the dense Smith form, the Tietze pass that rewrote and
# renumbered every relator at every step, and the cyclic reduction that
# reduced the whole word again per stripped pair, kept verbatim as oracles


def reference_cyclic_reduce(w):
    w = free_reduce(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = free_reduce(w[1:-1])
    return w


def reference_tietze_simplify(p, budget=1000):
    cyclic_reduce = reference_cyclic_reduce
    ngens = p.ngens
    rels = [cyclic_reduce(w) for w in p.relators]
    rels = [w for w in rels if w]
    steps = 0
    changed = True
    while changed and steps < budget:
        changed = False
        steps += 1
        # find a relator in which some generator occurs exactly once
        target = None
        for ri, w in enumerate(rels):
            counts: dict[int, int] = {}
            for l in w:
                counts[abs(l)] = counts.get(abs(l), 0) + 1
            for g, cnt in counts.items():
                if cnt == 1:
                    target = (ri, g)
                    break
            if target:
                break
        if not target:
            break
        ri, g = target
        w = rels[ri]
        i = next(i for i, l in enumerate(w) if abs(l) == g)
        # rotate so the isolated letter is first, then g^e = (rest)^-1
        w = w[i:] + w[:i]
        e = 1 if w[0] > 0 else -1
        rest = w[1:]
        repl = tuple(-l for l in reversed(rest)) if e > 0 else rest
        # g = repl  (when e>0); g^-1 = rest means g = rest reversed-inverted
        sub = repl

        def substitute(word):
            out: list[int] = []
            for l in word:
                if abs(l) != g:
                    out.append(l)
                elif l > 0:
                    out.extend(sub)
                else:
                    out.extend(-x for x in reversed(sub))
            return cyclic_reduce(tuple(out))

        new_rels = [substitute(w2) for rj, w2 in enumerate(rels) if rj != ri]
        # renumber generators above g down by one
        def renum(word):
            return tuple((abs(l) - 1 if abs(l) > g else abs(l)) * (1 if l > 0 else -1)
                         for l in word)

        rels = [renum(w2) for w2 in new_rels if w2]
        ngens -= 1
        changed = True
    rels = sorted(set(w for w in (cyclic_reduce(w) for w in rels) if w))
    return Presentation(ngens, tuple(rels))


def reference_smith_normal_form(mat):
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    diag = []
    r = c = 0
    while r < rows and c < cols:
        # find a pivot with the smallest nonzero absolute value
        best = None
        for i in range(r, rows):
            for j in range(c, cols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        m[r], m[i] = m[i], m[r]
        for row in m:
            row[c], row[j] = row[j], row[c]
        again = True
        while again:
            again = False
            for i in range(rows):
                if i != r and m[i][c]:
                    q = m[i][c] // m[r][c]
                    for j in range(cols):
                        m[i][j] -= q * m[r][j]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        again = True
            for j in range(cols):
                if j != c and m[r][j]:
                    q = m[r][j] // m[r][c]
                    for i in range(rows):
                        m[i][j] -= q * m[i][c]
                    if m[r][j]:
                        for i in range(rows):
                            m[i][c], m[i][j] = m[i][j], m[i][c]
                        again = True
        # divisibility fix-up: pivot must divide the rest of the block
        piv = abs(m[r][c])
        fixed = False
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                if m[i][j] % piv:
                    for jj in range(cols):
                        m[r][jj] += m[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        diag.append(piv)
        r += 1
        c += 1
    return diag


def reference_abelianization(p):
    mat = [[0] * p.ngens for _ in p.relators]
    for i, w in enumerate(p.relators):
        for l in w:
            mat[i][abs(l) - 1] += 1 if l > 0 else -1
    if not mat:
        return AbelianGroup(p.ngens, ())
    diag = reference_smith_normal_form(mat)
    torsion = tuple(v for v in diag if v > 1)
    rank = p.ngens - len(diag)
    return AbelianGroup(rank, torsion)


def random_word(rng, ngens, length):
    return tuple(rng.choice((1, -1)) * rng.randint(1, ngens) for _ in range(length))


def test_cyclic_reduce_matches_the_reference_on_random_words():
    rng = random.Random(1601)
    for _ in range(3000):
        w = random_word(rng, rng.randint(1, 3), rng.randint(0, 16))
        # conjugates, so that pairs of end letters cancel
        u = random_word(rng, 3, rng.randint(0, 6))
        w = u + w + tuple(-l for l in reversed(u))
        assert cyclic_reduce(w) == reference_cyclic_reduce(w), w


def test_cyclic_reduce_is_linear():
    """a^4000 b a^-4000 once took 1.4 s, reducing the whole inner word
    again for every stripped pair."""
    w = (1,) * 4000 + (2,) + (-1,) * 4000
    start = time.perf_counter()
    assert cyclic_reduce(w) == (2,)
    assert time.perf_counter() - start < 0.25


def random_matrix(rng, size, entries=(0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 12, -9)):
    rows, cols = rng.randint(0, size), rng.randint(1, size)
    mat = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
    for row in mat:
        if rng.random() < 0.15:
            row[:] = [0] * cols
    if mat and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in mat:
            row[j] = 0
    return mat


def test_smith_normal_form_matches_the_dense_reference():
    """Up to 6 x 6; on larger matrices the reference's entries can grow to
    thousands of bits (see the next test)."""
    rng = random.Random(1602)
    mats = [[], [[]], [[0, 0], [0, 0]], [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]]
    mats += [random_matrix(rng, 6) for _ in range(3000)]
    for mat in mats:
        copy = [row[:] for row in mat]
        assert smith_normal_form(mat) == reference_smith_normal_form(mat), mat
        assert mat == copy


def determinant(a):
    """Fraction-free (Bareiss) elimination."""
    a = [row[:] for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def determinantal_diagonal(mat):
    """The Smith diagonal as quotients d_k / d_(k-1), where d_k is the gcd
    of the k x k minors."""
    rows, cols = len(mat), len(mat[0]) if mat else 0
    diag, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = math.gcd(d, determinant([[mat[i][j] for j in cs] for i in rs]))
                if d == 1:
                    break
            if d == 1:
                break
        if not d:
            break
        diag.append(d // prev)
        prev = d
    return diag


#: the reference's entries grow past 1,000 bits on this matrix, and it did
#: not finish in minutes
EXPLODING = [[1, 0, -4, 2, 0, -1, 3], [0, -4, -4, 2, 6, 2, 0], [0, 0, 0, 0, 0, 0, 0],
             [0, 0, -2, 12, -4, -9, 6], [12, 0, -9, 2, 2, 0, 0], [-9, 3, 0, 12, 6, 12, 0],
             [-9, 12, -2, 0, 1, -4, -2]]


def test_smith_normal_form_of_larger_matrices_matches_the_minors():
    """Matrices on which the dense reference's entries explode, and seeded
    ones without a unit entry, so that all of them but the first reach the
    elimination of the rows left after the unit pivots."""
    rng = random.Random(1604)
    mats = [EXPLODING] + [random_matrix(rng, 7, (0, 0, 2, -2, 3, -4, 6, 12, -9, 5, 7))
                          for _ in range(12)]
    start = time.perf_counter()
    got = [smith_normal_form(mat) for mat in mats]
    assert time.perf_counter() - start < 1.0
    assert got == [determinantal_diagonal(mat) for mat in mats]


def test_group_layer_matches_the_references_on_fixtures_and_rewrites():
    """Wirtinger and Kirby presentations of every fixture and its first
    rewrites: the same abelianization, and the same Tietze simplification
    under every budget."""
    kirby = 0
    for d in fixtures_and_first_rewrites():
        presentations = [wirtinger_presentation(d)]
        if enumerate_orientations(d):
            presentations.append(kirby_group(export_exterior(d)))
            kirby += 1
        for p in presentations:
            assert abelianization(p) == reference_abelianization(p), d.name
            for budget in (0, 1, 2, 5, 1000):
                assert tietze_simplify(p, budget) == reference_tietze_simplify(p, budget), \
                    (d.name, budget)
    assert kirby > 0


@pytest.mark.parametrize("n", [1, 2, 3, 24, 95, 192])
def test_group_layer_matches_the_references_on_t2(n):
    p = wirtinger_presentation(parse_smg(t2_text(n)))
    assert abelianization(p) == reference_abelianization(p)
    assert tietze_simplify(p) == reference_tietze_simplify(p)


def test_tietze_simplify_matches_the_reference_on_random_presentations():
    rng = random.Random(1603)
    for _ in range(3000):
        ngens = rng.randint(1, 6)
        p = Presentation(ngens, tuple(random_word(rng, ngens, rng.randint(0, 8))
                                      for _ in range(rng.randint(0, 5))))
        for budget in (0, 1, 2, 5, 1000):
            assert tietze_simplify(p, budget) == reference_tietze_simplify(p, budget), \
                (p, budget)
        assert abelianization(p) == reference_abelianization(p), p


# ---------------------------------------------------------------------------
# at 10^3 crossings


@pytest.mark.parametrize("n, want", [(1000, "Z + Z"), (1001, "Z")])
def test_abelianization_at_a_thousand_crossings(n, want):
    """The dense elimination took about 35 s here (extrapolated)."""
    p = wirtinger_presentation(parse_smg(t2_text(n)))
    start = time.perf_counter()
    assert str(abelianization(p)) == want
    assert time.perf_counter() - start < 2.0


def test_tietze_simplify_keeps_the_abelianization_at_size():
    p = wirtinger_presentation(parse_smg(t2_text(301)))
    simp = tietze_simplify(p)
    assert simp.ngens < 10
    assert str(abelianization(simp)) == str(abelianization(p)) == "Z"


def test_cli_abelian_at_a_thousand_crossings(tmp_path, capsys):
    path = tmp_path / "t2_1000.smg"
    path.write_text(t2_text(1000))
    assert cli.main(["abelian", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "Z + Z"


# ---------------------------------------------------------------------------
# homomorphisms read from the abelianization


def test_abelian_hom_counts_match_the_solver():
    """Into a commutative table ``hom_count`` reads the count off the
    abelianization; the backtracking solver is the oracle, for every group
    of order <= 8 on the fixtures and their rewrites."""
    from test_quandles import fixtures_and_rewrites

    groups = groups_up_to_order(8)
    assert [name for name, g in groups if not g._commutative] == ["S3", "D4", "Q8"]
    for d in fixtures_and_rewrites():
        p = wirtinger_presentation(d)
        for name, g in groups:
            assert hom_count(p, g) == _search_homs(p, g), (d.name, name)


def test_abelianization_and_hom_count_share_one_smith_form(monkeypatch):
    import smg.groups as groups

    calls, diagonal = [0], groups._diagonal

    def counted(rows):
        calls[0] += 1
        return diagonal(rows)

    monkeypatch.setattr(groups, "_diagonal", counted)
    p = wirtinger_presentation(fixture("fr"))
    assert str(abelianization(p)) == "Z + Z"
    assert [hom_count(p, g) for _, g in groups_up_to_order(4)] == [1, 4, 9, 16, 16]
    assert calls[0] == 1


@pytest.mark.parametrize("mult, message", [
    (((1, 0), (0, 1)), "0 is not an identity"),
    (((0, 1, 2), (1, 0, 0), (2, 0, 0)), "not associative"),
    (((0, 1), (1, 1)), "element 1 has no inverse"),
    (((0, 1), (1,)), "table is not square"),
    (((0, 1), (1, 5)), r"entry 5 out of range 0\.\.1"),
    ((), "empty group table"),
])
def test_bad_group_tables_raise_typed_errors(mult, message):
    """Not a ``StopIteration`` or a bare ``ValueError`` from the table or
    from a count into it."""
    for use in (GroupTable.check, lambda g: g.inv,
                lambda g: hom_count(Presentation(1, ((1, 1),)), g)):
        with pytest.raises(SMGSemanticError, match=f"^{message}$"):
            use(GroupTable(mult))


@pytest.mark.parametrize("p, message", [
    (Presentation(2, ((0, 1),)), "Presentation letter 0 is not a nonzero int of absolute "
                                 "value at most 2"),
    (Presentation(2, ((5, 1),)), "Presentation letter 5 is not a nonzero int of absolute "
                                 "value at most 2"),
    (Presentation(1, ((True,),)), "Presentation letter True is not a nonzero int of absolute "
                                  "value at most 1"),
    (Presentation(-1, ()), "Presentation needs an int of zero or more, not negative"),
    (Presentation(2.0, ()), "Presentation needs an int, not float"),
    (Presentation(2, (3,)), "Presentation needs its relators as a tuple of words"),
    (Presentation(2, None), "Presentation needs its relators as a tuple of words"),
])
def test_bad_presentations_raise_typed_errors(p, message):
    """A letter out of range, a negative or non-int generator count, or
    relators that are no words is a typed error from every use of the
    presentation, not a wrong free rank, a float count or an
    ``IndexError``."""
    for use in (abelianization, tietze_simplify, str,
                lambda p: hom_count(p, cyclic_group(2)),
                lambda p: hom_count(p, groups_up_to_order(6)[-1][1])):
        with pytest.raises(SMGSemanticError, match=f"^{message}$"):
            use(p)


def test_tietze_budgets_are_counts():
    p = Presentation(1, ((1, 1),))
    for budget in (-1, True, 2.0):
        with pytest.raises(SMGSemanticError, match="^tietze_simplify needs an int"):
            tietze_simplify(p, budget)


def _misuses():
    """(the function called, a call that hands it an argument of another
    type, a node it lacks, or a budget that is a bool or below zero) for the
    group, orientation, crossing-sign, colouring, move-layer, simplifier,
    catalog and text entry points."""
    from smg.catalog import catalog_map, move_catalog
    from smg.diagram import parse_smg, serialize
    from smg.moves import MoveSequence, SearchBudget, search_equivalence, verify_sequence
    from smg.quandles import (QuandleTable, check_quandle, coloring_count, dihedral_quandle,
                              small_quandles)
    from smg.resolution import (Budget, crossing_sign, is_admissible, is_trivial_unlink,
                                linking_matrix, reidemeister_simplify)
    from smg.transforms import profile

    d = fixture("trefoil")
    od, p, g = enumerate_orientations(d)[0], wirtinger_presentation(d), cyclic_group(3)
    cat = catalog_map("unoriented")
    move = cat["O1"]
    return [
        ("enumerate_orientations", lambda: enumerate_orientations(od)),
        ("linking_matrix", lambda: linking_matrix(d)),
        ("hom_count", lambda: hom_count(d, g)),
        ("hom_count", lambda: hom_count(p, dihedral_quandle(3))),
        ("abelianization", lambda: abelianization(d)),
        ("tietze_simplify", lambda: tietze_simplify(d)),
        ("coloring_count", lambda: coloring_count(d, g)),
        ("profile", lambda: profile(d, (g,))),
        ("kirby_group", lambda: kirby_group(d)),
        ("wirtinger_presentation", lambda: wirtinger_presentation(od)),
        ("find_sites", lambda: find_sites(d, "O1")),
        ("apply_move", lambda: apply_move(d, move, "x")),
        ("verify_sequence", lambda: verify_sequence(d, "O1 0 forward abc", cat)),
        ("search_equivalence", lambda: search_equivalence(d, d, cat, None, Budget())),
        ("search_equivalence", lambda: search_equivalence(d, d, cat, None, 3)),
        ("tietze_simplify", lambda: tietze_simplify(p, "x")),
        ("serialize", lambda: serialize(5)),
        ("crossing_sign", lambda: crossing_sign(od, "nope")),
        ("crossing_sign", lambda: crossing_sign(d, "x")),
        ("parse_smg", lambda: parse_smg(3)),
        ("move_catalog", lambda: move_catalog(3)),
        ("catalog_map", lambda: catalog_map(3)),
        ("find_sites", lambda: find_sites("x", move)),
        ("apply_move", lambda: apply_move("x", move, find_sites(d, move)[0])),
        ("verify_sequence", lambda: verify_sequence("x", MoveSequence(()), cat)),
        ("verify_sequence", lambda: verify_sequence("x", MoveSequence.parse("O1 0 forward a"), cat)),
        ("MoveSequence.parse", lambda: MoveSequence.parse(None)),
        ("search_equivalence", lambda: search_equivalence(d, d, cat, None, SearchBudget("2", 10))),
        ("search_equivalence", lambda: search_equivalence(d, d, cat, None, SearchBudget(-1, 10))),
        ("search_equivalence", lambda: search_equivalence(d, d, cat, None, SearchBudget(True, 10))),
        ("search_equivalence", lambda: search_equivalence(d, d, cat, None, SearchBudget(2, -5))),
        ("reidemeister_simplify", lambda: reidemeister_simplify(d, Budget(max_states=-4))),
        ("reidemeister_simplify", lambda: reidemeister_simplify(d, Budget(max_states=True))),
        ("is_trivial_unlink", lambda: is_trivial_unlink(d, Budget(extra_crossings=-1))),
        ("is_admissible", lambda: is_admissible(d, Budget(extra_crossings=False))),
        ("dihedral_quandle", lambda: dihedral_quandle("3")),
        ("dihedral_quandle", lambda: dihedral_quandle(3.0)),
        ("small_quandles", lambda: small_quandles("2")),
        ("check_quandle", lambda: check_quandle(None)),
        ("check_quandle", lambda: check_quandle(QuandleTable)),
        ("fixture", lambda: fixture(None)),
        ("fixture", lambda: fixture(3)),
        ("search_equivalence", lambda: search_equivalence(d, d, list(cat.values()))),
        ("verify_sequence", lambda: verify_sequence(d, MoveSequence.parse("O1 0 forward a"),
                                                    None)),
        ("apply_move", lambda: apply_move(d, "O1", find_sites(d, move)[0])),
    ]


@pytest.mark.parametrize("k", range(len(_misuses())),
                         ids=[f"{name}-{k}" for k, (name, _) in enumerate(_misuses())])
def test_entry_points_name_themselves_in_type_errors(k):
    """An argument of the wrong type is a typed error naming the function
    called, not an ``AttributeError`` from deep inside it."""
    name, call = _misuses()[k]
    with pytest.raises(SMGSemanticError, match=f"^{name} needs an? [A-Za-z ]+, not [A-Za-z]+$"):
        call()


def test_public_callables_raise_only_typed_errors():
    """Every callable that ``smg`` exports, given None, a str or an int in
    one required position and fitting arguments in the others, returns or
    raises ``SMGError`` or ``StaleSiteError``: never a stray ``TypeError``
    or ``AttributeError``.  Each call runs under an alarm, so that a bad
    argument that starts a long computation fails the test instead."""
    import inspect
    import signal

    import smg
    from smg.moves import StaleSiteError

    d = fixture("trefoil")
    cat = smg.catalog_map("unoriented")
    fitting = {"d": d, "d1": d, "d2": d, "c": d, "od": enumerate_orientations(d)[0],
               "move": cat["O1"], "site": find_sites(d, cat["O1"])[0], "catalog": cat,
               "s": smg.MoveSequence(()), "p": wirtinger_presentation(d), "g": cyclic_group(3),
               "q": smg.FOUR_QUANDLE, "name": "trefoil", "text": smg.serialize(d),
               "raw": smg.FOUR_QUANDLE.table, "n": 3, "sign": POSITIVE, "kind": "M5",
               "k": export_exterior(d)}

    def alarm(*_):
        raise TimeoutError

    calls, previous = 0, signal.signal(signal.SIGALRM, alarm)
    try:
        for name in smg.__all__:
            f = getattr(smg, name)
            if not callable(f) or isinstance(f, type) and issubclass(f, BaseException):
                continue
            required = [q.name for q in inspect.signature(f).parameters.values()
                        if q.default is q.empty and q.kind == q.POSITIONAL_OR_KEYWORD]
            for i in range(len(required)):
                for bad in (None, "x", 3):
                    args = [fitting.get(r) for r in required]
                    args[i] = bad
                    signal.setitimer(signal.ITIMER_REAL, 10)
                    try:
                        f(*args)
                    except (smg.SMGError, StaleSiteError):
                        pass
                    except Exception as exc:
                        raise AssertionError(f"{name} at {required[i]}={bad!r}") from exc
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    calls += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert calls > 100


# The port rule before it was shared, kept verbatim as the oracle for the
# one union-find that arcs, colour classes and strand components now use.

def reference_negative_arcs(d):
    items = list(d.edges) + list(d.loops)
    uf = UnionFind(items)
    for nd in d.nodes:
        if nd.kind == CROSSING:
            uf.union(nd.ports[1], nd.ports[3])
        elif nd.kind == SINGULAR:
            uf.union(nd.ports[0], nd.ports[2])
            uf.union(nd.ports[1], nd.ports[3])
        else:
            for p, q in smoothing_pairs(nd.attr, NEGATIVE):
                uf.union(nd.ports[p], nd.ports[q])
    roots = sorted({uf.find(x) for x in items})
    index = {r: i for i, r in enumerate(roots)}
    return {x: index[uf.find(x)] for x in items}


def reference_colour_classes(d):
    items = list(d.edges) + list(d.loops)
    uf = UnionFind(items)
    # forced equalities
    for nd in d.nodes:
        if nd.kind == MARKER:
            for p in range(3):
                uf.union(nd.ports[p], nd.ports[p + 1])
        elif nd.kind == SINGULAR:
            uf.union(nd.ports[0], nd.ports[2])
            uf.union(nd.ports[1], nd.ports[3])
        else:
            uf.union(nd.ports[1], nd.ports[3])  # over-strand runs through
    roots = sorted({uf.find(v) for v in items})
    index = {r: i for i, r in enumerate(roots)}
    return {v: index[uf.find(v)] for v in items}


def reference_components(c):
    uf = UnionFind(c.edges)
    for nd in c.nodes:
        for p in (0, 1):
            uf.union(nd.ports[p], nd.ports[p + 2])
    groups: dict[str, set] = {}
    for e in c.edges:
        groups.setdefault(uf.find(e), set()).add(e)
    comps = [frozenset(v) for v in groups.values()]
    comps += [frozenset([l]) for l in c.loops]
    return tuple(sorted(comps, key=min))


def port_rule_inputs() -> list:
    """Every fixture and every rewrite of it by either catalog at every
    site, their resolutions and M5/M6 transforms, and seeded T(2, n),
    marker and singular chains and split links."""
    from test_transforms import chain, split_links

    base = []
    for name in fixture_names():
        d = fixture(name)
        base.append(d)
        for m in move_catalog("unoriented"):
            for direction in (FORWARD, REVERSE):
                base += [apply_move(d, m, s) for s in find_sites(d, m, direction)]
        for od in enumerate_orientations(d):
            for m in move_catalog("oriented"):
                for direction in (FORWARD, REVERSE):
                    base += [apply_move(od, m, s).base for s in find_sites(od, m, direction)]
    # the orientations of a fixture share many rewrites
    base = list({(d.nodes, d.loops, d.anchors): d for d in base}.values())
    out = list(base)
    for d in base:
        out += [resolve(d, sign).diagram for sign in (POSITIVE, NEGATIVE)]
        out += [semi_transform(d, kind) for kind in (M5, M6)]
    rng = random.Random(2207)
    out += [parse_smg(t2_text(rng.randrange(1, 40))) for _ in range(6)]
    out += [chain(kind, rng.randrange(1, 12)) for kind in "MS" for _ in range(3)]
    out += [split_links(seed) for seed in range(2207, 2219)]
    return out


def test_port_classes_match_the_loops_they_replace():
    """Arcs, colour classes and strand components read through
    ``_port_classes`` equal the three loops it replaced, numbering and key
    order included: generators and colour classes are public."""
    from smg.resolution import _build_components

    inputs = port_rule_inputs()
    assert len(inputs) > 1000
    classical = 0
    for d in inputs:
        assert list(negative_arcs(d).items()) == list(reference_negative_arcs(d).items()), d.name
        assert (list(d._colouring.cls.items())
                == list(reference_colour_classes(d).items())), d.name
        if d.is_classical():
            classical += 1
            assert _build_components(d) == reference_components(d), d.name
    assert classical > len(inputs) // 2
