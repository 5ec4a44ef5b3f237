import hashlib
import itertools
import random
import time
import weakref

import pytest

from smg.catalog import catalog_map, move_catalog
from smg.diagram import (SMGSemanticError, SMGSyntaxError, enumerate_orientations, parse_smg,
                         serialize)
from smg.fixtures import fixture, fixture_names
from smg.moves import (
    FORWARD,
    REVERSE,
    MoveSequence,
    SearchBudget,
    StaleSiteError,
    apply_move,
    code_digest,
    find_sites,
    search_equivalence,
    verify_sequence,
)

CAT = catalog_map("unoriented")
NAMES = ["circle", "two_loops", "kink", "hopf", "trefoil", "saddle_sphere",
         "sing_sphere", "fr", "d2m5", "d2m6", "d1m5", "d1m6"]


def test_catalog_counts():
    unor = move_catalog("unoriented")
    assert sum(1 for m in unor if not m.derived) == 17
    assert sum(1 for m in unor if m.derived) == 3
    assert len(move_catalog("oriented")) == 22


def test_catalog_boundary_arities_match():
    for mode in ("unoriented", "oriented"):
        for m in move_catalog(mode):
            for lhs, rhs in m.variants:
                assert lhs.K == rhs.K, m.id
                if m.oriented:
                    assert lhs.boundary_profile() == rhs.boundary_profile(), m.id


@pytest.mark.parametrize("text, why", [
    ("node a X p q r s\nnode b X t u v w\n" + "".join(
        f"leg {k} {e}\n" for k, e in enumerate("pqrstuvw", start=1)), "more than one node"),
    ("node a X p q r s\nleg 1 p\nleg 2 q\nleg 3 r\nleg 4 s\nleg 5 x\nleg 6 x\n",
     "mixes nodes with a bare strand"),
], ids=["two_components", "nodes_and_a_strand"])
def test_pattern_is_one_node_component_or_bare_strands(text, why):
    from smg.moves import parse_pattern

    with pytest.raises(ValueError, match=why):
        parse_pattern(text)


ONE_CROSSING = "node k X p q r s\nleg 1 p\nleg 2 q\nleg 3 r\nleg 4 s\n"
#: ONE_CROSSING with its node named ``leg``, as the keyword of a leg head
LEG_NODE = ONE_CROSSING.replace("node k", "node leg")


@pytest.mark.parametrize("text, error, why", [
    ("node k X a b\n", SMGSyntaxError, "line 1: crossing needs 4 edges"),
    ("node k M x a b c d\n", SMGSemanticError, "line 1: bad axis/side 'x'"),
    ("leg x a\n", SMGSyntaxError, "line 1: bad 'leg' line"),
    ("orient a\n", SMGSyntaxError, "line 1: bad orient target"),
    ("node a X p q r s\nleg 1 p\nleg 2 q\nleg 3 r\n", SMGSemanticError,
     r"pattern edge\(s\) \['s'\] not used exactly twice"),
    ("node a X p q r s\nnode b X t u v w\n" + "".join(
        f"leg {k} {e}\n" for k, e in enumerate("pqrstuvw", start=1)), SMGSemanticError,
     "pattern has more than one node component"),
    ("leg 1 a\nleg 2 a\norient a leg 3\n", SMGSemanticError,
     r"pattern edge a has no end \('leg', 3\)"),
    (ONE_CROSSING + "orient p zz.1\n", SMGSemanticError, r"pattern edge p has no end \('zz', 1\)"),
    (ONE_CROSSING + "orient zz p.1\n", SMGSemanticError, r"pattern edge zz has no end \('p', 1\)"),
    (LEG_NODE + "orient p leg.1\n", SMGSemanticError,
     r"pattern edge p has no end \('leg', 1\)"),
], ids=["truncated_crossing", "bad_axis", "bad_leg", "bad_orient", "edge_used_once", "two_components",
        "head_on_no_leg", "head_on_no_node", "head_of_no_edge", "end_of_a_node_named_leg"])
def test_malformed_patterns_are_typed_errors(text, error, why):
    """Pattern lines are read by the diagram parser's node reader, and a
    pattern that is no disk fragment, or whose head names no end of its
    edge, is a semantic error: no bare ``IndexError`` or ``ValueError``."""
    from smg.moves import parse_pattern

    with pytest.raises(error, match=f"^{why}$"):
        parse_pattern(text)


def test_a_node_named_leg_keeps_its_ends_apart_from_the_legs():
    """``leg.0`` is an end of the node ``leg``, not leg 0; ``leg 1`` is
    leg 1."""
    from smg.moves import parse_pattern

    pat = parse_pattern(LEG_NODE + "orient p leg.0\norient q leg 2\n")
    assert pat.head_map == {"p": ("leg", 0), "q": pat.hub_dart_of_leg(2)}
    assert pat.boundary_profile() == (-1, 1, -1, -1)


def test_o1_sites_on_circle():
    sites = find_sites(fixture("circle"), CAT["O1"], FORWARD)
    assert len(sites) >= 2


def test_o1_reduce_no_sites_on_trefoil():
    assert find_sites(fixture("trefoil"), CAT["O1"], REVERSE) == []


def test_o11_site_on_marker_singular_fixture():
    assert len(find_sites(fixture("d2m5"), CAT["O11"], FORWARD)) >= 1


def test_o1_create_then_reduce_identity():
    d = fixture("circle")
    site = find_sites(d, CAT["O1"], FORWARD)[0]
    d2 = apply_move(d, CAT["O1"], site)
    assert any(
        apply_move(d2, CAT["O1"], s).canonical_code() == d.canonical_code()
        for s in find_sites(d2, CAT["O1"], REVERSE))


def test_o2_across_two_loops():
    d = fixture("two_loops")
    sites = find_sites(d, CAT["O2"], FORWARD)
    assert sites
    d2 = apply_move(d, CAT["O2"], sites[0])
    assert d2.counts == (d.counts[0] + 2, d.counts[1], d.counts[2])


def test_o11_preserves_marker_and_singular_counts():
    d = fixture("d2m5")
    site = find_sites(d, CAT["O11"], FORWARD)[0]
    d2 = apply_move(d, CAT["O11"], site)
    assert d2.counts[1] == d.counts[1]
    assert d2.counts[2] == d.counts[2]


def test_apply_inverse_identity_everywhere():
    for name in NAMES:
        d = fixture(name)
        code = d.canonical_code()
        for m in CAT.values():
            for direction in (FORWARD, REVERSE):
                inv = REVERSE if direction == FORWARD else FORWARD
                for s in find_sites(d, m, direction)[:3]:
                    d2 = apply_move(d, m, s)
                    assert any(
                        apply_move(d2, m, s2).canonical_code() == code
                        for s2 in find_sites(d2, m, inv)), (name, m.id)


def test_stale_site_rejected():
    d = fixture("circle")
    site = find_sites(d, CAT["O1"], FORWARD)[0]
    moved = apply_move(d, CAT["O1"], site)
    other = fixture("trefoil")
    with pytest.raises(StaleSiteError):
        apply_move(other, CAT["O1"], site)


def test_verify_sequence_empty():
    d = fixture("fr")
    assert verify_sequence(d, MoveSequence(()), CAT).canonical_code() == \
        d.canonical_code()


def test_verify_sequence_create_reduce():
    from smg.moves import MoveStep

    d = fixture("circle")
    site = find_sites(d, CAT["O1"], FORWARD)[0]
    d2 = apply_move(d, CAT["O1"], site)
    seq = MoveSequence((
        MoveStep("O1", site.variant, FORWARD, code_digest(d2)),
        MoveStep("O1", site.variant, REVERSE, code_digest(d)),
    ))
    out = verify_sequence(d, seq, CAT)
    assert out.canonical_code() == d.canonical_code()


def test_verify_sequence_stale_step_reports_index():
    from smg.moves import MoveStep

    d = fixture("circle")
    seq = MoveSequence((MoveStep("O1", 0, FORWARD, "0" * 16),))
    with pytest.raises(StaleSiteError, match="stale step 0"):
        verify_sequence(d, seq, CAT)


def test_replay_applies_no_site_after_the_matching_one(monkeypatch):
    import smg.moves as moves
    from smg.moves import MoveStep

    d, move = fixture("fr"), CAT["O2"]
    sites = find_sites(d, move, FORWARD)
    want = code_digest(apply_move(d, move, sites[len(sites) // 2]))
    variant = sites[len(sites) // 2].variant
    candidates = [s for s in sites if s.variant == variant]
    match = next(i for i, s in enumerate(candidates)
                 if code_digest(apply_move(d, move, s)) == want)
    applied = []
    real = moves.apply_move
    monkeypatch.setattr(moves, "apply_move",
                        lambda *args, **kw: applied.append(args[2]) or real(*args, **kw))
    verify_sequence(d, MoveSequence((MoveStep("O2", variant, FORWARD, want),)), CAT)
    assert applied == candidates[:match + 1]


def test_sequence_serialization_round_trip():
    from smg.moves import MoveStep

    seq = MoveSequence((MoveStep("O1", 1, REVERSE, "ab" * 8),))
    assert MoveSequence.parse(seq.serialize()) == seq


def test_sequence_parse_rejects_malformed_lines_with_line_number():
    from smg.diagram import SMGSyntaxError

    good = "O1 0 forward " + "ab" * 8
    for bad in ("O1 0 forward", "O1 x forward " + "ab" * 8,
                "O1 0 sideways " + "ab" * 8, good + " extra"):
        with pytest.raises(SMGSyntaxError, match="line 3") as err:
            MoveSequence.parse(f"{good}\n\n{bad}\n")
        assert err.value.line == 3 and isinstance(err.value, ValueError)


def test_unknown_move_id_is_a_semantic_error():
    from smg.diagram import SMGSemanticError
    from smg.moves import MoveStep

    d = fixture("circle")
    site = find_sites(d, CAT["O1"], FORWARD)[0]
    kinked = apply_move(d, CAT["O1"], site)
    seq = MoveSequence((MoveStep("O1", site.variant, FORWARD, code_digest(kinked)),
                        MoveStep("O99", 0, REVERSE, code_digest(d))))
    with pytest.raises(SMGSemanticError, match="step 1: unknown move id 'O99'"):
        verify_sequence(d, seq, CAT)
    with pytest.raises(SMGSemanticError, match="O99"):
        search_equivalence(d, fixture("kink"), CAT, ["O1", "O99"])


def test_missing_variant_is_a_semantic_error():
    """A step naming a variant its move lacks, by a number too large or
    negative (which ``MoveSequence.parse`` reads), is a semantic error, as
    ``apply_move`` reports it, not a stale step."""
    from smg.diagram import SMGSemanticError
    from smg.moves import MoveStep

    d = fixture("circle")
    for seq in (MoveSequence((MoveStep("O2", 99, FORWARD, code_digest(d)),)),
                MoveSequence.parse(f"O2 -1 forward {code_digest(d)}")):
        variant = seq.steps[0].variant
        with pytest.raises(SMGSemanticError, match=f"^step 0: move O2 has no variant {variant}$"):
            verify_sequence(d, seq, CAT)


def test_search_of_an_oriented_diagram_is_a_semantic_error():
    """The search compares unoriented codes, so either side oriented is an
    error, not a stray AttributeError."""
    from smg.diagram import SMGSemanticError

    kink = enumerate_orientations(fixture("kink"))[0]
    with pytest.raises(SMGSemanticError, match="OrientedDiagram"):
        search_equivalence(kink, fixture("circle"), CAT, ["O1"])
    with pytest.raises(SMGSemanticError, match="OrientedDiagram"):
        search_equivalence(fixture("circle"), kink, CAT, ["O1"])


@pytest.mark.parametrize("build", [move_catalog, catalog_map])
def test_unknown_catalog_mode_is_a_semantic_error(build):
    from smg.diagram import SMGSemanticError

    with pytest.raises(SMGSemanticError, match="unknown catalog mode 'x'"):
        build("x")


# code_digest of the fixtures and of one rewrite each (the last site of the
# move) as the canonical code bytes stood before the bounded canonicaliser:
# trace fingerprints are these digests, so a change here is a change of a
# public format and has to be deliberate.
GOLDEN_FIXTURE_DIGESTS = {
    "circle": "acaf65972f80984f", "d2m5": "0c56d3060f1f7b0f",
    "d2m6": "7d97b20526754cb1", "fr": "65a791396f377081",
    "hopf": "58adc8ba447154c4", "kink": "34d8b511f55106b3",
    "saddle_sphere": "3d0e4a85b70f05a4", "sing_sphere": "0b7a9082154e305a",
    "three_loops": "ad68c5578335de9f", "trefoil": "44e94250a6bfde3f",
    "two_loops": "999608bbe0673b28", "d1m5": "0f40587b67a568e7",
    "d1m6": "28ad8b86aa830c0e",
}
GOLDEN_REWRITE_DIGESTS = [
    ("fr", "O2", FORWARD, 164, "6c1307eae6c0d0e6"),
    ("fr", "O6", FORWARD, 48, "14239d042147d723"),
    ("fr", "D_O9ppp", FORWARD, 2, "74e4b6b6d378e03a"),
    ("trefoil", "O1", FORWARD, 48, "5ee9f2ebc257dae0"),
    ("kink", "O1", REVERSE, 4, "acaf65972f80984f"),
    ("d1m6", "O11p", FORWARD, 1, "b91b32aeb91064a6"),
    ("d1m6", "O12", REVERSE, 1, "7d97b20526754cb1"),
    ("d1m6", "D_O9pp", FORWARD, 2, "62d6dfa8249a4821"),
    ("sing_sphere", "O8", FORWARD, 8, "44ac7656c0ea7e89"),
    ("hopf", "O6p", FORWARD, 16, "9713ade67293e8fb"),
]


def test_code_digests_are_pinned():
    from smg.fixtures import fixture_names

    assert sorted(GOLDEN_FIXTURE_DIGESTS) == sorted(fixture_names())
    for name, digest in GOLDEN_FIXTURE_DIGESTS.items():
        assert code_digest(fixture(name)) == digest, name
    for name, move, direction, count, digest in GOLDEN_REWRITE_DIGESTS:
        d = fixture(name)
        sites = find_sites(d, CAT[move], direction)
        assert len(sites) == count, (name, move, direction)
        assert code_digest(apply_move(d, CAT[move], sites[-1])) == digest, (name, move)


def test_search_self_is_empty():
    d = fixture("fr")
    seq = search_equivalence(d, d, CAT)
    assert seq is not None and len(seq) == 0


def test_search_single_move():
    d = fixture("circle")
    d2 = apply_move(d, CAT["O1"], find_sites(d, CAT["O1"], FORWARD)[0])
    seq = search_equivalence(d, d2, CAT, ["O1"], SearchBudget(3, 10_000))
    assert seq is not None and len(seq) == 1
    assert verify_sequence(d, seq, CAT).canonical_code() == d2.canonical_code()


def test_search_budget_exhaustion_returns_none():
    seq = search_equivalence(fixture("circle"), fixture("trefoil"), CAT,
                             ["O1", "O2", "O3"], SearchBudget(max_depth=0))
    assert seq is None


def test_search_traces_replay():
    from smg.diagram import parse_smg

    d = fixture("two_loops")
    site = find_sites(d, CAT["O2"], FORWARD)[0]
    # the loop of the second target sits on the kink's outward face, so it
    # is the kinked two_loops that O1 reaches from the outer face
    for d2 in (apply_move(d, CAT["O2"], site),
               parse_smg("diagram t\nnode q0 X t1 t0 t0 t1\nloop c0\nplace c0 in q0.3\nend\n")):
        seq = search_equivalence(d, d2, CAT, ["O1", "O2"], SearchBudget(2, 20_000))
        assert seq is not None
        assert verify_sequence(d, seq, CAT).canonical_code() == d2.canonical_code()


def test_oriented_moves_need_oriented_diagram():
    ocat = catalog_map("oriented")
    with pytest.raises(ValueError):
        find_sites(fixture("circle"), ocat["G1"], FORWARD)


def test_oriented_sites_and_validity():
    ocat = catalog_map("oriented")
    d = fixture("hopf")
    od = enumerate_orientations(d)[0]
    found_any = False
    for m in ocat.values():
        for s in find_sites(od, m, FORWARD)[:2]:
            res = apply_move(od, m, s)
            assert res.validate().ok, m.id
            found_any = True
    assert found_any


def test_oriented_matching_respects_direction():
    ocat = catalog_map("oriented")
    d = fixture("circle")
    for od in enumerate_orientations(d):
        sites = find_sites(od, ocat["G1"], FORWARD)
        assert sites  # a kink can always be created on a loop
        out = apply_move(od, ocat["G1"], sites[0])
        assert out.validate().ok


#: ``(a, b, s)``: variant ``b`` of the move is variant ``a`` with leg ``k``
#: renumbered ``k+s`` mod K on both sides.  With ``s = 0`` the mirror the
#: catalog adds is an isomorphic copy.  The oriented catalog has none.
COVERS = {
    "O1": [(1, 2, 1), (0, 3, 1)],
    "O2": [(0, 1, 0)],
    "O3": [(1, 2, 2), (0, 3, 2)],
    "O4": [(0, 1, 4)], "O4p": [(0, 1, 4)],
    "O6": [(0, 1, 0)], "O6p": [(0, 1, 0)], "O8": [(0, 1, 0)],
    "D_O9pp": [(0, 1, 5)], "D_O9ppp": [(0, 1, 5)],
}


def test_covers_are_pinned():
    from smg.catalog import _covers

    for mode, want in (("unoriented", COVERS), ("oriented", {})):
        got = {m.id: _covers(m.variants) for m in move_catalog(mode)}
        assert {mid: c for mid, c in got.items() if c} == want, mode
    for m in move_catalog("unoriented"):
        dropped = set(range(len(m.variants))) - set(m._kept)
        assert dropped == {b for _, b, _ in COVERS.get(m.id, [])}, m.id


def test_searched_moves_match_the_kept_variants_sites():
    """``MoveSpec._searched`` finds exactly the sites of its move's kept
    variants, in ``find_sites``' order, with each ``variant`` renumbered
    through ``_kept``: for every move of both catalogs, both directions, on
    every fixture and its first orientation.  A move with no covered
    variant is its own restriction."""
    from dataclasses import replace

    from smg.diagram import _first_orientation

    restricted = 0
    for name in fixture_names():
        d = fixture(name)
        for host, mode in ((d, "unoriented"), (_first_orientation(d), "oriented")):
            for m in move_catalog(mode) if host is not None else ():
                searched = m._searched
                assert searched.id == m.id and searched._kept == tuple(range(len(m._kept)))
                assert (searched is m) == (len(m._kept) == len(m.variants))
                restricted += searched is not m
                renumber = {v: i for i, v in enumerate(m._kept)}
                for direction in (FORWARD, REVERSE):
                    want = [replace(s, variant=renumber[s.variant])
                            for s in find_sites(host, m, direction) if s.variant in renumber]
                    assert find_sites(host, searched, direction) == want, (name, m.id)
    assert restricted


#: the two targets three WALK_MOVES from ``two_loops`` and ``circle`` on
#: which the search's answer does not replay (ROADMAP item 1)
DEFECT_TARGETS = [
    "diagram two_loops\nnode q0 X t1 t0 t0 t1\nloop c0\nplace c0 in q0.3\nend\n",
    "diagram circle\nnode q0 X t4 t6 t5 t3\nnode q1 X t4 t3 t2 t2\n"
    "node q2 X t6 t1 t1 t5\nend\n",
]


def test_covered_variants_give_their_covers_codes():
    rng = random.Random(11)
    hosts = [fixture(n) for n in fixture_names()] + [parse_smg(t) for t in DEFECT_TARGETS]
    for d in list(hosts):   # four one-move rewrites of each
        rewrites = [(m, s) for m in CAT.values() for direction in (FORWARD, REVERSE)
                    for s in find_sites(d, m, direction)]
        hosts += [apply_move(d, *r) for r in rng.sample(rewrites, 4)]
    for d in hosts:
        for mid, covers in COVERS.items():
            move = CAT[mid]
            for direction in (FORWARD, REVERSE):
                codes = [set() for _ in move.variants]
                for s in find_sites(d, move, direction):
                    codes[s.variant].add(apply_move(d, move, s).canonical_code())
                for a, b, _ in covers:
                    assert codes[a] == codes[b], (d.name, mid, direction, a, b)


WALK_MOVES = ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10"]
#: sha256 of ``serialize()`` of the search's answer, 16 hex digits, per host
#: of a seeded walk of two WALK_MOVES: the sequence found, its variants and
#: fingerprints are part of what the search promises to keep
WALK_ANSWERS = {
    "saddle_sphere": "168674f6370a0c1a", "sing_sphere": "f8fe919ba0c8d971",
    "hopf": "abbdff680d132d74", "trefoil": "21a24800c0ffbfea",
    "d2m5": "f33085312db2c20b", "d2m6": "fd5ab8c8fc3809c8",
}


@pytest.mark.parametrize("host", sorted(WALK_ANSWERS))
def test_search_answers_on_two_move_walks_are_pinned(host):
    rng = random.Random(host)
    d = target = fixture(host)
    for _ in range(2):
        options = [(CAT[m], s) for m in WALK_MOVES for direction in (FORWARD, REVERSE)
                   for s in find_sites(target, CAT[m], direction)]
        target = apply_move(target, *rng.choice(options))
    seq = search_equivalence(d, target, CAT, WALK_MOVES, SearchBudget(2, 100_000))
    assert verify_sequence(d, seq, CAT).canonical_code() == target.canonical_code()
    assert hashlib.sha256(seq.serialize().encode()).hexdigest()[:16] == WALK_ANSWERS[host]


def test_site_path_raises_semantic_errors():
    """A direction other than forward or reverse is an error, not a silent
    reverse, and so is an oriented move on an unoriented diagram."""
    import dataclasses

    from smg.diagram import SMGSemanticError
    from smg.moves import MoveStep

    d = fixture("kink")
    site = find_sites(d, CAT["O1"], REVERSE)[0]
    with pytest.raises(SMGSemanticError):
        find_sites(d, CAT["O1"], "sideways")
    with pytest.raises(SMGSemanticError):
        apply_move(d, CAT["O1"], dataclasses.replace(site, direction="sideways"))
    with pytest.raises(SMGSemanticError):
        verify_sequence(d, MoveSequence((MoveStep("O1", 0, "sideways", "0" * 16),)), CAT)
    with pytest.raises(SMGSemanticError):
        find_sites(fixture("circle"), catalog_map("oriented")["G1"], FORWARD)


def test_a_site_applies_only_with_its_own_move_and_variant():
    """On the trefoil, the first site of each unoriented move and direction
    applied with every other move, and with a variant its move lacks, is a
    semantic error: not a stray KeyError or IndexError, nor a rewrite by
    the wrong move or by the last variant."""
    import dataclasses

    d = fixture("trefoil")
    sites = [s for m in CAT.values() for direction in (FORWARD, REVERSE)
             for s in find_sites(d, m, direction)[:1]]
    wrong = [(m, s) for s in sites for m in CAT.values() if m.id != s.move_id]
    assert len(wrong) == 95
    for m, s in wrong:
        with pytest.raises(SMGSemanticError, match="applied with move"):
            apply_move(d, m, s)
    move = CAT[sites[0].move_id]
    for variant in (99, -1, len(move.variants)):
        with pytest.raises(SMGSemanticError, match="no variant"):
            apply_move(d, move, dataclasses.replace(sites[0], variant=variant))


def reference_strand_sites(d, move, direction) -> list[tuple]:
    """``(variant, leg targets)`` of every site of a bare-strand side: the
    product over its strands of every ``(host edge or loop, flip)``, the
    strands on distinct ones, kept when the legs of each pattern face see
    one host face beyond their cuts and, on an oriented host, each strand
    runs along an edge that flows into the end beyond its head leg."""
    from smg.diagram import OrientedDiagram
    from smg.moves import HUB
    from tests.test_diagram import reference_faces

    od = d if isinstance(d, OrientedDiagram) else None
    base = d.base if od is not None else d
    corners, loop_face = reference_faces(base)

    def beyond(target):
        kind, ident, end = target
        if kind == "loop":
            return loop_face[ident]
        n, p = base.edge_ends[ident][end]
        return corners[(n, (p - 1) % 4)][2]

    opts = [("edge", e, flip) for e in base.edges for flip in (0, 1)]
    opts += [("loop", l, flip) for l in base.loops for flip in (0, 1)]
    out = []
    for variant in range(len(move.variants)):
        pat = move.side(variant, direction)
        # the pattern's faces by phi on its hub: cross the strand, turn one leg
        face_of_leg = {}
        for k in range(1, pat.K + 1):
            cur = pat.hub_dart_of_leg(k)
            while pat.leg_of_hub_dart(cur) not in face_of_leg:
                face_of_leg[pat.leg_of_hub_dart(cur)] = k
                _, t = pat.alpha(cur)
                cur = (HUB, (t + 1) % pat.K)
        strands = [[k for k in range(1, pat.K + 1) if pat.legs[k - 1] == e]
                   for e in pat.through_edges]
        for combo in itertools.product(opts, repeat=len(strands)):
            if len({ident for _, ident, _ in combo}) < len(combo):
                continue
            targets = {}
            for (k1, k2), (kind, ident, flip) in zip(strands, combo):
                targets[k1], targets[k2] = (kind, ident, flip), (kind, ident, 1 - flip)
            seen = {}
            if any(seen.setdefault(face_of_leg[k], beyond(t)) != beyond(t)
                   for k, t in targets.items()):
                continue
            if od is not None and pat.heads:
                heads = [targets[pat.leg_of_hub_dart(pat.head_map[e])] for e in pat.through_edges]
                if any(kind == "edge" and od.head_map[ident] != base.edge_ends[ident][end]
                       for kind, ident, end in heads):
                    continue
            out.append((variant, tuple(targets[k] for k in sorted(targets))))
    return out


def test_strand_sites_match_the_product_reference():
    """Every bare-strand side of both catalogs finds, in order, the sites
    of the plain product over strand candidates filtered face by face."""
    from smg.diagram import _first_orientation
    from tests.test_diagram import anchored_hosts

    catalogs = [move_catalog("unoriented"), move_catalog("oriented")]
    sides = [(m, direction) for cat in catalogs for m in cat for direction in (FORWARD, REVERSE)
             if not any(m.side(v, direction).nodes for v in range(len(m.variants)))]
    assert sorted(m.id for m, direction in sides if direction == FORWARD) == sorted(
        ["O1", "O2", "O6", "O6p", "O8", "G1", "G1p", "G2", "G6", "G6p", "G8"])
    assert all(direction == FORWARD for _, direction in sides)

    rng = random.Random(13)
    hosts = [fixture(name) for name in fixture_names()] + anchored_hosts()
    hosts += [parse_smg("diagram t\nnode k X b a a b\nloop c0\nloop c1\nloop c2\n"
                        "place c1 in k.2\nend\n"),
              parse_smg("diagram t\nloop c0\nloop c1\nend\n")]
    for d in hosts[:12]:
        rewrites = [apply_move(d, m, s) for m in CAT.values() for direction in (FORWARD, REVERSE)
                    for s in find_sites(d, m, direction)]
        hosts += rng.sample(rewrites, min(3, len(rewrites)))
    checked = 0
    for d in hosts:
        oriented = enumerate_orientations(d)[:4]
        for m, direction in sides:
            for host in (oriented if m.oriented else [d]):
                got = [(s.variant, s.leg_targets) for s in find_sites(host, m, direction)]
                assert got == reference_strand_sites(host, m, direction), (m.id, serialize(d))
                checked += len(got)
    assert checked > 10000


def reference_node_embeddings(d, pat) -> list[tuple]:
    """``(node map, {leg k: target}, face conditions hold)`` of every
    combinatorial embedding of a node pattern: every injective map of its
    nodes to host nodes of their kind, each at every rotation that keeps a
    crossing's strands and turns a decoration into the host's, kept when
    the two ends of each interior edge land on one host edge.  Sorted by the
    host node and rotation of the least pattern node, which fix the rest."""
    from smg.diagram import CROSSING
    from smg.moves import HUB, _face_conditions

    faces = d.faces()
    pnodes = sorted(pat.nodes, key=lambda nd: nd.id)

    def fits(pn, hn, r):
        if hn.kind != pn.kind:
            return False
        return r % 2 == 0 if pn.kind == CROSSING else hn.attr == (pn.attr + r) % 2

    def image(amap, dart):
        h, r = amap[dart[0]]
        return (h, (dart[1] + r) % 4)

    order = {nd.id: i for i, nd in enumerate(d.nodes)}
    images = [[(hn.id, r) for hn in d.nodes for r in range(4) if fits(pn, hn, r)]
              for pn in pnodes]
    out = []
    for picks in itertools.product(*images):
        if len({h for h, _ in picks}) < len(picks):
            continue
        amap = {pn.id: pick for pn, pick in zip(pnodes, picks)}
        targets, ok = {}, True
        for e, ends in pat.edge_ends.items():
            darts = [image(amap, x) for x in ends if x[0] != HUB]
            edges = {d.node(h).ports[p] for h, p in darts}
            if len(edges) > 1:
                ok = False
                break
            if len(darts) == 1:
                he = edges.pop()
                targets[pat.legs.index(e) + 1] = ("edge", he, d.edge_ends[he].index(darts[0]))
        if ok:
            out.append((order[picks[0][0]], picks[0][1], amap, targets,
                        _face_conditions(d, faces, pat, amap, targets)))
    return [t[2:] for t in sorted(out, key=lambda t: t[:2])]


def test_node_sites_match_the_injective_map_reference():
    """Every node-pattern side of both catalogs matches, in order, the
    embeddings of the plain product over injective node maps and rotations
    filtered by edges, and finds those of them that meet the face (and
    orientation) conditions: on the fixtures and their one-move rewrites,
    every move, both directions, oriented moves under up to 4 orientations."""
    from smg.moves import _match_component, _orientation_ok
    from test_quandles import fixtures_and_rewrites

    def key(amap, targets):
        return tuple(sorted(amap.items())), tuple(targets[k] for k in sorted(targets))

    sides = [(m, direction, [v for v in range(len(m.variants)) if m.side(v, direction).nodes])
             for cat in (move_catalog("unoriented"), move_catalog("oriented"))
             for m in cat for direction in (FORWARD, REVERSE)]
    sides = [side for side in sides if side[2]]
    matched = checked = 0
    for d in fixtures_and_rewrites():
        oriented = enumerate_orientations(d)[:4]
        for m, direction, variants in sides:
            ref = {}
            for v in variants:
                pat = m.side(v, direction)
                ref[v] = reference_node_embeddings(d, pat)
                leg = {e: k for k, e in enumerate(pat.legs, start=1)}
                got = [key(amap, {leg[e]: ("edge", he, d.edge_ends[he].index(end))
                                  for e, (he, end) in claims.items()})
                       for amap, claims in _match_component(d, pat)]
                assert got == [key(amap, targets) for amap, targets, _ in ref[v]], m.id
                matched += len(got)
            for host in (oriented if m.oriented else [d]):
                want = [(v, *key(amap, targets)) for v in variants
                        for amap, targets, face_ok in ref[v] if face_ok and (
                            host is d or _orientation_ok(host, d, m.side(v, direction),
                                                         amap, targets))]
                got = [(s.variant, s.node_images, s.leg_targets)
                       for s in find_sites(host, m, direction) if s.variant in variants]
                assert got == want, (m.id, direction, serialize(d))
                checked += len(got)
    assert matched > 1000 and checked > 1000


def test_search_builds_faces_only_for_the_diagrams_it_expands(monkeypatch):
    """A search takes up every rewrite but reads faces only where it looks
    for sites; an unanchored diagram's code needs none, and a rewrite
    spliced on integer darts, or held back unspliced, is no diagram at
    all."""
    import smg.moves as moves
    from smg.diagram import Diagram, Faces

    built, expanded, applied = [], [], []
    rng = random.Random("trefoil")
    d = target = fixture("trefoil")
    for _ in range(2):
        options = [(CAT[m], s) for m in ("O1", "O2") for direction in (FORWARD, REVERSE)
                   for s in find_sites(target, CAT[m], direction)]
        target = apply_move(target, *rng.choice(options))
    # uncached copies
    d, target = (Diagram(x.name, x.nodes, x.loops, x.anchors) for x in (d, target))
    _, _, work = watch_states(monkeypatch, moves, (d, target))
    init, find, apply = Faces.__init__, moves.find_sites, moves.apply_move

    def counted_init(self, d):
        built.append(d)
        init(self, d)

    def recorded_find(d, move, direction=FORWARD):
        if not any(x is d for x in expanded):
            expanded.append(d)
        return find(d, move, direction)

    def recorded_apply(d, move, site):
        applied.append(apply(d, move, site))
        return applied[-1]

    monkeypatch.setattr(Faces, "__init__", counted_init)
    monkeypatch.setattr(moves, "find_sites", recorded_find)
    monkeypatch.setattr(moves, "apply_move", recorded_apply)
    seq = search_equivalence(d, target, CAT, ["O1", "O2"], SearchBudget(3, 100_000))
    monkeypatch.undo()
    assert verify_sequence(d, seq, CAT).canonical_code() == target.canonical_code()
    assert not any(r.anchors for r in applied)
    assert work["applies"] > 50 * len(expanded)
    assert len(built) == len(expanded)
    assert all(any(b is x for x in expanded) for b in built)


def watch_states(monkeypatch, module, inputs):
    """Weakly record every result of ``module.apply_move`` and look at each
    diagram given to ``module._sites`` (which ``find_sites`` goes through),
    ``moves._host`` or ``Diagram.canonical_code``.

    A rewrite is made by one of two routes: spliced on integer darts
    (``moves._rewrite_pieces``, where ``module`` has it) and coded by
    ``moves._pieces_code``, or built by ``apply_move`` and coded by
    ``canonical_code``.  The search takes up each rewrite by reading its
    node-kind counts (``moves._rewrite_counts``), and may hold it back
    unmade.  A rewrite counts once, whether made at once or held back and
    made when its expansion ends; its code, written here when it is first
    taken up or made, uncounted, joins ``work["distinct"]`` whether or not
    the search codes it.  A state spliced on integer darts is built
    when it is expanded (``moves._built``), which makes no new rewrite, so
    nothing inside ``_built`` is counted.

    Returns ``(most, fresh, work)``: ``most[0]`` is the largest number of
    results alive at one look, and ``most[1]`` of those never given to
    ``_sites``; ``fresh`` has one entry per diagram looked at that is
    neither a result nor one of ``inputs``, true when its first look found
    no cached dart table; ``work`` counts the rewrites made or held back
    (``applies``),
    the splices on integer darts (``splices``), the canonical codes
    computed (``codes``) and the states built when expanded (``built``),
    and ``work["distinct"]`` is the set of codes of the rewrites made or
    held back and the diagrams coded."""
    from smg.diagram import Diagram

    results, expanded, looked, most, fresh = {}, {}, {}, [0, 0], []
    work = {"applies": 0, "splices": 0, "codes": 0, "built": 0, "distinct": set()}
    building = [False]
    apply, find, code = module.apply_move, module._sites, Diagram.canonical_code

    spliced = {}    # id(host table) -> (the table, {(move id, site) made on it})
    tables = {}     # id(d) -> the table of the diagram ``d`` last given to ``_host``

    def made(table, move, site) -> bool:
        """Whether the rewrite at ``site`` was made before on ``table``, and
        note that it is; False without a table."""
        if table is None:
            return False
        sites = spliced.setdefault(id(table), (table, set()))[1]
        return (move.id, site) in sites or sites.add((move.id, site))

    def keep(table, d):
        table[id(d)] = weakref.ref(d, lambda _, i=id(d): table.pop(i, None))

    def look(d):
        most[0] = max(most[0], len(results))
        most[1] = max(most[1], len(results.keys() - expanded.keys()))
        if id(d) not in results and id(d) not in looked and all(d is not x for x in inputs):
            keep(looked, d)
            fresh.append("_darts" not in d.__dict__)

    def watched_apply(d, move, site, **kw):
        work["applies"] += not building[0] and not made(tables.get(id(d)), move, site)
        out = apply(d, move, site, **kw)
        keep(results, out)
        return out

    def watched_find(d, *args, **kw):
        keep(expanded, d)
        look(d)
        return find(d, *args, **kw)

    def watched_code(d):
        look(d)
        work["codes"] += "_canonical_code" not in d.__dict__ and not building[0]
        work["distinct"].add(out := code(d))
        return out

    monkeypatch.setattr(module, "apply_move", watched_apply)
    monkeypatch.setattr(module, "_sites", watched_find)
    monkeypatch.setattr(Diagram, "canonical_code", watched_code)
    if hasattr(module, "_rewrite_pieces"):
        host, splice, write, built, counts = (module._host, module._rewrite_pieces,
                                              module._pieces_code, module._built,
                                              module._rewrite_counts)

        def watched_host(d):
            look(d)
            tables[id(d)] = host(d)
            return tables[id(d)]

        def watched_counts(d, move, site):
            # each rewrite the search takes up, made at once or held back;
            # a held-back one may never be made, so it is coded here
            if not made(tables[id(d)], move, site):
                work["applies"] += 1
                pieces = splice(d, tables[id(d)], move, site)
                work["distinct"].add(code(apply(d, move, site)) if pieces is None
                                     else write(pieces))
            return counts(d, move, site)

        def watched_splice(d, table, move, site):
            out = splice(d, table, move, site)
            if out is not None:
                work["splices"] += 1
                if not made(table, move, site):
                    work["applies"] += 1
                    work["distinct"].add(write(out))
            return out

        def watched_write(pieces):
            work["codes"] += not building[0]
            return write(pieces)

        def watched_built(state, code):
            # ``_built`` returns a diagram state as it is: only a held
            # splice is built
            work["built"] += type(state) is tuple
            building[0] = True
            try:
                return built(state, code)
            finally:
                building[0] = False

        monkeypatch.setattr(module, "_host", watched_host)
        monkeypatch.setattr(module, "_rewrite_pieces", watched_splice)
        monkeypatch.setattr(module, "_rewrite_counts", watched_counts)
        monkeypatch.setattr(module, "_pieces_code", watched_write)
        monkeypatch.setattr(module, "_built", watched_built)
    return most, fresh, work


def test_search_holds_no_rewritten_diagram(monkeypatch):
    """The search keeps its states as codes: no diagram is held per
    rewrite it does not expand.  A rewrite spliced on integer darts is held
    as its parent, move and site, and built only when it is expanded; one
    built to be coded (on a host with a loop) is dropped once it is coded,
    and the frontier holds a copy without caches.  At most one code is
    computed per diagram: the inputs', and each rewrite's unless the
    expansion that took it up met the other side, which it could not
    meet.  Criterion 7's problem on ``d2m5`` is solved at length 2, before
    any rewrite is expanded; walks of three moves, from ``d2m5`` and from
    the trefoil beside a loop, are not.  A rewrite whose node kinds miss
    the other side is held back unbuilt, and coded only if its expansion
    ends without a hit: 389 codes are computed for 562 rewrites on the
    former, and 275 for 802 on the latter."""
    import smg.moves as moves
    from smg.diagram import Diagram

    def walk(d, seed):
        rng = random.Random(seed)
        for _ in range(3):
            options = [(CAT[m], s) for m in ("O1", "O2") for direction in (FORWARD, REVERSE)
                       for s in find_sites(d, CAT[m], direction)]
            d = apply_move(d, *rng.choice(options))
        return d

    d = fixture("d2m5")
    looped = Diagram("t", fixture("trefoil").nodes, ("c9",))
    primed = apply_move(d, CAT["O11p"], find_sites(d, CAT["O11p"], FORWARD)[0])
    seen, built, work_done = [], 0, []
    for start, target, allowed, depth in [
        (d, primed, ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10", "O11"], 12),
        (d, walk(d, "d2m5"), ["O1", "O2"], 4),
        (looped, walk(looped, "looped.1"), ["O1", "O2"], 4),
    ]:
        # uncached copies, so that the search codes both inputs itself
        start, target = (Diagram(x.name, x.nodes, x.loops, x.anchors) for x in (start, target))
        most, fresh, work = watch_states(monkeypatch, moves, (start, target))
        seq = search_equivalence(start, target, CAT, allowed, SearchBudget(depth, 100_000))
        monkeypatch.undo()
        assert verify_sequence(start, seq, CAT).canonical_code() == target.canonical_code()
        assert most[1] <= 1
        assert most[0] <= work["built"] + 1
        assert work["codes"] <= work["applies"] + 2
        work_done.append((work["applies"], work["codes"]))
        seen += fresh
        built += work["built"]
    assert built and seen and all(seen)
    assert work_done == [(92, 34), (562, 389), (802, 275)]


def test_criterion_7_search_work_is_pinned(monkeypatch):
    """Criterion 7's search on ``d2m6`` takes up 5,379 rewrites, by either
    route, of 3,618 distinct codes: a faster rewrite does the same work.
    It splices 3,363 of them, each once, and codes each it splices; the
    other 2,016, in the last expansion, have node kinds that miss the
    other side and are never spliced.  With the two inputs' it computes
    3,365 canonical codes."""
    import smg.moves as moves

    d = fixture("d2m6")
    target = apply_move(d, CAT["O12p"], find_sites(d, CAT["O12p"], FORWARD)[0])
    _, _, work = watch_states(monkeypatch, moves, (d, target))
    seq = search_equivalence(d, target, CAT, ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10",
                                              "O12"], SearchBudget(12, 100_000))
    monkeypatch.undo()
    assert (work["applies"], work["splices"], work["codes"], len(work["distinct"])) == (
        5379, 3363, 3365, 3618)
    assert hashlib.sha256(seq.serialize().encode()).hexdigest()[:16] == "aa451f4c33f9b1aa"


def test_criterion_7_search_sites_are_pinned(monkeypatch):
    """Criterion 7's searches match only the kept variants of each move,
    through ``find_sites``: on ``d2m5`` it returns 92 sites over 33 calls,
    and on ``d2m6`` 5,379 over 1,221.  Matching every variant and dropping
    the covered ones after returned twice as many (180 and 10,668)."""
    import smg.moves as moves

    find, work = moves.find_sites, [0, 0]

    def counted_find(*args):
        out = find(*args)
        work[0] += len(out)
        work[1] += 1
        return out

    got = {}
    for host, primed, allowed in [
        ("d2m5", "O11p", ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10", "O11"]),
        ("d2m6", "O12p", ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10", "O12"]),
    ]:
        d = fixture(host)
        target = apply_move(d, CAT[primed], find_sites(d, CAT[primed], FORWARD)[0])
        work[:] = [0, 0]
        monkeypatch.setattr(moves, "find_sites", counted_find)
        assert search_equivalence(d, target, CAT, allowed, SearchBudget(12, 100_000))
        monkeypatch.undo()
        got[host] = tuple(work)
    assert got == {"d2m5": (92, 33), "d2m6": (5379, 1221)}


def rewrite_texts() -> list[str]:
    """``serialize()`` of every rewrite of every fixture: both catalogs, both
    directions, the oriented catalog under the fixture's first orientation."""
    from smg.diagram import _first_orientation

    texts = []
    for name in fixture_names():
        d = fixture(name)
        for host, mode in ((d, "unoriented"), (_first_orientation(d), "oriented")):
            for m in move_catalog(mode) if host is not None else ():
                for direction in (FORWARD, REVERSE):
                    texts += [serialize(apply_move(host, m, s))
                              for s in find_sites(host, m, direction)]
    return texts


def substitution_texts() -> list[str]:
    """``serialize()`` of both resolutions, both semi-transforms and the
    exterior of every fixture and of its first rewrites."""
    from test_groups import fixtures_and_first_rewrites

    from smg.resolution import NEGATIVE, POSITIVE, resolve
    from smg.transforms import export_exterior, semi_transform

    return [text for d in fixtures_and_first_rewrites()
            for text in (serialize(resolve(d, POSITIVE).diagram),
                         serialize(resolve(d, NEGATIVE).diagram),
                         serialize(semi_transform(d, "M5")), serialize(semi_transform(d, "M6")),
                         export_exterior(d).serialize())]


def test_rewrite_and_substitution_bytes_are_pinned():
    """Every byte of the rewrites and substitutions, names and places
    included: sha256 of the texts, 16 hex digits."""
    for texts, count, digest in ((rewrite_texts(), 2470, "23276c8363903a82"),
                                 (substitution_texts(), 580, "6ff6da4bc21ebdbd")):
        assert len(texts) == count
        assert hashlib.sha256("".join(texts).encode()).hexdigest()[:16] == digest


#: a kink j placed in k's monogon, with a loop placed at a corner of j
REPRO_HOST = ("node k X b a a b\nnode j X t2 c c t1\nnode q0 X t2 t0 t0 t1\nloop c0\n"
              "place j in k.1\nplace c0 in j.3\n")


def test_a_place_at_a_consumed_corner_keeps_its_face():
    """Undoing the kink j, at whose corner c0 is placed, leaves c0 in k's
    monogon, the face it was in: the code of ``place c0 in k.1``."""
    from test_diagram import anchored_hosts

    cases = [(anchored_hosts()[1],
              "node k X b a a b\nloop c0\nloop c1\nplace c0 in k.1\nplace c1 in k.1\n"),
             (parse_smg(f"diagram t\n{REPRO_HOST}end\n"),
              "node k X b a a b\nnode q0 X e t0 t0 e\nloop c0\nplace q0 in k.1\nplace c0 in k.1\n")]
    for host, body in cases:
        want = parse_smg(f"diagram t\n{body}end\n")
        sites = [s for s in find_sites(host, CAT["O1"], REVERSE) if s.node_image_map["k"][0] == "j"]
        assert sites
        for s in sites:
            out = apply_move(host, CAT["O1"], s)
            assert out.faces().face_of_loop("c0") == out.faces().face_of_corner(("k", 1))
            assert out.canonical_code() == want.canonical_code()


def test_moves_see_faces_not_corners():
    """A loop, or a piece with a marker, placed at any corner of one face
    of the host gives the same rewrite codes, over every site of every
    unoriented move in both directions.  One face per host: the smallest
    with two corners (``test_transforms_see_faces_not_corners`` is the
    transforms' twin)."""
    from test_diagram import anchored_hosts
    from test_transforms import PLACED_HOSTS

    from smg.diagram import Diagram, Node

    mover = Node("zv", "M", 1, ("za", "za", "zb", "zb"))

    def codes(d) -> set:
        return {apply_move(d, m, s).canonical_code() for m in CAT.values()
                for direction in (FORWARD, REVERSE) for s in find_sites(d, m, direction)}

    pairs = 0
    for host in [parse_smg(f"diagram h\n{body}end\n") for body in PLACED_HOSTS] + anchored_hosts():
        faces, by_face = host.faces(), {}
        for nd in host.nodes:
            for k in range(4):
                by_face.setdefault(faces.face_of_corner((nd.id, k)), []).append((nd.id, k))
        corners = min((cs for cs in by_face.values() if len(cs) > 1), key=len)
        got = [(codes(Diagram(host.name, host.nodes, host.loops + ("z",),
                              host.anchors + (("z", c),))),
                codes(Diagram(host.name, host.nodes + (mover,), host.loops,
                              host.anchors + (("zv", c),)))) for c in corners]
        assert got == got[:1] * len(got), serialize(host)
        pairs += len(got) * (len(got) - 1) // 2
    assert pairs == 17


def test_the_place_rule_is_linear():
    """A loop placed at a bigon corner of T(2, 1000): a kink put in and
    taken out again, each rewrite carrying the place by faces in well under
    a second, and back to the start's code."""
    from test_diagram import t2_text

    host = parse_smg(t2_text(1000).replace("end\n", "loop z\nplace z in v00000.0\nend\n"))
    assert host.faces().orbit_degree(host.faces().orbit_of_corner_index(("v00000", 0))) == 2
    d = host
    for direction in (FORWARD, REVERSE):    # the reverse site undoes the new kink q0
        site = next(s for s in find_sites(d, CAT["O1"], direction)
                    if direction == FORWARD or s.node_image_map["k"][0] == "q0")
        start = time.perf_counter()
        d = apply_move(d, CAT["O1"], site)
        assert time.perf_counter() - start < 0.5, direction
        assert d.anchor_map["z"] == ("v00000", 0)
    assert d.canonical_code() == host.canonical_code()
